"""Tests for the unified solver engine (repro.engine).

Covers backend selection and agreement (all five solver methods must
produce the same until/reward answers), the per-chain caches (at most
one LU factorization / Prob0-Prob1 precomputation per target set), the
provenance recorded on Guarantee records, and the reducible-chain
stationary-distribution guard.
"""

import gc
import time
import warnings

import numpy as np
import pytest

from repro import PerformanceAnalyzer, SolverConfig, check
from repro.core.metrics import average_case_error, best_case_error, steady_state_ber
from repro.dtmc import ReducibleChainError, dtmc_from_dict, stationary_distribution
from repro.engine import SOLVER_METHODS, Engine, default_engine
from repro.mimo import MimoSystemConfig, build_detector_model
from repro.pctl import ModelChecker
from repro.viterbi import ViterbiModelConfig, build_reduced_model

from helpers import leak_chain

QUICK_VITERBI = ViterbiModelConfig(traceback_length=3, num_levels=3, pm_max=3)

AGREEMENT_TOLERANCE = 1e-8


def _with_zone_label(chain):
    """Label a deterministic 2/3 subset of states as ``zone`` so that
    ``zone U flag`` has a non-trivial unknown set (a plain
    ``!flag U flag`` is just ``F flag`` and never needs a solve)."""
    chain.add_label("zone", np.nonzero(np.arange(chain.num_states) % 3 != 0)[0])
    return chain


@pytest.fixture(scope="module")
def viterbi_chain():
    return _with_zone_label(build_reduced_model(QUICK_VITERBI).chain)


@pytest.fixture(scope="module")
def mimo_1x2_chain():
    return _with_zone_label(
        build_detector_model(
            MimoSystemConfig(num_rx=2, snr_db=8.0), reduced=True
        ).chain
    )


def reducible_chain():
    """Reducible chain with non-trivial Prob0/Prob1 sets.

    From ``s0`` the chain branches towards ``goal`` (via ``s1``, which
    reaches it almost surely: Prob1) or towards ``trap`` (via ``s2``,
    which never reaches it: Prob0); ``s0`` itself is the genuinely
    unknown state the linear solve must determine.
    """
    return dtmc_from_dict(
        {
            "s0": {"s0": 0.2, "s1": 0.4, "s2": 0.4},
            "s1": {"s1": 0.5, "goal": 0.5},
            "s2": {"s2": 0.5, "trap": 0.5},
            "goal": {"goal": 1.0},
            "trap": {"trap": 1.0},
        },
        initial="s0",
        labels={"goal": ["goal"], "live": ["s0", "s1", "s2"]},
        rewards={"step": {"s0": 1.0, "s1": 2.0, "s2": 1.0}},
    )


class TestSolverConfig:
    def test_default_is_lu(self):
        assert SolverConfig().method == "lu"

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_all_methods_constructible(self, method):
        assert SolverConfig(method=method).method == method

    def test_aliases_normalize(self):
        assert SolverConfig(method="gs").method == "gauss-seidel"
        assert SolverConfig(method="lu-cached").method == "lu"
        assert SolverConfig(method="spsolve").method == "direct"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown solver method"):
            SolverConfig(method="cholesky")

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=0.0)

    def test_bad_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=0)

    def test_coerce_accepts_string_and_none(self):
        assert SolverConfig.coerce(None).method == "lu"
        assert SolverConfig.coerce("jacobi").method == "jacobi"
        config = SolverConfig(method="power")
        assert SolverConfig.coerce(config) is config

    def test_with_method(self):
        config = SolverConfig(tolerance=1e-10)
        other = config.with_method("power")
        assert other.method == "power"
        assert other.tolerance == 1e-10

    def test_default_engine_rejects_both(self):
        with pytest.raises(ValueError, match="either an engine or a config"):
            default_engine("jacobi", Engine())

    def test_default_engine_rejects_non_engine(self):
        # Catches ModelChecker(chain, "jacobi") — config passed in the
        # engine slot — at construction instead of deep in a check.
        with pytest.raises(TypeError, match="must be an Engine"):
            default_engine(None, "jacobi")

    def test_prob01_cache_immune_to_caller_mutation(self):
        chain = reducible_chain()
        engine = Engine()
        n = chain.num_states
        ones = np.ones(n, dtype=bool)
        goal = chain.label_vector("goal")
        prob0, prob1 = engine.prob01(chain, ones, goal)
        prob0[:] = True  # caller scribbles on the result
        prob1[:] = False
        again0, again1 = engine.prob01(chain, ones, goal)
        assert not again0.all()
        assert again1.any()


class TestBackendAgreement:
    """All five backends agree to 1e-8 on until and reward properties."""

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    @pytest.mark.parametrize(
        "chain_fixture", ["viterbi_chain", "mimo_1x2_chain"]
    )
    def test_unbounded_until_agreement(self, method, chain_fixture, request):
        chain = request.getfixturevalue(chain_fixture)
        prop = "P=? [ zone U flag ]"
        reference_engine = Engine("direct")
        reference = check(chain, prop, engine=reference_engine).vector
        # Non-vacuous: the property requires an actual linear solve.
        assert reference_engine.stats.solves >= 1
        result = check(chain, prop, config=method).vector
        assert np.allclose(result, reference, atol=AGREEMENT_TOLERANCE)

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    @pytest.mark.parametrize(
        "chain_fixture", ["viterbi_chain", "mimo_1x2_chain"]
    )
    def test_reachability_reward_agreement(self, method, chain_fixture, request):
        chain = request.getfixturevalue(chain_fixture)
        prop = "R=? [ F flag ]"
        reference_engine = Engine("direct")
        reference = check(chain, prop, engine=reference_engine).vector
        assert reference_engine.stats.solves >= 1
        result = check(chain, prop, config=method).vector
        assert np.isfinite(reference).all()
        assert np.allclose(result, reference, atol=AGREEMENT_TOLERANCE)

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_reducible_until_agreement(self, method):
        chain = reducible_chain()
        result = check(chain, "P=? [ F goal ]", config=method)
        # Exact value: from s0, P(F goal) = 0.4/(0.8) via s1's certainty.
        assert result.value == pytest.approx(0.5, abs=AGREEMENT_TOLERANCE)
        reference = check(chain, "P=? [ F goal ]", config="direct").vector
        assert np.allclose(result.vector, reference, atol=AGREEMENT_TOLERANCE)

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_reducible_reward_agreement(self, method):
        chain = reducible_chain()
        prop = 'R{"step"}=? [ F goal ]'
        reference = check(chain, prop, config="direct").vector
        result = check(chain, prop, config=method).vector
        # Trap-bound states carry infinite expected reward on every
        # backend (the Prob0/Prob1 structure is backend-independent).
        assert (np.isinf(result) == np.isinf(reference)).all()
        finite = np.isfinite(reference)
        assert finite.sum() == 2  # s1 and goal
        assert np.allclose(
            result[finite], reference[finite], atol=AGREEMENT_TOLERANCE
        )

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_reward_is_infinite_next_to_probability_one(self, method):
        """Finiteness comes from the graph Prob1 set of ``F goal``, not
        from the solved reach probability: a 1e-15 leak is a leak."""
        values = [
            check(leak_chain(leak), "R=? [ F goal ]", config=method).value
            for leak in (1e-9, 1e-11, 1e-13, 1e-15)
        ]
        assert values == [np.inf] * 4
        assert check(leak_chain(0.0), "R=? [ F goal ]", config=method).value == 1.0

    def test_gauss_seidel_reward_on_a_long_chain(self):
        """Slowly draining: thousands of sweeps over 2000 states."""
        from repro import zoo

        chain = zoo.build("birth-death", {"n": 2000}, reduce=False).chain
        start = time.perf_counter()
        swept = check(chain, "R=? [ F goal ]", config="gauss-seidel").value
        assert time.perf_counter() - start < 10.0
        exact = check(chain, "R=? [ F goal ]", config="lu").value
        assert swept == pytest.approx(exact, rel=1e-9)

    def test_reducible_prob01_structure(self):
        chain = reducible_chain()
        engine = Engine()
        n = chain.num_states
        prob0, prob1 = engine.prob01(
            chain, np.ones(n, dtype=bool), chain.label_vector("goal")
        )
        names = chain.states
        assert {names[i] for i in np.nonzero(prob0)[0]} == {"s2", "trap"}
        assert {names[i] for i in np.nonzero(prob1)[0]} == {"s1", "goal"}


class TestEngineCaching:
    def test_lu_reused_across_rhs(self, viterbi_chain):
        engine = Engine("lu")
        checker = ModelChecker(viterbi_chain, engine=engine)
        checker.check("R=? [ F flag ]")
        lu_after_first = engine.stats.lu_factorizations
        # A different property over the same target set reuses the
        # cached factorization (and the cached Prob0/Prob1 sets).
        checker.check("R=? [ F flag ]")
        assert engine.stats.lu_factorizations == lu_after_first
        assert engine.stats.cache_hits > 0

    def test_one_factorization_per_target_set(self, viterbi_chain):
        """The acceptance criterion: >=4 metrics, at most one LU and one
        Prob0/Prob1 precomputation per (chain, target-set)."""
        engine = Engine("lu")
        analyzer = PerformanceAnalyzer(
            viterbi_chain, name="viterbi-reduced", engine=engine
        )
        guarantees = analyzer.check_many(
            [
                best_case_error(50),        # P1: bounded, no solve
                average_case_error(50),     # P2: transient, no solve
                steady_state_ber(),         # BER: long-run structure
                "P=? [ !flag U flag ]",     # until solve, target set A
                "R=? [ F flag ]",           # reward solve, target set B
                "S=? [ flag ]",             # repeat of the BER structure
            ]
        )
        assert len(guarantees) == 6
        stats = analyzer.engine.stats
        # Two distinct subsystems were solved (the until unknown set and
        # the reward solve set) -> at most one factorization each.
        assert stats.lu_factorizations <= 2
        assert stats.prob01_computations <= 2
        # BSCC / stationary structure computed once, reused by the
        # second steady-state query.
        assert stats.long_run_computations == 1
        assert stats.long_run_cache_hits >= 1

    def test_identical_property_hits_solution_cache(self, viterbi_chain):
        engine = Engine()
        checker = ModelChecker(viterbi_chain, engine=engine)
        first = checker.check("P=? [ !flag U flag ]")
        hits_before = engine.stats.solution_cache_hits
        second = checker.check("P=? [ !flag U flag ]")
        assert engine.stats.solution_cache_hits > hits_before
        assert first.value == second.value

    def test_guarantee_provenance(self, viterbi_chain):
        analyzer = PerformanceAnalyzer(viterbi_chain, solver="lu")
        first = analyzer.check("R=? [ F flag ]")
        second = analyzer.check("R=? [ F flag ]")
        assert first.backend == "lu"
        assert second.cache_hits > 0
        assert "lu engine" in str(second)

    def test_cache_evicted_when_chain_collected(self):
        engine = Engine()
        chain = reducible_chain()
        check(chain, "P=? [ F goal ]", engine=engine)
        assert len(engine._chains) == 1
        del chain
        gc.collect()
        assert len(engine._chains) == 0

    def test_clear_resets_caches(self, viterbi_chain):
        engine = Engine("lu")
        checker = ModelChecker(viterbi_chain, engine=engine)
        checker.check("R=? [ F flag ]")
        factorizations = engine.stats.lu_factorizations
        engine.clear()
        checker.check("R=? [ F flag ]")
        assert engine.stats.lu_factorizations == 2 * factorizations

    def test_transient_matvec_accounting(self, viterbi_chain):
        engine = Engine()
        checker = ModelChecker(viterbi_chain, engine=engine)
        checker.check("R=? [ I=25 ]")
        assert engine.stats.matvecs >= 25

    def test_engines_do_not_share_state(self, viterbi_chain):
        one, two = Engine(), Engine()
        ModelChecker(viterbi_chain, engine=one).check("R=? [ F flag ]")
        assert one.stats.lu_factorizations == 1
        assert two.stats.lu_factorizations == 0


class TestReducibleStationaryGuard:
    def test_upfront_rejection_unchanged(self):
        with pytest.raises(ValueError, match="irreducible"):
            stationary_distribution(reducible_chain())

    def test_reducible_chain_raises_instead_of_silent_fallback(self):
        """A reducible chain whose direct solve fails must raise, not
        quietly return a start-state-dependent power-iteration result."""
        chain = dtmc_from_dict(
            {"a": {"a": 1.0}, "b": {"b": 1.0}}, initial="a"
        )
        with pytest.raises(ReducibleChainError, match="no unique stationary"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # expected MatrixRankWarning
                stationary_distribution(chain, assume_irreducible=True)

    def test_assume_irreducible_skips_tarjan_but_solves(self):
        chain = dtmc_from_dict(
            {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.3, "b": 0.7}},
            initial="a",
        )
        pi = stationary_distribution(chain, assume_irreducible=True)
        assert pi == pytest.approx(
            stationary_distribution(chain), abs=1e-12
        )

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_steady_state_agreement_across_backends(self, method):
        chain = dtmc_from_dict(
            {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.3, "b": 0.7}},
            initial="a",
            labels={"up": ["a"]},
        )
        value = check(chain, "S=? [ up ]", config=method).value
        assert value == pytest.approx(0.375, abs=AGREEMENT_TOLERANCE)

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_periodic_chain_steady_state_all_backends(self, method):
        """Iterative backends must converge on periodic irreducible
        chains too (damped/lazy iteration), matching the direct Cesàro
        limit instead of oscillating until the iteration cap."""
        chain = dtmc_from_dict(
            {
                "a": {"b": 1.0},
                "b": {"a": 0.5, "c": 0.5},
                "c": {"b": 1.0},
            },
            initial="a",
            labels={"mid": ["b"]},
        )
        value = check(chain, "S=? [ mid ]", config=method).value
        assert value == pytest.approx(0.5, abs=AGREEMENT_TOLERANCE)


class TestStationaryPath:
    """EngineStats and Guarantee provenance say which path produced a
    steady-state value: the certified iterate or the factorisation."""

    def test_fast_mixing_chain_takes_the_certified_iterate(self, viterbi_chain):
        engine = Engine()
        check(viterbi_chain, "S=? [ flag ]", engine=engine)
        stats = engine.stats
        assert (stats.stationary_iterated, stats.stationary_factorised) == (1, 0)
        assert stats.stationary_iterations > 0
        assert 0.0 <= stats.stationary_max_error <= engine.config.tolerance
        assert "1 iterated/0 factorised" in engine.describe()

    def test_slow_chain_gives_up_after_the_probe_and_factorises(self):
        from repro import zoo
        from repro.dtmc.steady_state import PROBE_ITERATIONS

        chain = zoo.build("birth-death", {"n": 16}, reduce=False).chain
        engine = Engine()
        value = check(chain, "S=? [ goal ]", engine=engine).value
        stats = engine.stats
        assert (stats.stationary_iterated, stats.stationary_factorised) == (0, 1)
        assert stats.stationary_iterations == PROBE_ITERATIONS
        assert value == pytest.approx(
            check(chain, "S=? [ goal ]", config="direct").value, abs=1e-12
        )

    @pytest.mark.parametrize("method, iterated", [("direct", 0), ("power", 1)])
    def test_explicit_methods_keep_their_meaning(self, viterbi_chain, method, iterated):
        engine = Engine(method)
        check(viterbi_chain, "S=? [ flag ]", engine=engine)
        assert engine.stats.stationary_iterated == iterated
        assert engine.stats.stationary_factorised == 1 - iterated

    def test_guarantee_records_the_stationary_path(self, viterbi_chain):
        analyzer = PerformanceAnalyzer(viterbi_chain, name="viterbi-reduced")
        ber = analyzer.check("S=? [ flag ]")
        assert ber.stationary.startswith("1 iterated (")
        assert "stationary 1 iterated" in str(ber)
        assert analyzer.check("S=? [ flag ]").stationary == ""  # cache hit
        assert analyzer.check("P=? [ F<=5 flag ]").stationary == ""
