"""Tests for the scenario model zoo: registry, pipeline, sweeps, CLI.

The reduction-pipeline coverage here is the zoo's soundness story:
every registered family must build at its defaults, the reduced chain
must be *provably* bisimilar to the full chain wherever the full chain
is buildable, and the statistical backends must agree with the exact
engine within their Hoeffding guarantee.
"""

import importlib

import numpy as np
import pytest

from repro import check, zoo
from repro.engine import EXECUTORS, Engine, SmcConfig
from repro.pctl import parse_formula
from repro.store import ResultStore
from repro.zoo import (
    BuiltScenario,
    FamilyBuild,
    ModelFamily,
    ReductionSoundnessError,
    UnknownFamilyError,
    ZooError,
)
from repro.zoo import pipeline
from repro.zoo.cli import main as zoo_main
from repro.zoo.families import BUILTIN_FAMILIES

from helpers import count_parses


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_all_builtins_registered(self):
        names = [f.name for f in zoo.list_models()]
        assert len(names) >= 5
        for name in BUILTIN_FAMILIES:
            assert name in names

    def test_get_model_unknown_name(self):
        with pytest.raises(UnknownFamilyError, match="mimo-1xN"):
            zoo.get_model("no-such-family")

    def test_tag_filter(self):
        mimo = [f.name for f in zoo.list_models(tag="mimo")]
        assert mimo == ["mimo-1xN", "mimo-NRx2"]
        synth = [f.name for f in zoo.list_models(tag="synthetic")]
        assert set(synth) == {"birth-death", "random-sparse"}

    def test_duplicate_registration_rejected(self):
        family = ModelFamily(
            name="birth-death", builder=lambda params: None
        )
        with pytest.raises(ZooError, match="already registered"):
            zoo.register_model(family)

    def test_register_replace_and_unregister(self):
        family = ModelFamily(
            name="test-temp-family",
            builder=lambda params: None,
            defaults={"x": 1},
        )
        try:
            zoo.register_model(family)
            zoo.register_model(family, replace=True)
            assert zoo.get_model("test-temp-family").defaults == {"x": 1}
        finally:
            zoo.unregister_model("test-temp-family")
        with pytest.raises(UnknownFamilyError):
            zoo.get_model("test-temp-family")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ZooError, match="unknown parameter"):
            zoo.build("mimo-1xN", {"antennas": 3})


# ----------------------------------------------------------------------
# Pipeline: every family builds with full provenance
# ----------------------------------------------------------------------

EXPECTED_REDUCTIONS = {
    "mimo-1xN": "symmetry",
    "mimo-NRx2": "symmetry",
    "viterbi-memory-m": "abstraction",
    "viterbi-errcnt": "abstraction",
    "viterbi-convergence": "none",
    "birth-death": "lumping",
    "random-sparse": "lumping",
}


class TestPipeline:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_every_family_builds_at_defaults(self, name):
        scenario = zoo.build(name)
        assert isinstance(scenario, BuiltScenario)
        assert scenario.family == name
        assert scenario.chain.num_states == scenario.reduced_states > 0
        assert scenario.reduction == EXPECTED_REDUCTIONS[name]
        assert scenario.build_seconds >= 0.0
        assert scenario.reduce_seconds >= 0.0
        if scenario.full_states is not None:
            assert scenario.reduced_states <= scenario.full_states
        # The default property checks on the built chain.
        value = check(scenario.chain, scenario.default_property).value
        assert 0.0 <= float(value) <= 1.0

    @pytest.mark.parametrize(
        "name,params",
        [
            ("mimo-1xN", None),
            ("mimo-NRx2", {"num_rx": 1}),
            ("viterbi-memory-m", None),
            ("viterbi-errcnt", None),
            ("viterbi-convergence", {"traceback_length": 3, "num_levels": 3}),
            ("birth-death", {"n": 12}),
            ("random-sparse", None),
        ],
    )
    def test_reduced_bisimilar_to_full_at_small_params(self, name, params):
        """The zoo's soundness bar: are_bisimilar() on every family."""
        scenario = zoo.build(name, params, verify=True)
        assert scenario.verified is True
        assert scenario.full_chain is not None

    def test_random_sparse_lumps_to_block_graph(self):
        scenario = zoo.build("random-sparse")
        assert scenario.full_states == 64
        # Strongly lumpable by construction: quotient = block graph.
        assert scenario.reduced_states == 8
        assert scenario.reduction == "lumping"
        assert scenario.reduce_seconds > 0.0

    def test_full_build_limit_covers_lumping_scale(self):
        # The vectorized reduction engine handles 10^5+-state fallbacks;
        # the pipeline's full-model ceiling must not regress below that.
        assert pipeline.FULL_BUILD_LIMIT >= 500_000

    def test_large_random_sparse_through_lumping_fallback(self):
        # 20k states through build + refine + verified quotient — the
        # (scaled-down) shape of the CI smoke's 10^5-state scenario.
        scenario = zoo.build(
            "random-sparse", {"n": 20_000, "num_blocks": 1000, "degree": 3}
        )
        assert scenario.reduction == "lumping"
        assert scenario.reduced_states == 1000
        assert scenario.extra["refine_final_blocks"] == 1000

    def test_mimo_reduction_factor_and_counts(self):
        scenario = zoo.build("mimo-1xN", keep_full=True)
        assert scenario.full_chain is not None
        assert scenario.full_states == scenario.full_chain.num_states == 2592
        assert scenario.reduction_factor == pytest.approx(
            2592 / scenario.reduced_states
        )

    def test_no_reduce_builds_full_model(self):
        full = zoo.build("mimo-1xN", reduce=False)
        reduced = zoo.build("mimo-1xN")
        assert full.chain.num_states == 2592
        assert full.reduction == "none"
        # Same property, same answer, on both chains.
        prop = "P=? [ F<=10 flag ]"
        assert check(full.chain, prop).value == pytest.approx(
            check(reduced.chain, prop).value, abs=1e-10
        )

    def test_full_model_too_large_raises(self):
        # 1x4 detector: full support is ~3.4M states — counted, never built.
        scenario = zoo.build("mimo-1xN", {"num_rx": 4})
        assert scenario.full_states > 1_000_000
        with pytest.raises(ZooError, match="cannot build its full model"):
            zoo.build("mimo-1xN", {"num_rx": 4}, verify=True)

    def test_engine_registration(self):
        engine = Engine()
        scenario = zoo.build("birth-death", engine=engine)
        assert engine.num_registered_chains == 1
        # The registered chain's caches are shared by later checks.
        check(scenario.chain, "P=? [ F goal ]", engine=engine)
        assert engine.stats.prob01_computations >= 1
        assert engine.num_registered_chains == 1  # same chain, same slot

    def test_verify_failure_raises_soundness_error(self):
        from repro.dtmc import dtmc_from_dict

        fair = dtmc_from_dict(
            {"a": {"a": 0.5, "b": 0.5}, "b": {"b": 1.0}},
            initial="a",
            labels={"flag": ["b"]},
        )
        biased = dtmc_from_dict(
            {"a": {"a": 0.1, "b": 0.9}, "b": {"b": 1.0}},
            initial="a",
            labels={"flag": ["b"]},
        )

        def _builder(params):
            return FamilyBuild(
                build_reduced=lambda: _wrap(biased),
                build_full=lambda: _wrap(fair),
                reduction="abstraction",
                respect=("flag",),
            )

        def _wrap(chain):
            from repro.dtmc.builder import ExplorationResult

            return ExplorationResult(
                chain=chain, states=list(chain.states), index={}, bfs_levels=0
            )

        zoo.register_model(
            ModelFamily(name="test-broken-reduction", builder=_builder)
        )
        try:
            with pytest.raises(ReductionSoundnessError, match="NOT bisimilar"):
                zoo.build("test-broken-reduction", verify=True)
            # Without verification the (unsound) build goes through.
            assert zoo.build("test-broken-reduction").verified is None
        finally:
            zoo.unregister_model("test-broken-reduction")

    def test_viterbi_memory2_falls_back_to_lumping(self):
        scenario = zoo.build(
            "viterbi-memory-m",
            {"taps": (1.0, 0.5, 0.5), "memory": 2, "traceback_length": 3},
        )
        assert scenario.reduction == "lumping"
        assert scenario.reduced_states <= scenario.full_states


VITERBI_M2 = {"taps": (1.0, 0.5, 0.5), "memory": 2, "traceback_length": 3}


class TestLumpDecision:
    """The lumping fallback lumps only where lumping costs less than
    the exact check it serves."""

    def test_short_bounded_check_runs_on_the_full_chain(self):
        scenario = zoo.build(
            "random-sparse", {"n": 64}, formula="P=? [ F<=30 goal ]"
        )
        assert scenario.reduction == "none"
        assert scenario.extra == {"lumping": "skipped: 30 steps < 64"}
        assert scenario.chain is scenario.full_chain
        assert scenario.reduced_states == scenario.full_states == 64
        assert scenario.reduce_seconds == 0.0
        assert "lumping skipped: 30 steps < 64" in scenario.describe()

    def test_parsed_tree_decides_like_its_text(self):
        tree = parse_formula("P=? [ (P>0.5 [ X goal ]) U<=40 goal ]")
        scenario = zoo.build("random-sparse", {"n": 64}, formula=tree)
        assert scenario.extra["lumping"] == "skipped: 41 steps < 64"

    @pytest.mark.parametrize(
        "formula",
        [
            "P=? [ F<=64 goal ]",
            "P=? [ F goal ]",
            "S=? [ goal ]",
            "R=? [ F goal ]",
            "P=? [ F<=10 (P>0.5 [ true U goal ]) ]",
            None,
        ],
    )
    def test_long_or_unbounded_checks_lump(self, formula):
        scenario = zoo.build("random-sparse", {"n": 64}, formula=formula)
        assert scenario.reduction == "lumping"
        assert scenario.reduced_states == 8
        assert "lumping" not in scenario.extra
        assert scenario.extra["refine_final_blocks"] == 8

    def test_verify_always_lumps(self):
        scenario = zoo.build(
            "random-sparse", {"n": 64}, verify=True, formula="P=? [ F<=30 goal ]"
        )
        assert scenario.reduction == "lumping"
        assert scenario.verified is True
        assert scenario.reduced_states == 8

    def test_designed_reductions_ignore_the_formula(self):
        scenario = zoo.build("mimo-1xN", formula="P=? [ F<=10 flag ]")
        assert scenario.reduction == "symmetry"
        assert "lumping" not in scenario.extra

    @pytest.mark.parametrize(
        "backend, reduce, lumped",
        [
            ("exact", True, False),
            ("apmc", True, True),
            ("sprt", True, True),
            ("exact", False, False),
        ],
    )
    def test_point_builder_hands_the_formula_only_to_exact_reduced_points(
        self, backend, reduce, lumped
    ):
        from repro.zoo.sweep import point_builder

        tree = parse_formula("P=? [ F<=30 goal ]")
        builder = point_builder(
            "random-sparse", None, reduce=reduce, backend=backend, tree=tree
        )
        assert ("formula" in builder.keywords) == (reduce and backend == "exact")
        assert builder({"n": 64}).num_states == (8 if lumped else 64)

    @pytest.mark.parametrize(
        "family, params, label",
        [
            ("random-sparse", {"n": n, "seed": seed}, "goal")
            for n in (64, 256)
            for seed in (0, 1, 2)
        ] + [("viterbi-memory-m", VITERBI_M2, "flag")],
    )
    @pytest.mark.parametrize(
        "template", ["P=? [ F<=64 {} ]", "P=? [ F {} ]", "S=? [ {} ]"]
    )
    def test_lumped_equals_full(self, family, params, label, template):
        formula = template.format(label)
        lumped = zoo.build(family, params, formula=formula)
        full = zoo.build(family, params, reduce=False)
        assert lumped.reduction == "lumping"
        assert lumped.reduced_states < full.reduced_states
        assert check(lumped.chain, formula).value == pytest.approx(
            check(full.chain, formula).value, rel=1e-9, abs=1e-9
        )


# ----------------------------------------------------------------------
# Exact vs statistical backends: the Hoeffding agreement bar
# ----------------------------------------------------------------------

class TestExactVsStatistical:
    EPSILON = 0.05
    DELTA = 0.1

    @pytest.mark.parametrize("family", ["mimo-1xN", "viterbi-memory-m"])
    def test_apmc_sweep_agrees_with_exact(self, family):
        smc = SmcConfig(epsilon=self.EPSILON, delta=self.DELTA, seed=0)
        exact = zoo.sweep(
            family, points=[{}], backend="exact", executor="serial"
        )
        apmc = zoo.sweep(
            family, points=[{}], backend="apmc", smc=smc, executor="serial"
        )
        assert exact[0].ok and apmc[0].ok
        estimate = apmc[0].value.estimate
        assert apmc[0].value.samples == apmc[0].value.samples
        assert abs(estimate - exact[0].value) <= self.EPSILON

    def test_sprt_sweep_decides_correctly(self):
        exact = zoo.sweep(
            "viterbi-memory-m", points=[{}], backend="exact",
            executor="serial",
        )[0].value
        for theta, expected in [(exact - 0.1, True), (exact + 0.1, False)]:
            result = zoo.sweep(
                "viterbi-memory-m", points=[{}], backend="sprt",
                theta=theta, executor="serial",
            )[0]
            assert result.ok
            assert result.value.accept is expected


# ----------------------------------------------------------------------
# Zoo sweeps
# ----------------------------------------------------------------------

class TestZooSweep:
    def test_exact_grid_sweep(self):
        results = zoo.sweep(
            "mimo-1xN",
            {"snr_db": [4.0, 8.0], "num_y_levels": [2, 3]},
            "P=? [ F<=10 flag ]",
            executor="serial",
        )
        assert len(results) == 4
        assert all(r.ok for r in results)
        assert results[0].point == {"snr_db": 4.0, "num_y_levels": 2}
        # Higher SNR -> lower error probability at equal quantization.
        by_point = {tuple(sorted(r.point.items())): r.value for r in results}
        assert by_point[
            (("num_y_levels", 3), ("snr_db", 8.0))
        ] < by_point[(("num_y_levels", 3), ("snr_db", 4.0))]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_formula_parsed_once_per_sweep(self, executor, monkeypatch):
        parses = count_parses(monkeypatch)
        results = zoo.sweep(
            "birth-death", {"n": [4, 6, 8, 10]}, "P=? [ F<=20 goal ]",
            executor=executor,
        )
        assert all(r.ok for r in results)
        assert len(parses) == 1

    def test_base_params_fix_the_plane(self):
        results = zoo.sweep(
            "birth-death",
            {"n": [8, 12]},
            "P=? [ F<=50 goal ]",
            base_params={"p_up": 0.4},
            executor="serial",
        )
        assert all(r.ok for r in results)
        assert results[0].value > results[1].value  # smaller chain hits sooner

    def test_executor_independent_statistical_results(self):
        smc = SmcConfig(epsilon=0.05, delta=0.1, seed=7)
        kwargs = dict(
            axes={"snr_db": [4.0, 8.0]}, backend="apmc", smc=smc
        )
        serial = zoo.sweep("mimo-1xN", executor="serial", **kwargs)
        process = zoo.sweep("mimo-1xN", executor="process", **kwargs)
        assert [r.value.estimate for r in serial] == [
            r.value.estimate for r in process
        ]

    def test_axes_and_points_are_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            zoo.sweep("mimo-1xN", {"snr_db": [4.0]}, points=[{}])
        with pytest.raises(ValueError, match="exactly one"):
            zoo.sweep("mimo-1xN")

    def test_unknown_family_fails_fast(self):
        with pytest.raises(UnknownFamilyError):
            zoo.sweep("nope", {"x": [1]})

    def test_unknown_executor_fails_before_the_store(self, tmp_path):
        """The engine's executor check runs first: the message names
        every executor and no row reaches the store."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            calls = [
                lambda: zoo.sweep(
                    "birth-death", {"n": [8]}, executor="bogus", store=store
                ),
                lambda: zoo.survey(executor="bogus", store=store),
            ]
            for call in calls:
                with pytest.raises(ValueError) as exc:
                    call()
                for name in EXECUTORS:
                    assert name in str(exc.value)
            assert len(store) == 0

    def test_survey_whole_zoo(self):
        results = zoo.survey(executor="serial")
        assert set(results) >= set(BUILTIN_FAMILIES)
        assert all(r.ok for r in results.values())


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


class TestRequestsFailBeforeWork:
    """A request a sweep cannot run raises before any store read, build
    or fork, instead of coming back as one failed point per grid point."""

    @pytest.mark.parametrize("with_store", [False, True])
    @pytest.mark.parametrize(
        "points, kwargs, error, needle",
        [
            ([{"n": 8}, {"bogus": 1}], {}, ZooError, "unknown parameter"),
            ([{"n": 8}, {"n": "abc"}], {}, ZooError, "'n'"),
            ([{"n": 8}, {"n": 10}], {"backend": "sprt", "theta": 1.5},
             ValueError, "theta"),
        ],
    )
    def test_nothing_runs(
        self, tmp_path, monkeypatch, with_store, points, kwargs, error, needle
    ):
        engine_sweep = importlib.import_module("repro.engine.sweep")
        zoo_sweep = importlib.import_module("repro.zoo.sweep")
        calls = []
        for module, name in (
            (engine_sweep, "_check_point"),
            (engine_sweep, "_process_sweep"),
            (zoo_sweep, "build"),
        ):
            monkeypatch.setattr(
                module, name, _counting(calls, name, getattr(module, name))
            )
        with ResultStore(tmp_path / "s.sqlite") as store:
            for name in ("get_many", "put"):
                monkeypatch.setattr(
                    store, name, _counting(calls, name, getattr(store, name))
                )
            with pytest.raises(error, match=needle):
                zoo.sweep(
                    "birth-death", points=points, executor="process",
                    store=store if with_store else None, **kwargs,
                )
        assert calls == []

    def test_warm_statistical_sweep_builds_no_job(self, tmp_path, monkeypatch):
        engine_sweep = importlib.import_module("repro.engine.sweep")
        kwargs = dict(
            axes={"n": [4, 6, 8]}, backend="apmc",
            smc=SmcConfig(epsilon=0.1, delta=0.1, seed=3), executor="serial",
        )
        with ResultStore(tmp_path / "warm.sqlite") as store:
            cold = zoo.sweep("birth-death", store=store, **kwargs)
            jobs = []
            monkeypatch.setattr(
                engine_sweep, "check_job",
                _counting(jobs, "check_job", engine_sweep.check_job),
            )
            warm = zoo.sweep("birth-death", store=store, **kwargs)
        assert all(r.cached for r in warm)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert jobs == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_list(self, capsys):
        assert zoo_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_FAMILIES:
            assert name in out

    def test_list_tag_filter(self, capsys):
        assert zoo_main(["list", "--tag", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "birth-death" in out and "mimo-1xN" not in out

    def test_build_with_params_verify_and_check(self, capsys):
        code = zoo_main(
            [
                "build", "viterbi-memory-m",
                "-p", "snr_db=6.0",
                "--verify", "--check",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified=True" in out
        assert "abstraction" in out
        assert "snr_db=6.0" in out

    def test_build_unknown_family_exits_nonzero(self, capsys):
        assert zoo_main(["build", "no-such-family"]) == 2
        assert "no family named" in capsys.readouterr().err

    def test_sweep_exact(self, capsys):
        code = zoo_main(
            [
                "sweep", "birth-death",
                "-g", "n=8,12",
                "--executor", "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n=8" in out and "n=12" in out and "0 failed" in out

    def test_sweep_bad_formula_exits_two(self, capsys):
        code = zoo_main(
            ["sweep", "birth-death", "--formula", "P=? [ F<= goal",
             "--executor", "serial"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_text_for_a_number_exits_two(self, capsys):
        code = zoo_main(["sweep", "birth-death", "-p", "n=abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'n'" in err

    def test_sweep_sprt_without_theta_is_friendly(self, capsys):
        code = zoo_main(
            ["sweep", "viterbi-memory-m", "--backend", "sprt"]
        )
        assert code == 2
        assert "requires --theta" in capsys.readouterr().err

    def test_sweep_apmc(self, capsys):
        code = zoo_main(
            [
                "sweep", "mimo-1xN",
                "-g", "snr_db=8.0",
                "--backend", "apmc",
                "--epsilon", "0.05", "--delta", "0.1",
                "--executor", "serial",
            ]
        )
        assert code == 0
        assert "samples" in capsys.readouterr().out

    def test_survey(self, capsys):
        assert zoo_main(["survey", "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    @pytest.mark.parametrize("command", [
        ["sweep", "birth-death", "-g", "n=8"], ["survey", "--tag", "synthetic"],
    ])
    def test_remote_without_coordinator_exits_2(self, command, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_COORDINATOR", raising=False)
        assert zoo_main(command + ["--executor", "remote"]) == 2
        assert "--executor remote requires --connect" in capsys.readouterr().err

    def test_thread_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            zoo_main(["sweep", "birth-death", "-g", "n=8", "--executor", "thread"])
        assert exc.value.code == 2
        assert "remote" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_random_sparse_is_seed_deterministic(self):
        a = zoo.build("random-sparse", {"seed": 3})
        b = zoo.build("random-sparse", {"seed": 3})
        c = zoo.build("random-sparse", {"seed": 4})
        assert np.allclose(
            a.full_chain.transition_matrix.toarray()
            if a.full_chain is not None
            else a.chain.transition_matrix.toarray(),
            b.full_chain.transition_matrix.toarray()
            if b.full_chain is not None
            else b.chain.transition_matrix.toarray(),
        )
        assert a.chain.num_states == b.chain.num_states
        # Different seed, different chain (overwhelmingly likely).
        assert not np.allclose(
            a.chain.transition_matrix.toarray(),
            c.chain.transition_matrix.toarray(),
        )
