"""Tests for the vectorized SMC layer: alias sampling, fused batch
trials, batch-aware APMC/SPRT, and the engine/sweep integration."""

import numpy as np
import pytest

from repro.core.analyzer import PerformanceAnalyzer
from repro.dtmc import PathSampler
from repro.engine import Engine, SmcConfig, sweep_check
from repro.mimo import MimoSystemConfig, build_detector_model
from repro.pctl import check
from repro.smc import (
    as_batch_trial,
    is_batch_trial,
    make_batch_trial,
    make_path_trial,
    smc_decide,
    smc_estimate,
    sprt_decide,
)
from repro.viterbi import ViterbiModelConfig, build_reduced_model

from helpers import gamblers_ruin, knuth_yao_die, two_state_chain


def _die(point):
    """A picklable sweep builder: the die at every point."""
    return knuth_yao_die()


@pytest.fixture(scope="module")
def viterbi_chain():
    return build_reduced_model(ViterbiModelConfig()).chain


@pytest.fixture(scope="module")
def mimo_chain():
    return build_detector_model(MimoSystemConfig(num_rx=2, snr_db=8.0)).chain


class TestBatchedSampling:
    def test_seed_for_seed_determinism(self):
        sampler = PathSampler(knuth_yao_die())
        a = sampler.paths(50, 8, rng=np.random.default_rng(3))
        b = sampler.paths(50, 8, rng=np.random.default_rng(3))
        assert (a == b).all()

    def test_batched_paths_match_sequential_scalar(self):
        """Row i of paths() is the i-th sequential path() on one rng."""
        sampler = PathSampler(knuth_yao_die())
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        sequential = np.stack([sampler.path(9, rng=r1) for _ in range(40)])
        batched = sampler.paths(40, 9, rng=r2)
        assert (sequential == batched).all()

    def test_batched_paths_with_starts(self):
        sampler = PathSampler(two_state_chain())
        starts = np.array([0, 1, 0, 1], dtype=np.int64)
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        sequential = np.stack(
            [sampler.path(6, start=int(s), rng=r1) for s in starts]
        )
        batched = sampler.paths(4, 6, rng=r2, starts=starts)
        assert (sequential == batched).all()

    def test_advance_respects_support(self):
        chain = knuth_yao_die()
        sampler = PathSampler(chain, np.random.default_rng(2))
        states = sampler.sample_initials(500)
        nxt = sampler.steps(states)
        for a, b in zip(states, nxt):
            assert chain.transition_probability(int(a), int(b)) > 0

    def test_alias_marginals_match_rows(self):
        chain = two_state_chain(p=0.3, q=0.6)
        sampler = PathSampler(chain, np.random.default_rng(9))
        nxt = sampler.steps(np.zeros(40_000, dtype=np.int64))
        assert np.mean(nxt == 1) == pytest.approx(0.3, abs=0.01)


class TestBatchTrialAgreement:
    PROPS = [
        "P=? [ F<=3 done ]",
        "P=? [ G<=4 !done ]",
        "P=? [ !six U<=6 done ]",
        "P=? [ !six W<=6 done ]",
        "P=? [ X !done ]",
    ]

    @pytest.mark.parametrize("prop", PROPS)
    def test_batched_equals_scalar_outcomes(self, prop):
        """Bit-for-bit: a batch of n trials is the same Bernoulli
        sequence n sequential scalar trials draw from the same seed."""
        chain = knuth_yao_die()
        scalar = make_path_trial(chain, prop)
        batched = make_batch_trial(chain, prop)
        r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
        sequential = np.array([scalar(r1) for _ in range(600)])
        assert (sequential == batched(r2, 600)).all()

    def test_estimates_identical_per_seed(self):
        chain = knuth_yao_die()
        prop = "P=? [ F<=3 done ]"
        scalar = smc_estimate(chain, prop, epsilon=0.05, seed=4, batched=False)
        batched = smc_estimate(chain, prop, epsilon=0.05, seed=4, batched=True)
        assert scalar.estimate == batched.estimate
        assert scalar.samples == batched.samples

    def test_scalar_trial_does_not_mutate_shared_sampler(self):
        """The PR-1 sweep-runner hazard: trials must not assign onto a
        shared sampler's rng."""
        chain = knuth_yao_die()
        sampler = PathSampler(chain, np.random.default_rng(0))
        trial = make_path_trial(chain, "P=? [ F<=3 done ]", sampler=sampler)
        before = sampler.rng
        trial(np.random.default_rng(1))
        assert sampler.rng is before

    def test_trial_protocol_detection(self):
        assert not is_batch_trial(lambda rng: True)
        assert is_batch_trial(lambda rng, n: np.ones(n, bool))
        assert is_batch_trial(make_batch_trial(knuth_yao_die(), "P=? [ X done ]"))
        adapted = as_batch_trial(lambda rng: rng.random() < 0.5)
        assert is_batch_trial(adapted)
        out = adapted(np.random.default_rng(0), 16)
        assert out.shape == (16,) and out.dtype == bool


class TestExactVsBatchedSmc:
    def test_viterbi_bounded_until_within_hoeffding(self, viterbi_chain):
        prop = "P=? [ !flag U<=50 flag ]"
        exact = check(viterbi_chain, prop).value
        result = smc_estimate(viterbi_chain, prop, epsilon=0.02, delta=0.01, seed=1)
        assert abs(result.estimate - exact) <= 0.02

    def test_mimo_bounded_eventually_within_hoeffding(self, mimo_chain):
        prop = "P=? [ F<=10 flag ]"
        exact = check(mimo_chain, prop).value
        result = smc_estimate(mimo_chain, prop, epsilon=0.02, delta=0.01, seed=2)
        assert abs(result.estimate - exact) <= 0.02

    def test_viterbi_decide_agrees_with_exact(self, viterbi_chain):
        prop = "P=? [ !flag U<=50 flag ]"
        exact = check(viterbi_chain, prop).value  # ~0.866
        verdict = smc_decide(
            viterbi_chain, prop, theta=exact - 0.1, half_width=0.03, seed=3
        )
        assert verdict.accept
        verdict = smc_decide(
            viterbi_chain, prop, theta=exact + 0.1, half_width=0.03, seed=3
        )
        assert not verdict.accept

    def test_sprt_stopping_sample_exact_vs_scalar(self, viterbi_chain):
        """The chunked SPRT stops on the same data-dependent sample as
        the scalar run for the same seed."""
        prop = "P=? [ !flag U<=50 flag ]"
        for theta, seed in [(0.3, 0), (0.6, 1), (0.45, 2)]:
            scalar = smc_decide(
                viterbi_chain, prop, theta=theta, half_width=0.05,
                seed=seed, batched=False,
            )
            chunked = smc_decide(
                viterbi_chain, prop, theta=theta, half_width=0.05,
                seed=seed, batched=True,
            )
            assert scalar.accept == chunked.accept
            assert scalar.samples == chunked.samples

    def test_sprt_chunked_scalar_parity_on_raw_trials(self):
        """Same parity holds for plain Bernoulli trials through the
        scalar-vs-batched protocol (identical outcome sequences)."""
        outcomes = np.random.default_rng(42).random(5000) < 0.62

        def scalar_factory():
            it = iter(outcomes)
            return lambda rng: bool(next(it))

        def batched(rng, n, _pos=[0]):
            start = _pos[0]
            _pos[0] += n
            return outcomes[start : start + n]

        batched.is_batch = True
        a = sprt_decide(scalar_factory(), theta=0.5, half_width=0.05, seed=0)
        b = sprt_decide(batched, theta=0.5, half_width=0.05, seed=0)
        assert (a.accept, a.samples) == (b.accept, b.samples)


class TestEarlyTermination:
    def test_absorbing_goal_stops_walk_early(self):
        chain = gamblers_ruin(4)
        trial = make_batch_trial(chain, "P=? [ F<=200 ruin ]")
        outcomes = trial(np.random.default_rng(0), 4000)
        exact = check(chain, "P=? [ F<=200 ruin ]").value
        assert trial.last_walk_steps < 200  # all walkers absorbed early
        assert abs(outcomes.mean() - exact) < 0.03

    def test_early_termination_matches_scalar(self):
        chain = gamblers_ruin(6)
        for prop in [
            "P=? [ F<=100 ruin ]",
            "P=? [ G<=100 !win ]",
            "P=? [ !win W<=100 ruin ]",
        ]:
            scalar = make_path_trial(chain, prop)
            batched = make_batch_trial(chain, prop)
            r1, r2 = np.random.default_rng(8), np.random.default_rng(8)
            sequential = np.array([scalar(r1) for _ in range(400)])
            assert (sequential == batched(r2, 400)).all(), prop
            assert batched.last_walk_steps < 100


class TestEngineAndSweepIntegration:
    def test_engine_caches_alias_tables(self):
        chain = knuth_yao_die()
        engine = Engine()
        first = engine.path_sampler(chain)
        again = engine.path_sampler(chain)
        assert first is again
        assert engine.stats.sampler_builds == 1
        assert engine.stats.sampler_cache_hits == 1
        assert engine.stats.cache_hits >= 1

    def test_analyzer_statistical_guarantee_provenance(self):
        analyzer = PerformanceAnalyzer(knuth_yao_die(), "die")
        guarantee = analyzer.check(
            "P=? [ F<=3 done ]", backend="apmc",
            smc=SmcConfig(epsilon=0.02, delta=0.05),
        )
        assert guarantee.backend == "apmc"
        assert guarantee.samples > 0
        assert not guarantee.is_exact
        assert abs(guarantee.value - 0.75) <= 0.02
        decision = analyzer.check("P=? [ F<=3 done ]", backend="sprt", theta=0.6)
        assert decision.backend == "sprt"
        assert decision.value == 1.0
        # Both checks shared one alias-table build through the engine.
        assert analyzer.engine.stats.sampler_builds == 1
        assert "samples" in str(guarantee)

    def test_analyzer_rejects_bad_backend_arguments(self):
        analyzer = PerformanceAnalyzer(knuth_yao_die(), "die")
        with pytest.raises(ValueError, match="exact, apmc, sprt"):
            analyzer.check("P=? [ F<=3 done ]", backend="psychic")
        with pytest.raises(ValueError, match="theta"):
            analyzer.check("P=? [ F<=3 done ]", backend="sprt")
        assert analyzer.history == []

    def test_exact_guarantee_reports_exact(self):
        analyzer = PerformanceAnalyzer(knuth_yao_die(), "die")
        guarantee = analyzer.check("P=? [ F<=3 done ]")
        assert guarantee.is_exact and guarantee.samples == 0

    @pytest.mark.parametrize("executor", ["serial"])
    def test_sweep_check_backends(self, executor):
        points = [{"i": 0}, {"i": 1}, {"i": 2}]
        exact = sweep_check(
            lambda p: knuth_yao_die(), points, "P=? [ F<=3 done ]",
            backend="exact", executor=executor,
        )
        assert [r.value for r in exact] == [0.75, 0.75, 0.75]
        assert [r.point for r in exact] == points
        apmc = sweep_check(
            lambda p: knuth_yao_die(), points, "P=? [ F<=3 done ]",
            backend="apmc", smc=SmcConfig(epsilon=0.03, delta=0.05),
            executor=executor,
        )
        for result in apmc:
            assert result.ok
            assert abs(result.value.estimate - 0.75) <= 0.03
        sprt = sweep_check(
            lambda p: knuth_yao_die(), points, "P=? [ F<=3 done ]",
            backend="sprt", theta=0.6, executor=executor,
        )
        assert all(r.value.accept for r in sprt)

    def test_sweep_check_is_executor_independent(self):
        points = [{"i": i} for i in range(4)]
        serial = sweep_check(
            _die, points, "P=? [ F<=3 done ]",
            backend="apmc", smc=SmcConfig(epsilon=0.05), executor="serial",
        )
        process = sweep_check(
            _die, points, "P=? [ F<=3 done ]",
            backend="apmc", smc=SmcConfig(epsilon=0.05), executor="process",
        )
        assert [r.value.estimate for r in serial] == [
            r.value.estimate for r in process
        ]

    def test_sweep_check_validation(self):
        with pytest.raises(ValueError, match="backend"):
            sweep_check(lambda p: knuth_yao_die(), [{}], "P=? [ X done ]",
                        backend="montecarlo")
        with pytest.raises(ValueError, match="theta"):
            sweep_check(lambda p: knuth_yao_die(), [{}], "P=? [ X done ]",
                        backend="sprt")

    def test_smc_config_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            SmcConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="batch"):
            SmcConfig(batch=0)
