"""Benchmarks of the vectorized statistical model checking layer.

Tracks the three claims of the batched SMC design on the Viterbi
chain:

* batched (fused, alias-sampled) ``smc_estimate`` vs the scalar
  per-path baseline at the default APMC tolerance — the headline
  speedup (the acceptance bar is >= 20x; measured well above);
* scalar vs batched alias-sampled path generation;
* APMC end-to-end and the chunked SPRT, whose data-dependent stopping
  sample is asserted equal to the scalar run's (exactness is part of
  the contract, so the benchmark file enforces it too).

CI runs this file separately into ``BENCH_smc.json``.
"""

import time

import numpy as np
import pytest

from repro.dtmc import PathSampler
from repro.pctl import check
from repro.smc import smc_decide, smc_estimate
from repro.viterbi import ViterbiModelConfig, build_reduced_model

# The acceptance workload: default APMC tolerance, bounded until on the
# Viterbi chain (18 445 Hoeffding samples of 50-step path prefixes).
PROPERTY = "P=? [ !flag U<=50 flag ]"
EPSILON = 0.01
DELTA = 0.05

#: Wall-clock of each smc_estimate flavour, recorded by the benchmarks
#: below and asserted against the >= 20x bar at the end of the module.
_SECONDS = {}


@pytest.fixture(scope="module")
def viterbi_chain():
    return build_reduced_model(ViterbiModelConfig()).chain


def _timed(label, fn):
    def run():
        start = time.perf_counter()
        result = fn()
        _SECONDS[label] = min(
            _SECONDS.get(label, float("inf")), time.perf_counter() - start
        )
        return result

    return run


# ----------------------------------------------------------------------
# Path generation: scalar loop vs batched walk.
# ----------------------------------------------------------------------

def test_bench_paths_scalar_alias(benchmark, viterbi_chain):
    """2000 paths, one scalar alias-sampled path() call per path."""
    sampler = PathSampler(viterbi_chain)

    def scalar():
        rng = np.random.default_rng(0)
        return [sampler.path(50, rng=rng) for _ in range(2000)]

    paths = benchmark.pedantic(scalar, rounds=1, iterations=1)
    assert len(paths) == 2000


def test_bench_paths_batched_alias(benchmark, viterbi_chain):
    """Same 2000 paths in one vectorized paths() walk."""
    sampler = PathSampler(viterbi_chain)
    paths = benchmark(
        lambda: sampler.paths(2000, 50, rng=np.random.default_rng(0))
    )
    assert paths.shape == (2000, 51)


# ----------------------------------------------------------------------
# APMC end-to-end: the acceptance-criterion pair.
# ----------------------------------------------------------------------

def test_bench_smc_estimate_scalar_baseline(benchmark, viterbi_chain):
    """Per-path scalar trials at the default tolerance (18 445 paths)."""
    result = benchmark.pedantic(
        _timed(
            "scalar",
            lambda: smc_estimate(
                viterbi_chain, PROPERTY,
                epsilon=EPSILON, delta=DELTA, seed=0, batched=False,
            ),
        ),
        rounds=1,
        iterations=1,
    )
    assert result.samples == 18445


def test_bench_smc_estimate_batched(benchmark, viterbi_chain):
    """Fused batched trials on the same workload and seed."""
    result = benchmark(
        _timed(
            "batched",
            lambda: smc_estimate(
                viterbi_chain, PROPERTY,
                epsilon=EPSILON, delta=DELTA, seed=0, batched=True,
            ),
        )
    )
    assert result.samples == 18445
    exact = check(viterbi_chain, PROPERTY).value
    assert abs(result.estimate - exact) <= EPSILON


def test_smc_estimate_speedup_at_least_20x(benchmark, viterbi_chain):
    """The acceptance bar: batched >= 20x scalar, identical estimates.

    Reported as a benchmark of the batched run with the measured ratio
    in ``extra_info`` so BENCH_smc.json carries the speedup explicitly.
    """
    scalar = _SECONDS.get("scalar")
    if scalar is None:  # file run standalone / filtered: measure here
        start = time.perf_counter()
        smc_estimate(
            viterbi_chain, PROPERTY,
            epsilon=EPSILON, delta=DELTA, seed=0, batched=False,
        )
        scalar = time.perf_counter() - start
    batched_result = benchmark(
        _timed(
            "batched",
            lambda: smc_estimate(
                viterbi_chain, PROPERTY,
                epsilon=EPSILON, delta=DELTA, seed=0, batched=True,
            ),
        )
    )
    speedup = scalar / _SECONDS["batched"]
    benchmark.extra_info["scalar_seconds"] = scalar
    benchmark.extra_info["batched_seconds"] = _SECONDS["batched"]
    benchmark.extra_info["speedup_vs_scalar"] = speedup
    scalar_result = smc_estimate(
        viterbi_chain, PROPERTY,
        epsilon=EPSILON, delta=DELTA, seed=0, batched=False, batch=512,
    )
    assert scalar_result.estimate == batched_result.estimate
    assert speedup >= 20.0, f"batched only {speedup:.1f}x faster"


# ----------------------------------------------------------------------
# SPRT: chunked speed with exact stopping samples.
# ----------------------------------------------------------------------

def test_bench_sprt_batched(benchmark, viterbi_chain):
    exact = check(viterbi_chain, PROPERTY).value
    result = benchmark(
        lambda: smc_decide(
            viterbi_chain, PROPERTY,
            theta=exact - 0.05, half_width=0.02, seed=0, batched=True,
        )
    )
    assert result.accept


def test_sprt_chunked_stopping_sample_matches_scalar(viterbi_chain):
    """Contract check riding with the benchmarks: chunking changes the
    wall-clock, never the data-dependent sample count."""
    exact = check(viterbi_chain, PROPERTY).value
    for theta, seed in [(exact - 0.05, 0), (exact + 0.05, 1), (0.5, 2)]:
        scalar = smc_decide(
            viterbi_chain, PROPERTY,
            theta=theta, half_width=0.02, seed=seed, batched=False,
        )
        chunked = smc_decide(
            viterbi_chain, PROPERTY,
            theta=theta, half_width=0.02, seed=seed, batched=True,
        )
        assert (scalar.accept, scalar.samples) == (chunked.accept, chunked.samples)
