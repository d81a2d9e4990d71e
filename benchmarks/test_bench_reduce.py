"""Benchmarks of the vectorized reduction engine.

Tracks the claims of the sparse-algebra rewrite of
``repro.core.reductions`` on seeded ``random-sparse`` zoo chains
(strongly lumpable by construction, so block counts are known):

* ``coarsest_lumping`` at 10^4 states vs the retained pure-Python
  per-state reference — the acceptance bar is
  >= 20x (measured well above), asserted at the end of the module with
  the measured ratio recorded in ``extra_info``;
* ``quotient_by_partition(verify=True)`` at 10^4 states (aggregation +
  strong-lumpability + constancy checks, all vectorized);
* the headline scale: a 10^5-state scenario through the full zoo
  lumping fallback (build + refine + verified quotient), asserted to
  finish in single-digit seconds;
* a deep chain: a 20,000-state ``birth-death`` chain, which lumps to
  itself and, through the hop-distance seed, with no refinement round;
* the identity shortcut: ``lump`` of a 10^5-state ``birth-death``
  chain, its own coarsest lumping, returned without a quotient product
  or its verification.

The vectorized partition is asserted identical to the pure-Python
reference — the benchmarks double as a correctness contract, like the
SMC suite.

CI runs this file separately into ``BENCH_reduce.json`` and feeds it to
``benchmarks/compare.py`` against ``benchmarks/baselines/``.
"""

import time

import numpy as np
import pytest

from repro import zoo
from repro.core.reductions import coarsest_lumping, lump, quotient_by_partition
from repro.core.reductions.lumping import _coarsest_lumping_reference

#: 10^4-state baseline workload: 500 structural blocks of 20 states,
#: out-degree 3 blocks per block (~6 * 10^5 transitions).
BASELINE_PARAMS = {"n": 10_000, "num_blocks": 500, "degree": 3, "seed": 7}
BASELINE_BLOCKS = 500

#: Headline-scale workload: 10^5 states, 5000 blocks (~6 * 10^6
#: transitions), reduced through the zoo's lumping fallback.
SCALE_PARAMS = {"n": 100_000, "num_blocks": 5000, "degree": 3, "seed": 7}
SCALE_BLOCKS = 5000

#: Deep-chain workload: a path-like chain one hop longer per state, so
#: a round-synchronous refiner would need n - 1 rounds without the seed.
DEEP_PARAMS = {"n": 20_000}

#: Identity-shortcut workload: a chain that is its own coarsest lumping.
IDENTITY_PARAMS = {"n": 100_000}

#: Wall-clock of each lumping flavour, recorded by the benchmarks below
#: and asserted against the >= 20x bar at the end of the module.
_SECONDS = {}


@pytest.fixture(scope="module")
def chain_1e4():
    return zoo.build("random-sparse", BASELINE_PARAMS, reduce=False).chain


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
# Coarsest lumping at 10^4 states: python baseline vs vectorized.
# ----------------------------------------------------------------------

def test_bench_lump_python_baseline_1e4(benchmark, chain_1e4):
    """Pure-Python per-state refinement (the pre-vectorization code)."""
    block_of = benchmark.pedantic(
        _timed(
            "python",
            lambda: _coarsest_lumping_reference(chain_1e4, respect=["goal"]),
        ),
        rounds=1,
        iterations=1,
    )
    assert int(block_of.max()) + 1 == BASELINE_BLOCKS


def test_bench_lump_splitters_1e4(benchmark, chain_1e4):
    """Vectorized splitter-queue refinement."""
    block_of = benchmark(
        _timed(
            "splitters",
            lambda: coarsest_lumping(chain_1e4, respect=["goal"]),
        )
    )
    assert int(block_of.max()) + 1 == BASELINE_BLOCKS


def test_bench_quotient_verify_1e4(benchmark, chain_1e4):
    """Verified quotient: aggregation + lumpability + constancy checks."""
    block_of = coarsest_lumping(chain_1e4, respect=["goal"])
    result = benchmark(
        lambda: quotient_by_partition(
            chain_1e4, block_of, atol=1e-9, respect=["goal"], verify=True
        )
    )
    assert result.num_blocks == BASELINE_BLOCKS


def test_lump_speedup_at_least_20x(benchmark, chain_1e4):
    """The acceptance bar: vectorized >= 20x pure Python at 10^4 states.

    Reported as a benchmark of the vectorized run with the measured
    ratios in ``extra_info`` so BENCH_reduce.json carries the speedup
    explicitly; the partitions must also be identical.
    """
    python_seconds = _SECONDS.get("python")
    reference = None
    if python_seconds is None:  # file run standalone / filtered
        start = time.perf_counter()
        reference = _coarsest_lumping_reference(chain_1e4, respect=["goal"])
        python_seconds = time.perf_counter() - start
    vectorized = benchmark(
        _timed(
            "splitters",
            lambda: coarsest_lumping(chain_1e4, respect=["goal"]),
        )
    )
    if reference is None:
        reference = _coarsest_lumping_reference(chain_1e4, respect=["goal"])
    assert np.array_equal(vectorized, reference)
    speedup = python_seconds / _SECONDS["splitters"]
    benchmark.extra_info["python_seconds"] = python_seconds
    benchmark.extra_info["splitters_seconds"] = _SECONDS["splitters"]
    benchmark.extra_info["speedup_vs_python"] = speedup
    assert speedup >= 20.0, f"vectorized only {speedup:.1f}x faster"


# ----------------------------------------------------------------------
# Headline scale: 10^5 states through the zoo lumping fallback.
# ----------------------------------------------------------------------

def test_bench_zoo_lumping_fallback_1e5(benchmark):
    """Build + refine + verified quotient of a 10^5-state scenario.

    The full pipeline path the zoo CLI smoke exercises:
    ``lump`` (coarsest refinement + ``quotient_by_partition`` with its
    strong-lumpability verification) inside ``zoo.build``.  Must finish
    in single-digit seconds.
    """
    start = time.perf_counter()
    scenario = benchmark.pedantic(
        lambda: zoo.build("random-sparse", SCALE_PARAMS),
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - start
    assert scenario.reduction == "lumping"
    assert scenario.full_states == SCALE_PARAMS["n"]
    assert scenario.reduced_states == SCALE_BLOCKS
    assert scenario.extra["refine_final_blocks"] == SCALE_BLOCKS
    benchmark.extra_info["build_seconds"] = scenario.build_seconds
    benchmark.extra_info["reduce_seconds"] = scenario.reduce_seconds
    benchmark.extra_info["refine_rounds"] = scenario.extra["refine_rounds"]
    benchmark.extra_info["refine_splitters"] = scenario.extra["refine_splitters"]
    assert elapsed < 10.0, f"10^5-state lumping fallback took {elapsed:.1f}s"


def test_bench_lump_birth_death_deep(benchmark):
    """Lumping fallback of a 20,000-state birth-death chain.

    Nothing lumps, and the hop-distance seed already separates every
    state, so the refinement loop must not run at all.
    """
    scenario = benchmark.pedantic(
        lambda: zoo.build("birth-death", DEEP_PARAMS), rounds=1, iterations=1
    )
    assert scenario.reduction == "lumping"
    assert scenario.full_states == scenario.reduced_states == DEEP_PARAMS["n"]
    assert scenario.extra["refine_rounds"] == 0
    benchmark.extra_info["reduce_seconds"] = scenario.reduce_seconds
    benchmark.extra_info["refine_seed_blocks"] = scenario.extra["refine_seed_blocks"]


def test_bench_lump_birth_death_identity_1e5(benchmark):
    """``lump`` of a 10^5-state birth-death chain.

    One block per state, so ``lump`` hands back the input matrix and
    initial distribution instead of building and verifying ``P @ I``.
    """
    chain = zoo.build("birth-death", IDENTITY_PARAMS, reduce=False).chain
    result = benchmark(lambda: lump(chain, respect=["goal"]))
    assert result.num_blocks == IDENTITY_PARAMS["n"]
    assert result.chain.transition_matrix is chain.transition_matrix
    assert result.refinement.rounds == 0
