"""Benchmarks of the guarantee service layer (ISSUE 6 acceptance).

Two acceptance bars, both asserted here and reported in
``BENCH_store.json`` for the CI regression guard:

* a warm-store repeat of a 100-point ``zoo.sweep`` must be >= 20x
  faster than the cold run (the "repeated queries are cache hits"
  pitch of the serving layer);
* the sharded ``executor="process"`` path must produce results
  bit-identical to the serial path on a statistical backend
  (values, samples, ordering) — scaling is recorded in ``extra_info``
  but never asserted, since CI cores vary.
"""

import time
from dataclasses import asdict

import pytest

from repro import zoo
from repro.engine import SmcConfig
from repro.store import ResultStore

FORMULA = "P=? [ F<=100 goal ]"

#: The 100-point acceptance grid (>= 100 points required by ISSUE 6).
POINTS = [
    {"p_up": round(0.05 + 0.01 * i, 2), "n": n}
    for i in range(25)
    for n in (8, 16, 24, 32)
]

#: Wall-clock of each flavour, recorded by the benchmarks below and
#: asserted against the >= 20x warm-hit bar at the end of the module.
_SECONDS = {}


def _timed(label, fn):
    def run():
        start = time.perf_counter()
        result = fn()
        _SECONDS[label] = min(
            _SECONDS.get(label, float("inf")), time.perf_counter() - start
        )
        return result

    return run


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    with ResultStore(
        tmp_path_factory.mktemp("bench-store") / "bench.sqlite"
    ) as handle:
        yield handle


def _sweep(store_handle):
    return zoo.sweep(
        "birth-death", points=POINTS, formula=FORMULA,
        store=store_handle, executor="serial",
    )


def test_bench_store_cold_sweep(benchmark, store):
    """Cold pass: 100 birth-death points solved and banked."""

    def cold():
        store.invalidate()  # every round starts from an empty store
        return _sweep(store)

    results = benchmark.pedantic(_timed("cold", cold), rounds=1, iterations=1)
    assert len(results) == len(POINTS)
    assert all(r.ok and not r.cached for r in results)
    assert len(store) == len(POINTS)


def test_bench_store_warm_sweep(benchmark, store):
    """Warm pass: the same 100 points served purely from the store."""
    if len(store) != len(POINTS):  # standalone / filtered run
        _sweep(store)
    results = benchmark(_timed("warm", lambda: _sweep(store)))
    assert all(r.ok and r.cached for r in results)


def test_store_warm_hit_speedup_at_least_20x(benchmark, store):
    """The acceptance bar: warm >= 20x cold, identical values."""
    if "cold" not in _SECONDS:
        store.invalidate()
        _timed("cold", lambda: _sweep(store))()
    cold_values = [r.value for r in _sweep(store)]
    warm_results = benchmark(_timed("warm", lambda: _sweep(store)))
    speedup = _SECONDS["cold"] / _SECONDS["warm"]
    benchmark.extra_info["cold_seconds"] = _SECONDS["cold"]
    benchmark.extra_info["warm_seconds"] = _SECONDS["warm"]
    benchmark.extra_info["points"] = len(POINTS)
    benchmark.extra_info["warm_speedup"] = speedup
    assert [r.value for r in warm_results] == cold_values
    assert all(r.cached for r in warm_results)
    assert speedup >= 20.0, f"warm store only {speedup:.1f}x faster"


def test_bench_sweep_process_sharded_vs_serial(benchmark):
    """Sharded process fan-out of a 100-point statistical sweep.

    The merge contract is the assertion: process results must be
    bit-identical (points, estimates, samples, order) to the serial
    path.  Serial/process wall-clocks land in ``extra_info`` so the
    scaling trend is tracked across CI runs without asserting on core
    counts.
    """
    smc = SmcConfig(epsilon=0.1, delta=0.2, seed=0)
    kwargs = dict(
        points=POINTS, formula=FORMULA, backend="apmc", smc=smc
    )

    serial = _timed(
        "serial", lambda: zoo.sweep("birth-death", executor="serial", **kwargs)
    )()
    process = benchmark.pedantic(
        _timed(
            "process",
            lambda: zoo.sweep("birth-death", executor="process", **kwargs),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["serial_seconds"] = _SECONDS["serial"]
    benchmark.extra_info["process_seconds"] = _SECONDS["process"]
    benchmark.extra_info["points"] = len(POINTS)
    assert [r.point for r in process] == [r.point for r in serial]
    assert [asdict(r.value) for r in process] == [
        asdict(r.value) for r in serial
    ]
