"""The three sweep workloads: seeded inputs, oracles and timed passes.

The seed picks only parameter values (SNR, ``p_up``, ``random-sparse``
seeds) inside fixed size classes, with a fixed point count per family
and size class, so any two seeds do the same work.  Every pass runs the
grid through the public ``repro.zoo.sweep`` against a fresh
``ResultStore`` (so every point is a store miss plus a put), then
checks each value against an oracle computed before timing.

The pass's wall time gives ``points_per_s`` and its per-point seconds
(every point a store miss) the cold-miss latency.  The same grid is
then swept again against the banked store, as a user resuming a
``--store`` sweep would, which gives the warm-hit latency per point.
All three are scaled to the reference host speed (:mod:`hostspeed`).

``sweep-small``
    152 cheap exact points on the process pool; lumping, build and
    per-point overhead dominate.  Oracle: the unreduced chain.
``solve-large``
    Seven serial exact checks whose linear solves dominate.  Oracle:
    the ``birth-death`` closed forms and a second solver backend.
``sweep-smc``
    44 serial APMC/SPRT points; sampling dominates.  Oracle: the exact
    value, within 2*epsilon (APMC) or outside the indifference band
    (SPRT).
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

import repro.zoo
from repro.engine import SmcConfig
from repro.pctl import check as exact_check
from repro.store import ResultStore
from hostspeed import HostSpeed

POOL_WORKERS = 2

#: Whole-grid resumes per pass: each takes milliseconds, so one per pass
#: would leave the warm-hit median of a 20 s run with a few samples.
RESUMES_PER_PASS = 3


@dataclass
class Tally:
    """Operations attempted, and why any failed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    checks: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)  # failed, by check

    def record(self, check: str, ok: bool, *, wrong: bool = False) -> None:
        """One operation, checked by oracle ``check``.  ``wrong`` marks a
        value that disagreed (as opposed to an error or a refusal)."""
        self.attempted += 1
        self.checks[check] = self.checks.get(check, 0) + 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            self.misses[check] = self.misses.get(check, 0) + 1

    def leaked(self, count: int) -> None:
        self.failed += count


@dataclass
class Job:
    """One ``repro.zoo.sweep`` call of a pass."""

    family: str
    points: List[Dict[str, Any]]
    options: Dict[str, Any]
    check: str
    agrees: Callable[[Any, Any], bool]
    refs: List[Any] = field(default_factory=list)


@dataclass
class PassStats:
    """One pass.  Lists hold seconds scaled to the reference host speed
    (:mod:`hostspeed`); ``raw_walls`` and the pool figures are as
    measured."""

    points: int
    raw_walls: List[float]  # per sweep call
    job_walls: List[float]  # per sweep call
    cold_seconds: List[float] = field(default_factory=list)  # per point, grid order
    warm_seconds: List[float] = field(default_factory=list)  # per point, by resume
    pool_busy: float = 0.0  # sum of point seconds on the process pool
    pool_wall: float = 0.0  # wall of the process-pool sweeps


def stratified(rng: np.random.Generator, low: float, high: float, count: int,
               step: float = 1e-3) -> List[float]:
    """One value on a ``step`` lattice in each of ``count`` equal strata
    of ``[low, high)``: distinct (no two grid points dedupe into one
    solve), and spread the same way for every seed, so the work a
    parameter drives stays nearly constant."""
    slots = int(round((high - low) / step)) // count
    return [
        round(low + (k * slots + int(rng.integers(slots))) * step, 6)
        for k in range(count)
    ]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, tag))])


# -- oracles ------------------------------------------------------------------


def _close(tol: float) -> Callable[[Any, Any], bool]:
    return lambda value, ref: abs(value - ref) <= tol * max(1.0, abs(ref))


def _apmc_agrees(value: Any, ref: float) -> bool:
    # Hoeffding: P(|estimate - p| > 2 eps) <= 2 exp(-8 n eps^2) ~ 1e-6.
    return abs(value.estimate - ref) <= 2 * value.epsilon


def _sprt_agrees(value: Any, ref: float) -> bool:
    if ref >= value.theta + value.half_width:
        return value.accept
    if ref <= value.theta - value.half_width:
        return not value.accept
    return True  # inside the indifference band either verdict is sound


def birth_death_steady(n: int, p_up: float, p_down: float) -> float:
    """Closed-form stationary mass of the top state (p_up > p_down)."""
    r = p_up / p_down
    return (1.0 - 1.0 / r) / (1.0 - r ** -float(n))


def birth_death_reward(n: int, p_up: float, p_down: float) -> float:
    """Closed-form ``R=? [ F goal ]`` from state 0 with reward = level:
    ``c_i = (i + p_down c_{i-1}) / p_up`` is the reward collected from
    level i until first reaching level i+1."""
    total = c = 0.0
    for level in range(n - 1):
        c = (level + p_down * c) / p_up
        total += c
    return total


# -- workload grids -------------------------------------------------------------


def sweep_small_jobs(seed: int, *, smoke: bool = False) -> List[Job]:
    per = 2 if smoke else None
    exact = dict(reduce=True, backend="exact", executor="process",
                 max_workers=POOL_WORKERS)
    reduced_vs_full = _close(1e-9)
    rng = _rng(seed, "sweep-small")
    jobs = []
    points = []
    for n in (8, 16, 32, 64):
        for p_up in stratified(rng, 0.2, 0.45, per or 12, 1e-4):
            points.append({"n": n, "p_up": p_up, "p_down": 0.2})
    jobs.append(Job("birth-death", points, exact, "reduced_vs_full", reduced_vs_full))
    points = []
    for n in (64, 128, 256, 512, 1024):
        for s in rng.choice(2**31, size=per or 10, replace=False):
            points.append({"n": n, "seed": int(s)})
    jobs.append(Job("random-sparse", points, exact, "reduced_vs_full", reduced_vs_full))
    points = []
    for num_rx in (1, 2):
        for snr in stratified(rng, 2.0, 14.0, per or 12):
            points.append({"num_rx": num_rx, "snr_db": snr})
    jobs.append(Job("mimo-1xN", points, exact, "reduced_vs_full", reduced_vs_full))
    points = []
    for traceback in (3, 4, 5):
        for snr in stratified(rng, 2.0, 8.0, per or 10):
            points.append({"memory": 1, "traceback_length": traceback, "snr_db": snr})
    jobs.append(Job("viterbi-memory-m", points, exact, "reduced_vs_full", reduced_vs_full))
    return jobs


def solve_large_jobs(seed: int, *, smoke: bool = False) -> List[Job]:
    serial = dict(reduce=False, backend="exact", executor="serial")
    rng = _rng(seed, "solve-large")
    shapes = [(3, 3)] if smoke else [(3, 3), (4, 3), (3, 5)]
    viterbi = [
        {"memory": 2, "traceback_length": tb, "num_levels": levels, "snr_db": snr}
        for (tb, levels), snr in zip(shapes, stratified(rng, 4.0, 6.0, len(shapes)))
    ]
    sizes = (2_000,) if smoke else (20_000, 50_000)
    chains = [
        {"n": n, "p_up": p_up, "p_down": 0.2}
        for n, p_up in zip(sizes, stratified(rng, 0.25, 0.45, len(sizes), 1e-4))
    ]
    agree = _close(1e-8)
    # One sweep call per large check, as a user checks one big model at
    # a time; it also gives each check its own median over passes.
    return [
        Job("viterbi-memory-m", [point], dict(serial, formula="S=? [ flag ]"),
            "second_backend", agree)
        for point in viterbi
    ] + [
        Job("birth-death", [point], dict(serial, formula=formula), "closed_form", agree)
        for formula in ("S=? [ goal ]", "R=? [ F goal ]")
        for point in chains
    ]


def sweep_smc_jobs(seed: int, *, smoke: bool = False) -> List[Job]:
    smc = SmcConfig(epsilon=0.01, delta=0.05, seed=seed)
    apmc = dict(backend="apmc", smc=smc, executor="serial")
    sprt = dict(backend="sprt", theta=0.5, smc=smc, executor="serial")
    rng = _rng(seed, "sweep-smc")
    per = 1 if smoke else None
    mimo = [
        {"num_rx": num_rx, "snr_db": snr}
        for num_rx in (1, 2)
        for snr in stratified(rng, 2.0, 12.0, per or 6)
    ]
    # SNR classes keep every exact value far outside the SPRT band
    # around theta, so the verdict is decided in ~100-500 samples.
    viterbi = [
        {"traceback_length": 3, "snr_db": snr}
        for low, high in ((0.0, 1.0), (8.0, 10.0))
        for snr in stratified(rng, low, high, per or 4)
    ]
    errcnt = [
        {"traceback_length": 3, "snr_db": snr}
        for low, high in ((0.0, 1.0), (9.0, 12.0))
        for snr in stratified(rng, low, high, per or 4)
    ]
    return [
        Job("mimo-1xN", mimo, apmc, "apmc_within_2eps", _apmc_agrees),
        Job("viterbi-memory-m", viterbi, apmc, "apmc_within_2eps", _apmc_agrees),
        Job("viterbi-memory-m", viterbi, sprt, "sprt_verdict", _sprt_agrees),
        Job("viterbi-errcnt", errcnt, apmc, "apmc_within_2eps", _apmc_agrees),
        Job("viterbi-errcnt", errcnt, sprt, "sprt_verdict", _sprt_agrees),
    ]


JOBS = {
    "sweep-small": sweep_small_jobs,
    "solve-large": solve_large_jobs,
    "sweep-smc": sweep_smc_jobs,
}


def compute_refs(workload: str, jobs: List[Job]) -> None:
    """Fill every job's oracle values through an independent path."""
    for job in jobs:
        if job.check == "reduced_vs_full":
            options = dict(job.options, reduce=False)
            results = repro.zoo.sweep(job.family, points=job.points, **options)
            job.refs = [r.value for r in results]
        elif job.check == "second_backend":
            formula = job.options["formula"]
            job.refs = [
                exact_check(
                    repro.zoo.build(job.family, point, reduce=False).chain,
                    formula, config="power",
                ).value
                for point in job.points
            ]
        elif job.check == "closed_form":
            closed = (
                birth_death_steady if job.options["formula"].startswith("S")
                else birth_death_reward
            )
            job.refs = [
                closed(p["n"], p["p_up"], p["p_down"]) for p in job.points
            ]
        else:  # statistical backends: the exact value of the same point
            options = {
                k: v for k, v in job.options.items()
                if k not in ("backend", "theta", "smc")
            }
            results = repro.zoo.sweep(job.family, points=job.points, **options)
            job.refs = [r.value for r in results]
        if any(ref is None for ref in job.refs):
            raise RuntimeError(f"{workload}: oracle failed on {job.family}")


def warm_up(jobs: List[Job], store_path: str) -> None:
    """One untimed point per family, formula and backend, so lazy
    imports and caches are set."""
    store = ResultStore(store_path)
    seen = set()
    try:
        for job in jobs:
            kind = (job.family, job.options.get("formula"), job.options["backend"])
            if kind not in seen:
                seen.add(kind)
                repro.zoo.sweep(job.family, points=job.points[:1], store=store,
                                **job.options)
    finally:
        store.close()
        remove_store(store_path)


def remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def run_pass(jobs: List[Job], store_path: str, tally: Tally, host: HostSpeed) -> PassStats:
    """One timed pass over every job against a fresh store, the oracle
    checks, then the same grid again against the banked store: the
    ``--store`` resume path, where every point is a warm hit that must
    be bit-identical to the value just computed.  Each sweep call (or
    whole-grid resume) is scaled by the host speed factor measured just
    before it."""
    gc.collect()  # start every timed pass from the same collector state
    store = ResultStore(store_path)
    try:
        outputs, raw_walls, factors = [], [], []
        for job in jobs:
            factors.append(host.factor())
            t0 = time.perf_counter()
            outputs.append(
                repro.zoo.sweep(job.family, points=job.points, store=store,
                                **job.options)
            )
            raw_walls.append(time.perf_counter() - t0)

        stats = PassStats(points=0, raw_walls=raw_walls,
                          job_walls=[w / f for w, f in zip(raw_walls, factors)])
        for job, results, factor in zip(jobs, outputs, factors):
            pooled = job.options.get("executor") == "process"
            for result, ref in zip(results, job.refs):
                stats.points += 1
                ok = result.ok and not result.cached and job.agrees(result.value, ref)
                tally.record(job.check, ok, wrong=result.ok)
                # NaN keeps the grid order; a failure is counted in the tally.
                stats.cold_seconds.append(result.seconds / factor if result.ok else math.nan)
                if result.ok and pooled:
                    stats.pool_busy += result.seconds
        stats.pool_wall = sum(
            wall for job, wall in zip(jobs, raw_walls)
            if job.options.get("executor") == "process"
        )

        for _ in range(RESUMES_PER_PASS):
            factor = host.factor()
            t0 = time.perf_counter()
            again = [
                repro.zoo.sweep(job.family, points=job.points, store=store,
                                **job.options)
                for job in jobs
            ]
            elapsed = time.perf_counter() - t0
            stats.warm_seconds.append(elapsed / stats.points / factor)
            for first, second in zip(outputs, again):
                for result, before in zip(second, first):
                    ok = result.ok and result.cached and result.value == before.value
                    tally.record("resume_hit", ok, wrong=result.ok)
        return stats
    finally:
        store.close()
        remove_store(store_path)


def median_pass_wall(passes: List[PassStats], *, raw: bool = False) -> float:
    """Wall time of a pass assembled from each sweep call's median over
    ``passes``: a burst of load on the host that slows one call in one
    pass does not move it.  Scaled to the reference speed unless
    ``raw``."""
    walls = (p.raw_walls if raw else p.job_walls for p in passes)
    return sum(statistics.median(call) for call in zip(*walls))


def median_point_seconds(passes: List[PassStats]) -> float:
    """Median over the grid's points of each point's median over
    ``passes`` (scaled, failed passes left out), so that the points on
    either side of the median do not trade places from one pass to the
    next."""
    per_point = [
        [s for s in point if not math.isnan(s)]
        for point in zip(*(p.cold_seconds for p in passes))
    ]
    return median_or_zero([statistics.median(s) for s in per_point if s])


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
