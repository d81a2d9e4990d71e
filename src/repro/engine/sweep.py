"""Parallel scenario sweeps: SNR grids, traceback lengths, quantizers.

The paper's experiments are all sweeps — a model rebuilt and re-checked
per design point (Figure 2 sweeps traceback length, Table V sweeps
antenna configurations).  Each point is independent, so this module
fans them across :mod:`concurrent.futures` workers and returns ordered,
timed, error-capturing results:

>>> from repro.engine import grid, sweep
>>> points = grid(snr_db=[4.0, 8.0], length=[3, 4])
>>> results = sweep(lambda p: p["snr_db"] * p["length"], points,
...                 executor="serial")
>>> [r.value for r in results]
[12.0, 16.0, 24.0, 32.0]

``executor`` selects ``"thread"`` (default — model building spends
most time in scipy, which releases the GIL), ``"process"`` (full
isolation; the sweep function must be picklable), or ``"serial"``
(in-process, deterministic, used by the tests and for debugging).
The process executor is *sharded*: the point grid is chunked into
contiguous shards (``shard_size`` points each) so worker dispatch and
pickling are amortized across a shard, and the ordered merge of shard
results is bit-identical to the serial path — per-point seed streams
are spawned by grid index, never by worker, so shards are
embarrassingly mergeable.

Every runner is fault-tolerant (see :mod:`repro.resilience`):

* a :class:`~repro.resilience.RetryPolicy` re-attempts failing points
  with exponential backoff and deterministic per-point jitter;
* a :class:`~repro.resilience.DeadlinePolicy` bounds each point's
  wall-clock — watchdog threads on the serial/thread executors,
  pool-level ``concurrent.futures`` timeouts on the process executor;
* the process executor survives worker death: on
  ``BrokenProcessPool`` (or a pool-level deadline overrun) the pool is
  rebuilt, lost shards are resubmitted one at a time, and a
  repeatedly-fatal shard is bisected down to the single poisoned
  point, which is *quarantined* into a :class:`SweepResult` carrying
  its error and attempt count while every surviving point's result
  stays bit-identical to the serial path;
* failed results carry an abbreviated traceback (``traceback``) and
  the attempt count (``attempts``) for post-mortems, and
  :func:`sweep_check` validates every emitted value
  (:func:`repro.resilience.validate_guarantee`), attaching structured
  ``warnings`` instead of silently accepting NaN/Inf/out-of-range
  numbers.

:func:`sweep_check` is the property-checking specialization: one pCTL
formula evaluated across a grid of models with a selectable checking
backend — ``"exact"`` (the solver engine) or the statistical
``"apmc"``/``"sprt"`` backends, which trade exactness for throughput
on large scenario grids via the fused batched trials of
:mod:`repro.smc`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..resilience.policies import DeadlineExceeded, DeadlinePolicy, RetryPolicy
from ..resilience.validate import ValidationWarning, formula_kind, validate_guarantee
from .config import SmcConfig

__all__ = [
    "SweepResult",
    "SweepInterrupted",
    "grid",
    "sweep",
    "sweep_values",
    "sweep_check",
    "CHECK_BACKENDS",
    "EXECUTORS",
]

#: Every sweep executor: in-process serial/thread, the sharded process
#: pool, and the networked worker fleet of :mod:`repro.service`.
EXECUTORS = ("serial", "thread", "process", "remote")


def validate_executor(executor: str, error: type = ValueError) -> None:
    """Reject an unknown executor name with the full list of choices.

    Every sweep entry point calls this first, so a typo fails before
    any grid, store traffic or seed spawning, not deep in a runner.
    ``error`` is the ``ValueError`` subclass to raise (the zoo raises
    its own :class:`~repro.zoo.registry.ZooError`).
    """
    if executor not in EXECUTORS:
        raise error(
            f"unknown executor {executor!r}; choose from {', '.join(EXECUTORS)}"
        )


#: Checking backends of :func:`sweep_check`: the exact solver engine,
#: the Hoeffding estimator, and the sequential probability ratio test.
CHECK_BACKENDS = ("exact", "apmc", "sprt")


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep; ``partial`` holds what had finished.

    Every runner converts a ``KeyboardInterrupt`` into this after
    shutting its workers down cleanly (pools terminated, remote jobs
    cancelled — no orphaned processes), so callers can salvage the
    completed :class:`SweepResult` list: :func:`sweep_check` banks the
    successful partials into its :class:`~repro.store.ResultStore`
    before re-raising, which is what makes a Ctrl-C'd ``--store`` sweep
    resumable with ``--resume``.
    """

    def __init__(self, partial: List["SweepResult"]):
        super().__init__(f"sweep interrupted with {len(partial)} point(s) done")
        self.partial = partial


@dataclass
class SweepResult:
    """Outcome of one sweep point.

    Attributes
    ----------
    point:
        The input scenario, exactly as submitted.
    value:
        The sweep function's return value (``None`` if it raised).
    seconds:
        Wall-clock time of this point alone (the *original* compute
        time when the result was served from a store).
    error:
        ``"ExcType: message"`` when the point failed, else ``None``.
    cached:
        True when the value came out of a :class:`repro.store.ResultStore`
        instead of being recomputed.
    label:
        Free-form caller annotation (e.g. the zoo family name a survey
        row belongs to) — never written by the sweep runner itself.
    attempts:
        How many tries this point consumed: in-worker retries under a
        :class:`~repro.resilience.RetryPolicy`, or — for points
        quarantined by process-pool crash recovery — the number of
        pool waves the point was implicated in before isolation.
    traceback:
        Abbreviated traceback (the last few frames) of the failure,
        so a quarantined point is debuggable from a
        :class:`~repro.resilience.SweepReport`; ``None`` on success.
    warnings:
        :class:`~repro.resilience.ValidationWarning` records attached
        by :func:`sweep_check`'s guarantee validation — empty when the
        value passed every applicable check.
    """

    point: Any
    value: Any
    seconds: float
    error: Optional[str] = None
    cached: bool = False
    label: Optional[str] = None
    attempts: int = 1
    traceback: Optional[str] = None
    warnings: Tuple[ValidationWarning, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def timed_out(self) -> bool:
        """Was this point killed by a :class:`DeadlinePolicy`?"""
        return self.error is not None and self.error.startswith(
            "DeadlineExceeded"
        )


def grid(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of scenario dicts.

    >>> grid(snr_db=[4, 8], levels=[3])
    [{'snr_db': 4, 'levels': 3}, {'snr_db': 8, 'levels': 3}]
    """
    names = list(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def _abbreviate_traceback(exc: BaseException, limit: int = 3) -> str:
    """The last ``limit`` frames plus the exception line — enough to
    debug a quarantined point without shipping a full stack dump."""
    frames = _traceback.format_tb(exc.__traceback__)
    if len(frames) > limit:
        frames = [f"  ... ({len(frames) - limit} frames elided)\n"] + frames[
            -limit:
        ]
    return "".join(frames + [f"{type(exc).__name__}: {exc}"]).rstrip()


def _retried(
    fn: Callable[[Any], Any],
    point: Any,
    retry: Optional[RetryPolicy],
    attempt: int = 1,
    start: Optional[float] = None,
    pending: Optional[Exception] = None,
) -> SweepResult:
    """``fn(point)`` with retries.  A lane resuming a point after an
    abandoned attempt passes that attempt's number, the point's start and
    the :class:`DeadlineExceeded` it failed with (``pending``)."""
    start = time.perf_counter() if start is None else start
    while True:
        try:
            if pending is not None:
                raise pending
            value = fn(point)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            pending = None
            if retry is not None and retry.should_retry(exc, attempt):
                delay = retry.delay(_canonical_point(point), attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            return SweepResult(
                point=point,
                value=None,
                seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
                traceback=_abbreviate_traceback(exc),
                attempts=attempt,
            )
        seconds = time.perf_counter() - start
        return SweepResult(point=point, value=value, seconds=seconds, attempts=attempt)


class _Abandoned(BaseException):
    """Unwinds a lane whose caller has given up on it."""


class _Lane:
    """A daemon thread running ``points[index:]`` through :func:`_retried`
    into ``results`` while the caller, in :meth:`run`, times each attempt."""

    def __init__(
        self, fn, points, retry, timeout, results, index=0, attempts=0, start=None,
        pending=None,
    ) -> None:
        self.fn, self.points, self.retry, self.timeout = fn, points, retry, timeout
        self.results, self.pending = results, pending
        # The point in flight: its index, attempts so far and start time.
        self.index, self.attempts = index, attempts
        self.start = time.perf_counter() if start is None else start
        self.since: Optional[float] = None  # when the running attempt began
        self.abandoned, self.error = False, None
        self.lock, self.finished = threading.Lock(), threading.Event()

    def _attempt(self, point: Any) -> Any:
        with self.lock:
            if self.abandoned:
                raise _Abandoned
            self.attempts, self.since = self.attempts + 1, time.monotonic()
        try:
            return self.fn(point)
        finally:
            with self.lock:
                self.since = None

    def _work(self) -> None:
        try:
            while self.index < len(self.points):
                pending, self.pending = self.pending, None
                result = _retried(
                    self._attempt, self.points[self.index], self.retry,
                    self.attempts + (pending is None), self.start, pending,
                )
                with self.lock:
                    if self.abandoned:
                        return
                    self.results.append(result)
                    self.index, self.attempts = self.index + 1, 0
                    self.start = time.perf_counter()
        except _Abandoned:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self.error = exc
        finally:
            self.finished.set()

    def run(self) -> Optional["_Lane"]:
        """Start the lane and sleep until it finishes (``None``) or an
        attempt outlives the timeout (the fresh lane that resumes, with
        the attempt failed)."""
        wait = self.timeout
        try:
            threading.Thread(target=self._work, daemon=True, name="sweep-lane").start()
            while not self.finished.wait(wait):
                with self.lock:
                    since = self.since
                    if since is not None and time.monotonic() - since >= self.timeout:
                        self.abandoned = True
                        exc = DeadlineExceeded(
                            f"point exceeded its {self.timeout:.6g}s deadline"
                        )
                        return _Lane(
                            self.fn, self.points, self.retry, self.timeout, self.results,
                            self.index, self.attempts, self.start, exc,
                        )
                wait = self.timeout - (0 if since is None else time.monotonic() - since)
        except BaseException:  # Ctrl-C: the lane must stop appending
            with self.lock:
                self.abandoned = True
            raise
        if self.error is not None:
            raise self.error
        return None


def _run_points(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[DeadlinePolicy] = None,
    results: Optional[List[SweepResult]] = None,
) -> List[SweepResult]:
    """Run ``points`` in order, appending to ``results``.

    Under a ``deadline`` they run back to back on a :class:`_Lane` (a
    thread hand-off per point would cost more than a cheap point) while
    the caller sleeps until the running attempt's deadline.  Past it,
    the lane is *abandoned* (Python threads cannot be killed), the
    attempt fails with :class:`DeadlineExceeded`, and a fresh lane
    resumes — the watchdog half of the deadline contract (the process
    executor uses pool timeouts instead, see :func:`_process_sweep`).
    """
    results = [] if results is None else results
    if deadline is None:
        results.extend(_retried(fn, point, retry) for point in points)
        return results
    lane: Optional[_Lane] = _Lane(fn, points, retry, deadline.timeout, results)
    while lane is not None:
        lane = lane.run()
    return results


def _run_point(fn, point, retry=None, deadline=None) -> SweepResult:
    return _run_points(fn, [point], retry, deadline)[0]


def _run_shard(
    fn: Callable[[Any], Any],
    shard: Sequence[Any],
    retry: Optional[RetryPolicy] = None,
) -> List[SweepResult]:
    """One process-executor work unit: a contiguous slice of points.

    Retries run *inside* the worker (cheap, no resubmission); deadlines
    are enforced at the pool level by :func:`_process_sweep`, which is
    the only enforcement that also catches hard (C-level) hangs.
    """
    return _run_points(fn, shard, retry)


def _shard(points: Sequence[Any], workers: int, shard_size: Optional[int]):
    """Chunk ``points`` into contiguous index ranges for the pool.

    The default shard size targets four shards per worker — large
    enough to amortize pickling and dispatch, small enough that a slow
    shard cannot serialize the tail of the sweep.  Ranges (rather than
    point slices) are the unit of crash recovery: a fatal range is
    bisected by index until the poisoned point is isolated.
    """
    if shard_size is None:
        shard_size = max(1, -(-len(points) // (4 * workers)))
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, len(points)))
        for start in range(0, len(points), shard_size)
    ]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block on a hung worker forever, so
    pending futures are cancelled and surviving worker processes are
    terminated outright — the pool is disposable, the next wave builds
    a fresh one.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=1.0)


def _wave_budget(
    deadline: Optional[DeadlinePolicy],
    retry: Optional[RetryPolicy],
    wave_points: int,
    workers: int,
) -> Optional[float]:
    """Pool-level wait budget for one wave of shard futures.

    Conservative: per-point budget (deadline x in-worker retry
    attempts) times the worst sequential run any single worker might
    see, plus one extra point and the policy's startup grace.  A wave
    that overruns it has a hung worker somewhere; the not-yet-finished
    shards become recovery suspects.
    """
    if deadline is None:
        return None
    attempts = retry.max_attempts if retry is not None else 1
    per_point = deadline.timeout * attempts
    rounds = -(-wave_points // max(1, workers))
    return per_point * (rounds + 1) + deadline.grace


def _process_sweep(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    workers: int,
    shard_size: Optional[int],
    retry: Optional[RetryPolicy],
    deadline: Optional[DeadlinePolicy],
) -> List[SweepResult]:
    """Sharded process-pool sweep with crash recovery.

    The happy path is one wave: every shard submitted to one pool,
    results merged by global index (bit-identical to the serial path —
    nothing about a point's computation depends on which worker ran
    it).  On a fault — ``BrokenProcessPool`` from a dying worker, or a
    pool-budget overrun from a hung one — the pool is torn down and
    the fabric switches to *isolation mode*: suspect ranges are re-run
    one per wave in a fresh pool, fatal ranges are bisected, and the
    single poisoned point left standing is quarantined into a
    :class:`SweepResult` carrying the failure reason and the number of
    waves it was implicated in.  Completed shard results are never
    recomputed; innocent points re-run deterministically.
    """
    results: Dict[int, SweepResult] = {}
    strikes: Dict[int, int] = {}
    pending: List[Tuple[int, int]] = _shard(points, workers, shard_size)
    isolate = False
    try:
        results = _process_waves(
            fn, points, pending, workers=workers, retry=retry,
            deadline=deadline, results=results, strikes=strikes,
            isolate=isolate,
        )
    except KeyboardInterrupt:
        # Each wave's ``finally`` already tore its pool down (no
        # orphaned workers); salvage what completed, in grid order.
        raise SweepInterrupted(
            [results[index] for index in sorted(results)]
        ) from None
    return [results[index] for index in range(len(points))]


def _process_waves(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    pending: List[Tuple[int, int]],
    *,
    workers: int,
    retry: Optional[RetryPolicy],
    deadline: Optional[DeadlinePolicy],
    results: Dict[int, SweepResult],
    strikes: Dict[int, int],
    isolate: bool,
) -> Dict[int, SweepResult]:
    """The wave loop of :func:`_process_sweep`; fills ``results`` in
    place (so an interrupt can salvage partials) and returns it."""
    while pending:
        if isolate:  # one suspect range per wave: unambiguous blame
            wave, pending = [pending[0]], pending[1:]
        else:
            wave, pending = pending, []
        wave_points = sum(stop - start for start, stop in wave)
        budget = _wave_budget(deadline, retry, wave_points, workers)
        pool = ProcessPoolExecutor(max_workers=min(workers, len(wave)))
        started = time.perf_counter()
        futures: Dict[Any, Tuple[int, int]] = {}
        try:
            futures = {
                pool.submit(_run_shard, fn, points[start:stop], retry): (
                    start,
                    stop,
                )
                for start, stop in wave
            }
            done, not_done = _futures_wait(futures, timeout=budget)
            elapsed = time.perf_counter() - started
            suspects: List[Tuple[Tuple[int, int], str]] = []
            for future in done:
                span = futures[future]
                try:
                    shard_results = future.result()
                except Exception as exc:  # worker death, pool breakage
                    detail = str(exc) or "worker process died"
                    suspects.append(
                        (span, f"{type(exc).__name__}: {detail}")
                    )
                else:
                    for offset, result in enumerate(shard_results):
                        results[span[0] + offset] = result
            for future in not_done:
                span = futures[future]
                suspects.append(
                    (
                        span,
                        f"DeadlineExceeded: shard still running after the"
                        f" {budget:.6g}s pool budget",
                    )
                )
        finally:
            if any(not future.done() for future in futures):
                _terminate_pool(pool)  # hung workers: hard stop
            else:
                pool.shutdown(wait=True)
        if suspects and not isolate:
            isolate = True
        for (start, stop), reason in suspects:
            for index in range(start, stop):
                strikes[index] = strikes.get(index, 0) + 1
            if stop - start == 1:  # the poisoned point, isolated
                results[start] = SweepResult(
                    point=points[start],
                    value=None,
                    seconds=elapsed,
                    error=reason,
                    attempts=strikes[start],
                )
            else:  # bisect: halve the suspect range and requeue
                mid = (start + stop) // 2
                pending.extend([(start, mid), (mid, stop)])
    return results


def sweep(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    on_error: str = "capture",
    shard_size: Optional[int] = None,
    retry: Union[RetryPolicy, int, None] = None,
    deadline: Union[DeadlinePolicy, float, None] = None,
    remote: Optional[str] = None,
) -> List[SweepResult]:
    """Evaluate ``fn`` on every point, fanning across workers.

    Results come back in submission order regardless of completion
    order.  With ``on_error="capture"`` (default) a failing point
    yields a :class:`SweepResult` with ``error`` set and the sweep
    continues; ``on_error="raise"`` re-raises the first failure after
    the pool drains.

    ``executor="process"`` fans *shards* (contiguous chunks of
    ``shard_size`` points, see :func:`_shard`) through a
    :class:`~concurrent.futures.ProcessPoolExecutor` and merges the
    ordered shard results; ``shard_size`` is ignored by the serial and
    thread executors, where per-point submission is already cheap.  The
    process path survives worker crashes and pool-level deadline
    overruns — see :func:`_process_sweep`.

    ``executor="remote"`` ships the sweep to a
    :class:`~repro.service.Coordinator` worker fleet (``remote`` names
    its ``HOST:PORT`` address, or the ``REPRO_COORDINATOR`` environment
    variable does): workers pull shard leases, dead workers have their
    leases reassigned, and the merged results are bit-identical to the
    serial path — see :mod:`repro.service`.  ``fn`` must be picklable,
    exactly as for the process executor.

    ``retry`` (a :class:`~repro.resilience.RetryPolicy` or a bare
    attempt count) re-attempts transient failures per point;
    ``deadline`` (a :class:`~repro.resilience.DeadlinePolicy` or bare
    seconds) bounds each point's wall-clock.  Both default to off, in
    which case this runner behaves exactly as it always has.

    A Ctrl-C lands as :class:`SweepInterrupted` after the executor has
    shut down cleanly (pools terminated, remote job cancelled — no
    orphaned workers), carrying the completed partial results.
    """
    validate_executor(executor)
    if on_error not in ("capture", "raise"):
        raise ValueError(f"on_error must be 'capture' or 'raise', got {on_error!r}")
    retry = RetryPolicy.coerce(retry)
    deadline = DeadlinePolicy.coerce(deadline)
    points = list(points)
    if executor == "remote":
        from ..service.client import remote_sweep  # deferred: avoid cycle

        address = remote or os.environ.get("REPRO_COORDINATOR")
        if not address:
            raise ValueError(
                "executor='remote' needs a coordinator address:"
                " pass remote='HOST:PORT' or set REPRO_COORDINATOR"
            )
        results = remote_sweep(
            fn,
            points,
            connect=address,
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
        )
    elif executor == "serial" or len(points) <= 1:
        results = []
        try:
            _run_points(fn, points, retry, deadline, results)
        except KeyboardInterrupt:
            raise SweepInterrupted(results) from None
    elif executor == "process":
        workers = max_workers or min(len(points), os.cpu_count() or 1)
        results = _process_sweep(
            fn,
            points,
            workers=workers,
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
        )
    else:
        workers = max_workers or min(len(points), os.cpu_count() or 1)
        pool = ThreadPoolExecutor(max_workers=workers)
        futures = [
            pool.submit(_run_point, fn, point, retry, deadline)
            for point in points
        ]
        try:
            results = [future.result() for future in futures]
        except KeyboardInterrupt:
            pool.shutdown(wait=False, cancel_futures=True)
            partial = [
                future.result()
                for future in futures
                if future.done()
                and not future.cancelled()
                and future.exception() is None
            ]
            raise SweepInterrupted(partial) from None
        pool.shutdown(wait=True)
    if on_error == "raise":
        for result in results:
            if not result.ok:
                raise RuntimeError(
                    f"sweep point {result.point!r} failed: {result.error}"
                )
    return results


def _check_point(
    entry,
    *,
    build,
    formula,
    backend,
    theta,
    config,
    solver,
    seeds,
) -> Any:
    """One :func:`sweep_check` point; module-level for picklability."""
    # Imported lazily: repro.smc/pctl import the engine package.
    from ..pctl import check as exact_check
    from ..smc import smc_decide, smc_estimate

    index, point = entry
    chain = build(point)
    if backend == "exact":
        return exact_check(chain, formula, config=solver).value
    if backend == "apmc":
        return smc_estimate(
            chain,
            formula,
            epsilon=config.epsilon,
            delta=config.delta,
            seed=seeds[index],
            batch=config.batch,
        )
    return smc_decide(
        chain,
        formula,
        theta=theta,
        half_width=config.half_width,
        alpha=config.alpha,
        beta=config.beta,
        seed=seeds[index],
    )


def _canonical_point(point: Any) -> str:
    """Canonical text identity of one point, for duplicate detection.

    Mappings are keyed order-insensitively; objects JSON cannot encode
    fall back to ``repr`` — identical reprs are treated as the same
    point, which is exact for the literal-valued parameter dicts grids
    are made of.
    """
    return json.dumps(point, sort_keys=True, default=repr)


def sweep_check(
    build: Callable[[Any], Any],
    points: Sequence[Any],
    formula: str,
    *,
    backend: str = "exact",
    theta: Optional[float] = None,
    smc: Optional[SmcConfig] = None,
    solver=None,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    on_error: str = "capture",
    shard_size: Optional[int] = None,
    store=None,
    store_key: Optional[Callable[[Any], Any]] = None,
    store_extra: Optional[Dict[str, Any]] = None,
    retry: Union[RetryPolicy, int, None] = None,
    deadline: Union[DeadlinePolicy, float, None] = None,
    remote: Optional[str] = None,
    validate: bool = True,
) -> List[SweepResult]:
    """Check one pCTL ``formula`` across a grid of models.

    ``build(point)`` constructs the DTMC of one scenario point; the
    chosen ``backend`` then checks ``formula`` against it:

    ``"exact"``
        :func:`repro.pctl.check` through the solver engine (``solver``
        selects the numerical backend).  ``value`` is the checked
        number.
    ``"apmc"``
        Batched :func:`repro.smc.smc_estimate` with the ``smc``
        config's ``epsilon``/``delta``.  ``value`` is an
        :class:`~repro.smc.ApmcResult` — estimate plus guarantee and
        the samples drawn.
    ``"sprt"``
        Batched :func:`repro.smc.smc_decide` of ``P >= theta``
        (``theta`` is required).  ``value`` is an
        :class:`~repro.smc.SprtResult`.

    Statistical points draw from independent, deterministic seed
    streams spawned from ``smc.seed`` *by grid index*, so results are
    reproducible and executor-independent.  Only bounded path formulas
    are supported by the statistical backends — exactly the trade the
    paper discusses: scenario grids can swap exhaustive guarantees for
    sampled ones with explicit (epsilon, delta) error bounds when
    throughput matters.

    Identical points (same canonical parameter dict) within one call
    are solved once: duplicates reuse the first occurrence's result
    (and, for statistical backends, its seed stream).

    With ``store=`` (a :class:`repro.store.ResultStore`) the sweep is
    read-through cached: each distinct point is first looked up under
    ``(store_key(point), formula, backend, config fingerprint)``; hits
    come back with ``cached=True`` and misses are computed as usual and
    written back (successes only — failures are always retried).
    ``store_key`` maps a point to its JSON-able scenario identity
    (default: the point itself) and ``store_extra`` is provenance
    merged into every banked row (``store_extra["family"]`` also fills
    the store's queryable ``family`` column).  Store traffic happens in
    the submitting process only, so neither ``store`` nor ``store_key``
    needs to be picklable for ``executor="process"``.

    Only *successful* points are ever banked — a transient failure is
    recomputed on the next run, never served as a warm hit — which is
    also the checkpoint/resume contract: re-running an interrupted or
    partially-failed sweep against the same store recomputes exactly
    the missing and failed points.

    ``retry``/``deadline`` thread the fault-tolerance policies of
    :mod:`repro.resilience` into the underlying runner.  With
    ``validate=True`` (default) every emitted value is passed through
    :func:`repro.resilience.validate_guarantee` and violations
    (NaN/Inf, out-of-range probabilities) are attached to the result's
    ``warnings`` — downgraded to structured records, never silently
    accepted and never raised.
    """
    if backend not in CHECK_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(CHECK_BACKENDS)}"
        )
    validate_executor(executor)
    if backend == "sprt" and theta is None:
        raise ValueError("backend='sprt' needs a threshold theta")
    points = list(points)
    config = SmcConfig.coerce(smc)
    seeds = np.random.SeedSequence(config.seed).spawn(len(points))

    # Deduplicate: each distinct canonical point is solved exactly once,
    # at its first grid index (which also pins its spawned seed stream).
    first_index: Dict[str, int] = {}
    canon: List[str] = []
    for index, point in enumerate(points):
        key = _canonical_point(point)
        canon.append(key)
        first_index.setdefault(key, index)
    unique = sorted(set(first_index.values()))

    # Read-through: look distinct points up in the store before solving.
    by_index: Dict[int, SweepResult] = {}
    fingerprint = None
    scenario_ids: Dict[int, Any] = {}
    if store is not None:
        from ..store import check_fingerprint  # deferred: avoid cycle

        fingerprint = check_fingerprint(
            backend, smc=config, solver=solver, theta=theta
        )
        key_of = store_key if store_key is not None else lambda point: point
        scenario_ids = {index: key_of(points[index]) for index in unique}
        found = store.get_many(
            [(scenario_ids[i], formula, backend, fingerprint) for i in unique]
        )
        for index, row in zip(unique, found):
            if row is not None:
                by_index[index] = SweepResult(
                    point=points[index],
                    value=row.value,
                    seconds=row.seconds,
                    cached=True,
                )

    misses = [index for index in unique if index not in by_index]
    # partial over a module-level runner (not a closure) so
    # executor="process" can pickle the sweep function.
    run = functools.partial(
        _check_point,
        build=build,
        formula=formula,
        backend=backend,
        theta=theta,
        config=config,
        solver=solver,
        seeds=seeds,
    )
    try:
        computed = sweep(
            run,
            [(index, points[index]) for index in misses],
            executor=executor,
            max_workers=max_workers,
            on_error="capture",
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
            remote=remote,
        )
    except SweepInterrupted as interrupt:
        # Ctrl-C: bank every successful partial before propagating, so
        # a --store sweep resumes from exactly where it was cut off.
        if store is not None:
            for result in interrupt.partial:
                if result.ok and isinstance(result.point, tuple):
                    index = result.point[0]
                    store.put(
                        scenario_ids[index],
                        formula,
                        result.value,
                        backend=backend,
                        config=fingerprint,
                        seconds=result.seconds,
                        extra=store_extra,
                    )
        raise
    for index, result in zip(misses, computed):
        result.point = result.point[1]  # unwrap the (index, point) plumbing
        by_index[index] = result
        # Failures are never banked: a quarantined or timed-out point
        # must be recomputed on the next run, not served as a warm hit.
        if store is not None and result.ok:
            store.put(
                scenario_ids[index],
                formula,
                result.value,
                backend=backend,
                config=fingerprint,
                seconds=result.seconds,
                extra=store_extra,
            )

    if validate:
        kind = formula_kind(formula)
        for result in by_index.values():
            if result.ok:
                result.warnings = validate_guarantee(result.value, kind=kind)

    results = []
    for index, point in enumerate(points):
        source = by_index[first_index[canon[index]]]
        if source.point is point or first_index[canon[index]] == index:
            results.append(source)
        else:  # duplicate point: share the solve, keep the caller's object
            results.append(dataclass_replace(source, point=point))
    if on_error == "raise":
        for result in results:
            if not result.ok:
                raise RuntimeError(
                    f"sweep point {result.point!r} failed: {result.error}"
                )
    return results


def sweep_values(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    executor: str = "thread",
    max_workers: Optional[int] = None,
) -> List[Any]:
    """Like :func:`sweep` but returns bare values, raising on failure."""
    return [
        result.value
        for result in sweep(
            fn,
            points,
            executor=executor,
            max_workers=max_workers,
            on_error="raise",
        )
    ]
