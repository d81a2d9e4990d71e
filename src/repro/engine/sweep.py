"""Parallel scenario sweeps: SNR grids, traceback lengths, quantizers.

The paper's experiments are all sweeps — a model rebuilt and re-checked
per design point (Figure 2 sweeps traceback length, Table V sweeps
antenna configurations).  Each point is independent, so this module
runs them in order or fans them out as shard leases, and returns
ordered, timed, error-capturing results:

>>> from repro.engine import grid, sweep
>>> points = grid(snr_db=[4.0, 8.0], length=[3, 4])
>>> results = sweep(lambda p: p["snr_db"] * p["length"], points,
...                 executor="serial")
>>> [r.value for r in results]
[12.0, 16.0, 24.0, 32.0]

``executor`` selects ``"serial"`` (default: in-process, in order),
``"process"`` (forked worker processes; the sweep function must be
picklable) or ``"remote"`` (the worker fleet of :mod:`repro.service`).
Parallel work always runs as *leases*: the point grid is chunked into
contiguous shards (``shard_size`` points each), and each worker — a
forked process or a fleet member — holds one shard lease at a time,
so dispatch and pickling are amortized across a shard.  The ordered
merge of shard results is bit-identical to the serial path — per-point
seed streams are spawned by grid index, never by worker, so shards are
embarrassingly mergeable.

Every runner is fault-tolerant (see :mod:`repro.resilience`):

* a :class:`~repro.resilience.RetryPolicy` re-attempts failing points
  with exponential backoff and deterministic per-point jitter;
* a :class:`~repro.resilience.DeadlinePolicy` bounds each point's
  wall-clock — a watchdog lane on the serial executor, a per-lease
  budget on the process executor and the fleet;
* the process executor leases shards exactly as the worker fleet of
  :mod:`repro.service` does: a worker that dies, or whose lease
  outlives its budget, is killed and only its own lease fails.  One
  bisection rule, :func:`_fail_lease`, serves both fan-outs: a failed
  range is halved and requeued until the single poisoned point is
  left, which is *quarantined* into a :class:`SweepResult` carrying
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
import math
import multiprocessing
import os
import pickle
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from multiprocessing.connection import wait as _wait_ready
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
    "check_value",
    "CHECK_BACKENDS",
    "EXECUTORS",
]

#: Every sweep executor: in-process serial, forked lease holders, and
#: the networked worker fleet of :mod:`repro.service`.
EXECUTORS = ("serial", "process", "remote")


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


#: Checking backends of :func:`check_value`: the exact solver engine,
#: the Hoeffding estimator, and the sequential probability ratio test.
CHECK_BACKENDS = ("exact", "apmc", "sprt")


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep; ``partial`` holds what had finished.

    Every runner converts a ``KeyboardInterrupt`` into this after
    shutting its workers down cleanly (process workers stopped, remote
    jobs cancelled — no orphaned processes), so callers can salvage the
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
        :class:`~repro.resilience.RetryPolicy`, or — for a point
        quarantined because its worker died or overran — the number
        of failed leases that held it.
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
    executor kills a worker whose lease overruns instead, see
    :func:`_process_sweep`).
    """
    results = [] if results is None else results
    if deadline is None:
        results.extend(_retried(fn, point, retry) for point in points)
        return results
    lane: Optional[_Lane] = _Lane(fn, points, retry, deadline.timeout, results)
    while lane is not None:
        lane = lane.run()
    return results


def _run_shard(
    fn: Callable[[Any], Any],
    shard: Sequence[Any],
    retry: Optional[RetryPolicy] = None,
) -> List[SweepResult]:
    """One lease's work unit, on a process or fleet worker: a contiguous
    slice of points.

    Retries run *inside* the worker (cheap, no resubmission); deadlines
    are enforced from outside by the lease budget (:func:`_process_sweep`
    kills the worker, the coordinator reaps the lease), the only
    enforcement that also catches hard (C-level) hangs.
    """
    return _run_points(fn, shard, retry)


def _shard(
    points: Sequence[Any],
    workers: int,
    shard_size: Optional[int],
    ranges: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[Tuple[int, int]]:
    """Chunk ``points`` (or only the index ``ranges`` of them) into
    contiguous index ranges of ``shard_size`` points: the leases of
    both fan-outs.

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
        (lo, min(lo + shard_size, stop))
        for start, stop in (ranges if ranges is not None else [(0, len(points))])
        for lo in range(start, stop, shard_size)
    ]


def _fail_lease(
    pending: List[Tuple[int, int]],
    strikes: Dict[int, int],
    start: int,
    stop: int,
    quarantine_strikes: int,
) -> bool:
    """The bisection rule of both fan-outs, for a lease ``[start, stop)``
    whose worker died or overran its budget.

    Every point of the lease takes a strike.  A multi-point range is
    halved and both halves go to the front of ``pending``; a single
    point is requeued until its strikes reach ``quarantine_strikes``,
    and then this returns ``True``: the caller quarantines it.
    """
    for index in range(start, stop):
        strikes[index] = strikes.get(index, 0) + 1
    if stop - start > 1:
        mid = (start + stop) // 2
        pending[:0] = [(start, mid), (mid, stop)]
    elif strikes[start] < quarantine_strikes:
        pending.insert(0, (start, stop))
    else:
        return True
    return False


def _hold_leases(conn, payload: bytes) -> None:
    """A process worker: unpickle the sweep function, points and retry
    policy, then run each ``(start, stop)`` lease received on ``conn``
    through :func:`_run_shard` and send back its results, until the stop
    message (``None``)."""
    fn, points, retry = pickle.loads(payload)
    while (lease := conn.recv()) is not None:
        start, stop = lease
        conn.send(_run_shard(fn, points[start:stop], retry))


class _Leaseholder:
    """The parent's end of one worker process: its pipe, its process and
    the lease it holds (``None`` while idle).  The worker unpickles the
    sweep instead of inheriting the parent's objects through the fork,
    so a :class:`~repro.store.ResultStore` in it opens its own connection.
    """

    def __init__(self, payload: bytes) -> None:
        self.conn, self.child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_hold_leases, args=(self.child, payload)
        )
        self.lease: Optional[Tuple[int, int]] = None
        self.granted = self.cutoff = 0.0

    def start(self) -> None:
        self.process.start()
        self.child.close()

    def grant(
        self, pending: List[Tuple[int, int]], per_point: float, grace: float
    ) -> bool:
        """Send the worker the first ``pending`` lease and take it off;
        ``False``, the lease left pending, when the worker is dead."""
        try:
            self.conn.send(pending[0])
        except OSError:
            return False
        self.lease, self.granted = pending.pop(0), time.monotonic()
        self.cutoff = self.granted + per_point * (self.lease[1] - self.lease[0]) + grace
        return True

    def receive(self) -> Optional[List[SweepResult]]:
        """The lease's results, or ``None`` when the worker died."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self) -> None:
        """Stop an idle worker with the stop message, kill a busy one.

        Closing the pipe would not do: a forked worker inherits the
        parent's ends of its older siblings' pipes, so none of them
        sees EOF while a younger sibling lives.
        """
        if self.process.pid is not None:  # started
            if self.lease is None:
                try:
                    self.conn.send(None)
                except OSError:
                    pass
            else:
                self.process.kill()
            self.process.join()
        self.conn.close()
        self.child.close()


def _process_sweep(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    workers: int,
    shard_size: Optional[int],
    retry: Optional[RetryPolicy],
    deadline: Optional[DeadlinePolicy],
) -> List[SweepResult]:
    """Sharded process sweep on the fleet's lease protocol.

    Up to ``workers`` worker processes fork from the parent (which
    starts no threads) and unpickle the sweep function, points and
    retry policy once, then each holds one ``(start, stop)`` lease at a
    time over a pipe, and its results merge by global index as soon as it
    returns — bit-identical to the serial path, since nothing about a
    point's computation depends on which worker ran it.  A worker whose
    process exits (``BrokenProcessPool``), or whose lease outlives
    ``deadline.timeout x retry attempts x points + grace`` (the pool
    budget), is killed; only its lease fails, through
    :func:`_fail_lease` with a quarantine threshold of one, and a fresh
    worker takes its place.  A Ctrl-C kills the busy workers, stops the
    idle ones and raises :class:`SweepInterrupted` with every merged
    point.
    """
    pending = _shard(points, workers, shard_size)
    per_point, grace = math.inf, 0.0  # the budget of one point: deadline x attempts
    if deadline is not None:
        per_point = deadline.timeout * (retry.max_attempts if retry is not None else 1)
        grace = deadline.grace
    results: Dict[int, SweepResult] = {}
    strikes: Dict[int, int] = {}
    holders: List[_Leaseholder] = []
    try:
        payload = pickle.dumps((fn, points, retry), protocol=pickle.HIGHEST_PROTOCOL)
        while True:
            for holder in [holder for holder in holders if holder.lease is None]:
                if pending and not holder.grant(pending, per_point, grace):
                    holder.stop()  # died while idle: a fresh worker takes the lease
                    holders.remove(holder)
            while pending and len(holders) < workers:
                # Listed before its fork, so a Ctrl-C cannot orphan the
                # worker; the lease waits in the pipe until it reads it.
                holders.append(_Leaseholder(payload))
                holders[-1].grant(pending, per_point, grace)
                holders[-1].start()
            busy = [holder for holder in holders if holder.lease is not None]
            if not busy:  # nothing pending either: every point is in
                break
            wait = min(holder.cutoff for holder in busy) - time.monotonic()
            ready = _wait_ready(
                [holder.conn for holder in busy]
                + [holder.process.sentinel for holder in busy],
                None if wait == math.inf else max(0.0, wait),
            )
            now = time.monotonic()
            for holder in busy:
                start, stop = holder.lease
                shard = holder.receive() if holder.conn in ready else None
                if shard is not None:
                    results.update(zip(range(start, stop), shard))
                    holder.lease = None
                    continue
                died = holder.conn in ready or holder.process.sentinel in ready
                if not died and now < holder.cutoff:
                    continue
                holder.stop()
                holders.remove(holder)
                if died:
                    reason = (
                        f"BrokenProcessPool: worker process exited with code"
                        f" {holder.process.exitcode} while holding [{start}:{stop})"
                    )
                else:
                    reason = (
                        f"DeadlineExceeded: lease [{start}:{stop}) still running"
                        f" after its {holder.cutoff - holder.granted:.6g}s pool budget"
                    )
                if _fail_lease(pending, strikes, start, stop, 1):
                    results[start] = SweepResult(
                        point=points[start],
                        value=None,
                        seconds=now - holder.granted,
                        error=reason,
                        attempts=strikes[start],
                    )
    except KeyboardInterrupt:
        raise SweepInterrupted(
            [results[index] for index in sorted(results)]
        ) from None
    finally:
        for holder in holders:
            holder.stop()
    return [results[index] for index in range(len(points))]


def sweep(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    executor: str = "serial",
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

    ``executor="process"`` leases *shards* (contiguous chunks of
    ``shard_size`` points, see :func:`_shard`) to forked worker
    processes and merges the ordered shard results; the serial
    executor ignores ``shard_size``, and so does a one-point sweep,
    which runs in-process on any executor but ``"remote"``.  The
    process path survives worker crashes and lease deadline overruns —
    see :func:`_process_sweep`.

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
    shut down cleanly (workers stopped, remote job cancelled — no
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
    else:
        workers = max_workers or min(len(points), os.cpu_count() or 1)
        results = _process_sweep(
            fn,
            points,
            workers=workers,
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
        )
    if on_error == "raise":
        _raise_first_failure(results)
    return results


def _raise_first_failure(results: Sequence[SweepResult]) -> None:
    """``on_error="raise"``: raise for the first failed point."""
    for result in results:
        if not result.ok:
            raise RuntimeError(f"sweep point {result.point!r} failed: {result.error}")


def validate_backend(
    backend: str, theta: Optional[float], error: type = ValueError
) -> None:
    """Reject an unknown checking backend (naming the choices), a
    threshold outside (0, 1), or SPRT without one.

    ``error`` is the ``ValueError`` subclass to raise, as for
    :func:`validate_executor`.
    """
    if backend not in CHECK_BACKENDS:
        raise error(
            f"unknown backend {backend!r}; choose from {', '.join(CHECK_BACKENDS)}"
        )
    if theta is not None and not 0.0 < theta < 1.0:
        raise error(f"theta must be in (0, 1), got {theta}")
    if backend == "sprt" and theta is None:
        raise error("backend='sprt' needs a threshold theta")


def check_value(
    chain,
    formula,
    backend: str,
    *,
    theta: Optional[float] = None,
    smc: Optional[SmcConfig] = None,
    solver=None,
    engine=None,
    seed=None,
) -> Any:
    """Check ``formula`` on ``chain`` with one of :data:`CHECK_BACKENDS`.

    The one exact/APMC/SPRT dispatch: every :func:`sweep_check` point
    (on any executor, the worker fleet and a ``/guarantee`` miss
    included) and :meth:`repro.core.PerformanceAnalyzer.check` run
    through it.  Returns the bare value :func:`sweep_check` documents:
    the checked number for ``"exact"``, an
    :class:`~repro.smc.ApmcResult` for ``"apmc"``, an
    :class:`~repro.smc.SprtResult` of ``P >= theta`` for ``"sprt"``.

    An exact check solves through ``engine`` or a private engine of
    ``solver``, never both.  A statistical check takes its accuracy
    from ``smc`` and draws from ``seed``; ``engine`` then shares the
    chain's alias tables across checks.
    """
    # Imported per call: repro.smc/pctl import the engine package.
    from ..pctl import check as exact_check
    from ..smc import smc_decide, smc_estimate

    validate_backend(backend, theta)
    if backend == "exact":
        return exact_check(chain, formula, engine=engine, config=solver).value
    config = SmcConfig.coerce(smc)
    if backend == "apmc":
        return smc_estimate(
            chain,
            formula,
            epsilon=config.epsilon,
            delta=config.delta,
            seed=seed,
            batch=config.batch,
            engine=engine,
        )
    return smc_decide(
        chain,
        formula,
        theta=theta,
        half_width=config.half_width,
        alpha=config.alpha,
        beta=config.beta,
        seed=seed,
        engine=engine,
    )


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
    index, point = entry
    return check_value(
        build(point),
        formula,
        backend,
        theta=theta,
        smc=config,
        solver=solver,
        seed=seeds[index],
    )


def check_job(
    build: Callable[[Any], Any],
    tree,
    count: int,
    *,
    backend: str,
    theta: Optional[float],
    smc: SmcConfig,
    solver,
) -> functools.partial:
    """The sweep function of one check over a grid of ``count`` points
    (:attr:`CheckPlan.job`, so a sweep and a ``/guarantee`` miss ship
    the same job).

    A partial over the module-level :func:`_check_point` (looked up at
    call time, so a patched one takes effect) carrying the parsed
    formula ``tree``, so no point re-parses it.  Statistical backends
    get one seed stream per grid index, spawned from ``smc.seed``; an
    exact job ships ``[None] * count``, since an exact check reads no
    seed (a worker running an older ``_check_point`` still indexes the
    list).
    """
    if backend == "exact":
        seeds = [None] * count
    else:
        seeds = np.random.SeedSequence(smc.seed).spawn(count)
    # partial over a module-level runner (not a closure) so
    # executor="process" and the fleet can pickle the sweep function.
    return functools.partial(
        _check_point,
        build=build,
        formula=tree,
        backend=backend,
        theta=theta,
        config=smc,
        solver=solver,
        seeds=seeds,
    )


def _canonical_point(point: Any) -> str:
    """Canonical text identity of one point, for duplicate detection.

    Mappings are keyed order-insensitively; objects JSON cannot encode
    fall back to ``repr`` — identical reprs are treated as the same
    point, which is exact for the literal-valued parameter dicts grids
    are made of.
    """
    return json.dumps(point, sort_keys=True, default=repr)


class CheckPlan:
    """The half of :func:`sweep_check` before the fan-out.

    Constructing one validates the backend, parses ``formula`` once,
    dedupes the points, keys each distinct point in :attr:`queries`
    (``{grid index: (scenario, formula, backend, config)}``, the
    scenario from ``store_key``) and, with a ``store``, reads them all
    with one ``get_many``: hits land in :attr:`cached` and the rest in
    :attr:`misses`.  :attr:`job` runs the misses and is built on first
    use, so a fully warm plan builds none; :meth:`finish` is the other
    half.
    """

    def __init__(
        self,
        build: Callable[[Any], Any],
        points: Sequence[Any],
        formula,
        *,
        backend: str = "exact",
        theta: Optional[float] = None,
        smc: Optional[SmcConfig] = None,
        solver=None,
        store=None,
        store_key: Optional[Callable[[Any], Any]] = None,
        store_extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        # deferred: repro.pctl and repro.store import the engine
        from ..pctl import StateFormula, parse_formula
        from ..store import check_fingerprint

        validate_backend(backend, theta)
        self.tree = formula if isinstance(formula, StateFormula) else parse_formula(formula)
        self.formula = str(self.tree)
        self.points = list(points)
        self.build, self.backend, self.theta, self.solver = build, backend, theta, solver
        self.smc = SmcConfig.coerce(smc)
        self.store, self.store_extra = store, store_extra

        # Deduplicate: each distinct canonical point is solved exactly
        # once, at its first grid index (which also pins its seed stream).
        first: Dict[str, int] = {}
        self._first_of = [
            first.setdefault(_canonical_point(point), index)
            for index, point in enumerate(self.points)
        ]
        fingerprint = check_fingerprint(
            backend, smc=self.smc, solver=solver, theta=theta
        )
        key_of = store_key if store_key is not None else lambda point: point
        self.queries: Dict[int, Tuple[Any, str, str, Any]] = {
            index: (key_of(self.points[index]), self.formula, backend, fingerprint)
            for index in first.values()
        }
        self.cached: Dict[int, SweepResult] = {}
        if store is not None:
            found = store.get_many(list(self.queries.values()))
            for index, row in zip(self.queries, found):
                if row is not None:
                    self.cached[index] = SweepResult(
                        point=self.points[index],
                        value=row.value,
                        seconds=row.seconds,
                        cached=True,
                    )
        self.misses = [index for index in self.queries if index not in self.cached]

    @functools.cached_property
    def job(self) -> functools.partial:
        """The sweep function (:func:`check_job`) of the ``(grid index,
        point)`` entries of :attr:`misses`."""
        return check_job(
            self.build, self.tree, len(self.points),
            backend=self.backend, theta=self.theta, smc=self.smc,
            solver=self.solver,
        )

    def bank(self, index: int, result: SweepResult) -> None:
        """Write one computed point to the store under its query."""
        # Failures are never banked: a quarantined or timed-out point
        # must be recomputed on the next run, not served as a warm hit.
        if self.store is not None and result.ok:
            scenario, formula, backend, config = self.queries[index]
            self.store.put(
                scenario,
                formula,
                result.value,
                backend=backend,
                config=config,
                seconds=result.seconds,
                extra=self.store_extra,
            )

    def finish(self, computed: Sequence[SweepResult]) -> List[SweepResult]:
        """The half after the fan-out, given the results of the
        :attr:`misses` entries in order: bank the successes, unwrap the
        entries, validate every value, and return one result per point
        (duplicates share their first occurrence's)."""
        by_index = dict(self.cached)
        for index, result in zip(self.misses, computed):
            self.bank(index, result)
            result.point = result.point[1]  # unwrap the (index, point) plumbing
            by_index[index] = result

        kind = formula_kind(self.tree)
        for result in by_index.values():
            if result.ok:
                result.warnings = validate_guarantee(result.value, kind=kind)

        results = []
        for index, (point, first) in enumerate(zip(self.points, self._first_of)):
            source = by_index[first]
            if source.point is point or first == index:
                results.append(source)
            else:  # duplicate point: share the solve, keep the caller's object
                results.append(dataclass_replace(source, point=point))
        return results

    def run(self, *, on_error: str = "capture", **options) -> List[SweepResult]:
        """:func:`sweep` the misses with ``options`` (``executor``,
        ``retry``, ...), then :meth:`finish`; ``on_error="raise"``
        raises for the first failed point."""
        computed: List[SweepResult] = []
        if self.misses:
            entries = [(index, self.points[index]) for index in self.misses]
            try:
                computed = sweep(self.job, entries, on_error="capture", **options)
            except SweepInterrupted as interrupt:
                # Ctrl-C: bank every successful partial before
                # propagating, so a --store sweep resumes from exactly
                # where it was cut off.
                for result in interrupt.partial:
                    if isinstance(result.point, tuple):
                        self.bank(result.point[0], result)
                raise
        results = self.finish(computed)
        if on_error == "raise":
            _raise_first_failure(results)
        return results


def sweep_check(
    build: Callable[[Any], Any],
    points: Sequence[Any],
    formula,
    *,
    backend: str = "exact",
    theta: Optional[float] = None,
    smc: Optional[SmcConfig] = None,
    solver=None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    on_error: str = "capture",
    shard_size: Optional[int] = None,
    store=None,
    store_key: Optional[Callable[[Any], Any]] = None,
    store_extra: Optional[Dict[str, Any]] = None,
    retry: Union[RetryPolicy, int, None] = None,
    deadline: Union[DeadlinePolicy, float, None] = None,
    remote: Optional[str] = None,
) -> List[SweepResult]:
    """Check one pCTL ``formula`` across a grid of models.

    ``build(point)`` constructs the DTMC of one scenario point; the
    chosen ``backend`` then checks ``formula`` against it through
    :func:`check_value`:

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
        (``theta`` is required, in (0, 1)).  ``value`` is an
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

    ``formula`` is pCTL text or its parsed tree.  Text is parsed once,
    up front (a :class:`~repro.pctl.PctlSyntaxError` raises before any
    store traffic or worker starts): every point is checked against
    that tree, and keyed and banked under its canonical text
    ``str(parse_formula(formula))``, so two spellings of one property
    share one store row.

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
    :mod:`repro.resilience` into the underlying runner.  Every emitted
    value is passed through :func:`repro.resilience.validate_guarantee`
    and violations (NaN/Inf, out-of-range probabilities) are attached
    to the result's ``warnings`` — downgraded to structured records,
    never silently accepted and never raised.

    It is a :class:`CheckPlan` and its :meth:`~CheckPlan.run`.
    """
    validate_executor(executor)
    plan = CheckPlan(
        build, points, formula,
        backend=backend, theta=theta, smc=smc, solver=solver,
        store=store, store_key=store_key, store_extra=store_extra,
    )
    return plan.run(
        executor=executor, max_workers=max_workers, on_error=on_error,
        shard_size=shard_size, retry=retry, deadline=deadline, remote=remote,
    )


def sweep_values(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    executor: str = "serial",
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
