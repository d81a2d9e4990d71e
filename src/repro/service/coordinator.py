"""The shard coordinator: leases, heartbeats, and crash recovery.

The coordinator serves the process executor's lease protocol
(:func:`repro.engine.sweep._process_sweep`) over TCP: a sweep job
arrives as a pickled sweep function plus an encoded point list, is
chunked into contiguous *shard leases* by the same
:func:`~repro.engine.sweep._shard`, and workers pull leases, compute
them through the ordinary fabric (``_run_shard``, so retry policies
apply in-worker unchanged), and stream results back.  Results merge by
global grid index, so the assembled sweep is bit-identical to the
serial path no matter which worker ran what, how leases were split,
or how many workers died along the way.

Fault model — exactly the process executor's, stretched over TCP, with
the one bisection rule both share
(:func:`~repro.engine.sweep._fail_lease`):

* a worker that stops heartbeating (SIGKILL, OOM, unplugged host) has
  its leases *reassigned*: the reaper requeues them for the next
  worker, splitting multi-point ranges in half so repeated deaths
  bisect down to a poisoned point;
* a single-point lease that keeps dying is *quarantined* after
  ``quarantine_strikes`` expiries (the process executor quarantines
  on the first) — the client receives a
  :class:`~repro.engine.SweepResult` carrying the failure reason and
  strike count, every other point's value untouched;
* a hung-but-heartbeating worker is caught by the per-point budget of
  a :class:`~repro.resilience.DeadlinePolicy` shipped with the job,
  the same lease budget the process executor kills a worker by;
* ordinary exceptions never reach this layer: ``_run_shard`` captures
  them into the result inside the worker.

The coordinator itself never unpickles job payloads — it forwards
opaque envelopes between client and workers.  All state lives behind
one lock; requests are short (dict bookkeeping), so a plain
:class:`socketserver.ThreadingTCPServer` front door is plenty even
with dozens of workers connected.

Push, not poll: a ``lease`` or ``collect`` message may carry a
``wait`` (seconds).  The request then parks on one condition variable
over that lock until it can be answered usefully — a shard to hand
out, a directive for the worker, progress on the job — or the wait
ends; every state change that could grant a lease or finish a point
(``submit``, a merged result, a requeue, ``cancel``, ``kill``,
``shutdown``) wakes the parked requests.  Work therefore starts
within milliseconds of its submit, and a client learns of progress as
it lands.  A message without ``wait`` is answered at once, as older
peers expect.

Durability — the coordinator itself may die.  Given a
:class:`~repro.service.journal.JobJournal`, every submitted job,
merged result and quarantine record is persisted as it happens; a
restarted coordinator *replays* the journal, re-queues only the
missing grid ranges, and resumes merging — bit-identical to an
uninterrupted run, because point values are deterministic in their
grid index and both the in-memory merge and the journal are
first-write-wins.  Each boot is stamped with a monotone **epoch**
(journal-backed when available): workers carry their registration
epoch on every message, and anything from a pre-restart epoch is
answered with a ``reregister`` directive instead of being merged — a
worker that slept through a restart can never write stale results
into the new incarnation under a recycled worker id.
"""

from __future__ import annotations

import functools
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..engine.sweep import _fail_lease, _shard
from .journal import JobJournal
from .wire import (
    PROTOCOL_VERSION,
    WireError,
    recv_message,
    send_message,
)

__all__ = ["Coordinator", "CoordinatorServer", "WorkerInfo", "Job"]


def _service_salt() -> str:
    from ..store.result_store import _default_salt

    return _default_salt()


@dataclass
class WorkerInfo:
    """One registered worker, as the coordinator sees it."""

    id: str
    name: str
    pid: int
    host: str
    registered: float
    last_seen: float
    shards_done: int = 0
    points_done: int = 0
    kill_requested: bool = False
    deregistered: bool = False

    def snapshot(self, liveness: float, now: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "pid": self.pid,
            "host": self.host,
            "alive": self.alive(liveness, now),
            "last_seen_age": round(now - self.last_seen, 3),
            "shards_done": self.shards_done,
            "points_done": self.points_done,
        }

    def alive(self, liveness: float, now: float) -> bool:
        return not self.deregistered and now - self.last_seen <= liveness


@dataclass
class _Lease:
    id: str
    worker: str
    start: int
    stop: int
    granted: float
    deadline: Optional[float]  # wall-clock cutoff from the job's budget


@dataclass
class Job:
    """One submitted sweep: payloads in, merged encoded results out."""

    id: str
    fn: Dict[str, Any]  # opaque envelope, forwarded to workers
    retry: Dict[str, Any]
    points: List[Dict[str, Any]]  # encoded, sliced into leases
    created: float
    point_budget: Optional[float]  # seconds per point (deadline x attempts)
    shard_size: Optional[int] = None  # as submitted (journal replay re-shards with it)
    meta: Dict[str, Any] = field(default_factory=dict)
    pending: List[Tuple[int, int]] = field(default_factory=list)
    leases: Dict[str, _Lease] = field(default_factory=dict)
    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    quarantined: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    strikes: Dict[int, int] = field(default_factory=dict)
    cancelled: bool = False
    on_done: Optional[Callable[["Job"], None]] = None

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def completed(self) -> int:
        return len(self.results) + len(self.quarantined)

    @property
    def done(self) -> bool:
        return self.completed >= self.total

    @property
    def status(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.done:
            return "done"
        if self.leases:
            return "running"
        return "queued" if self.pending else "running"


def _wait_of(message: Dict[str, Any]) -> Optional[float]:
    """The optional ``wait`` (seconds) of a lease or collect message."""
    wait = message.get("wait")
    if wait is None:
        return None
    try:
        return max(0.0, float(wait))
    except (TypeError, ValueError):
        raise WireError(f"wait must be a number, got {wait!r}") from None


class Coordinator:
    """Lease bookkeeping + fault recovery; serve it via
    :class:`CoordinatorServer` or drive :meth:`handle` directly.

    Parameters
    ----------
    salt:
        Cache-key salt workers must match at registration (default: the
        result store's versioned salt) — a fleet can only merge results
        that would land under the same store keys.
    heartbeat:
        Interval (seconds) workers are told to heartbeat at.
    liveness:
        Silence threshold after which a worker counts as dead and its
        leases are reassigned (default ``3 x heartbeat``).
    lease_grace:
        Extra seconds added once to each lease's budget (``point_budget
        x points``) for dispatch overhead.
    quarantine_strikes:
        Expiries of a *single-point* lease before the point is
        quarantined instead of requeued (the bisection endpoint).
    journal:
        Optional :class:`~repro.service.journal.JobJournal` (or a path
        to create one at).  With a journal, jobs/results/quarantines
        persist as they happen, the boot epoch is journal-backed, and
        open jobs are replayed on construction — the coordinator
        survives its own SIGKILL.
    epoch:
        Explicit boot epoch (tests).  Defaults to the journal's
        bumped epoch, or wall-clock seconds without one — monotone
        across realistic restarts either way.
    """

    def __init__(
        self,
        *,
        salt: Optional[str] = None,
        heartbeat: float = 1.0,
        liveness: Optional[float] = None,
        lease_grace: float = 5.0,
        quarantine_strikes: int = 2,
        journal: Optional[Union[JobJournal, "os.PathLike[str]", str]] = None,
        epoch: Optional[int] = None,
    ) -> None:
        self.salt = salt if salt is not None else _service_salt()
        self.heartbeat = heartbeat
        self.liveness = liveness if liveness is not None else 3.0 * heartbeat
        self.lease_grace = lease_grace
        self.quarantine_strikes = quarantine_strikes
        self.workers: Dict[str, WorkerInfo] = {}
        self.jobs: Dict[str, Job] = {}
        self.started = time.time()
        self._lock = threading.Lock()
        # Parked lease and collect requests wait here; every state
        # change that could answer one notifies it.
        self._changed = threading.Condition(self._lock)
        self._counter = 0
        self._shutting_down = False
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self.journal = journal
        if epoch is not None:
            self.epoch = int(epoch)
        elif journal is not None:
            self.epoch = journal.bump_epoch()
        else:
            self.epoch = int(time.time())
        if journal is not None:
            self._replay(journal)

    def _replay(self, journal: JobJournal) -> None:
        """Rebuild open jobs from the journal: merged results kept,
        missing grid ranges re-queued as fresh shard leases."""
        for record in journal.replay():
            job = Job(
                id=record.id,
                fn=record.fn,
                retry=record.retry,
                points=record.points,
                created=record.created,
                point_budget=record.point_budget,
                shard_size=record.shard_size,
                meta=dict(record.meta, replayed_epoch=self.epoch),
                results=dict(record.results),
                quarantined=dict(record.quarantined),
            )
            # Lease-sized shards, so one long missing run is not one lease.
            job.pending = _shard(
                job.points, 1, job.shard_size, record.missing_ranges()
            )
            self.jobs[job.id] = job
            if job.done:  # crashed between the last merge and record_done
                journal.record_done(job.id)
            # Keep fresh ids clear of replayed ones ("job-7" and later
            # "w3"/"lease-9" share one counter).
            suffix = job.id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._counter = max(self._counter, int(suffix))

    # -- id / shard helpers ------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _live_workers(self, now: Optional[float] = None) -> int:
        now = now if now is not None else time.time()
        return sum(
            1 for w in self.workers.values() if w.alive(self.liveness, now)
        )

    def _shards(self, count: int, shard_size: Optional[int]) -> List[Tuple[int, int]]:
        """Contiguous index ranges, ~4 shards per live worker by default
        (the process executor's sizing, with the pool size replaced by
        whoever is registered right now)."""
        try:
            return _shard(range(count), max(1, self._live_workers()), shard_size)
        except ValueError as exc:
            raise WireError(str(exc)) from None

    # -- submission / collection (client side) -----------------------------

    def submit(
        self,
        fn: Dict[str, Any],
        points: List[Dict[str, Any]],
        *,
        retry: Optional[Dict[str, Any]] = None,
        shard_size: Optional[int] = None,
        point_budget: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
        on_done: Optional[Callable[[Job], None]] = None,
    ) -> str:
        """Enqueue one sweep job; returns its id.

        With a journal the job is persisted *before* the id is handed
        out — a client holding a job id can always :meth:`collect` it,
        even across a coordinator crash and restart.
        """
        with self._lock:
            if self._shutting_down:
                raise WireError("coordinator is shutting down")
            job = Job(
                id=self._next_id("job-"),
                fn=fn,
                retry=retry or {},
                points=list(points),
                created=time.time(),
                point_budget=point_budget,
                shard_size=shard_size,
                meta=dict(meta or {}),
                on_done=on_done,
            )
            job.pending = self._shards(len(points), shard_size)
            self.jobs[job.id] = job
            if self.journal is not None:
                self.journal.record_submit(
                    job.id,
                    fn=job.fn,
                    retry=job.retry,
                    points=job.points,
                    created=job.created,
                    point_budget=job.point_budget,
                    shard_size=job.shard_size,
                    meta=job.meta,
                )
            self._changed.notify_all()
            return job.id

    def collect(
        self,
        job_id: str,
        *,
        wait: Optional[float] = None,
        since: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Snapshot of one job: status plus every encoded result so far.

        With ``wait`` (seconds) the call first blocks until more than
        ``since`` points are complete (default: as many as when the
        call arrived), the job is done or cancelled, the coordinator
        shuts down, or the wait ends.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise WireError(f"unknown job {job_id!r}")
            if wait is not None:
                seen = job.completed if since is None else since
                until = time.monotonic() + wait
                while not (
                    job.done
                    or job.cancelled
                    or job.completed > seen
                    or self._shutting_down
                ):
                    remaining = until - time.monotonic()
                    if remaining <= 0:
                        break
                    self._changed.wait(remaining)
            return {
                "type": "job",
                "job": job.id,
                "status": job.status,
                "done": job.done,
                "total": job.total,
                "completed": job.completed,
                "meta": dict(job.meta),
                "results": {str(i): r for i, r in job.results.items()},
                "quarantined": {
                    str(i): q for i, q in job.quarantined.items()
                },
            }

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job: pending shards dropped, partials kept."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise WireError(f"unknown job {job_id!r}")
            job.cancelled = True
            job.pending = []
            job.leases = {}
            if self.journal is not None:
                self.journal.record_cancelled(job_id)
            self._changed.notify_all()
        return self.collect(job_id)

    # -- fault recovery ----------------------------------------------------

    def reap(self, now: Optional[float] = None) -> int:
        """Expire leases of dead workers and blown budgets; returns the
        number of leases reassigned or quarantined.

        Run periodically by :class:`CoordinatorServer`; callable
        directly (with a synthetic ``now``) from tests.
        """
        now = now if now is not None else time.time()
        reaped = 0
        with self._lock:
            for job in self.jobs.values():
                for lease in list(job.leases.values()):
                    worker = self.workers.get(lease.worker)
                    dead = worker is None or not worker.alive(
                        self.liveness, now
                    )
                    overrun = lease.deadline is not None and now > lease.deadline
                    if not (dead or overrun):
                        continue
                    reason = (
                        f"WorkerLost: worker {lease.worker} stopped"
                        f" heartbeating while holding"
                        f" [{lease.start}:{lease.stop})"
                        if dead
                        else f"DeadlineExceeded: lease [{lease.start}:"
                        f"{lease.stop}) still running after its"
                        f" {lease.deadline - lease.granted:.6g}s budget"
                    )
                    del job.leases[lease.id]
                    self._requeue(job, lease.start, lease.stop, reason)
                    reaped += 1
        return reaped

    def _requeue(self, job: Job, start: int, stop: int, reason: str) -> None:
        """Apply the shared bisection rule to a lost lease, quarantining
        a single point that has used up its strikes."""
        if _fail_lease(job.pending, job.strikes, start, stop, self.quarantine_strikes):
            job.quarantined[start] = {"error": reason, "attempts": job.strikes[start]}
            if self.journal is not None:
                self.journal.record_quarantine(job.id, start, job.quarantined[start])
            self._maybe_finish(job)
        self._changed.notify_all()

    def _maybe_finish(self, job: Job) -> None:
        # Called with the lock held; the callback runs without it so a
        # store-banking frontend callback cannot deadlock the server.
        if not job.done:
            return
        if self.journal is not None:
            self.journal.record_done(job.id)
        if job.on_done is not None:
            callback, job.on_done = job.on_done, None
            threading.Thread(
                target=callback, args=(job,), daemon=True,
                name=f"job-done-{job.id}",
            ).start()

    # -- message handling (worker + client side) ---------------------------

    def handle(
        self,
        message: Dict[str, Any],
        *,
        gone: Optional[Callable[[], bool]] = None,
    ) -> Dict[str, Any]:
        """Dispatch one wire message to its handler; error replies for
        anything malformed, so a confused peer cannot wedge the server.

        ``gone`` tells whether the requesting peer has hung up; a
        parked lease checks it before granting work, so a worker that
        died while parked is not handed a shard.
        """
        handlers = {
            "register": self._on_register,
            "heartbeat": self._on_heartbeat,
            "lease": functools.partial(self._on_lease, gone=gone),
            "result": self._on_result,
            "deregister": self._on_deregister,
            "submit": self._on_submit,
            "collect": self._on_collect,
            "cancel": self._on_cancel,
            "stats": self._on_stats,
            "kill": self._on_kill,
            "shutdown": self._on_shutdown,
        }
        handler = handlers.get(message.get("type"))
        if handler is None:
            return {
                "type": "error",
                "error": f"unknown message type {message.get('type')!r}",
            }
        try:
            return handler(message)
        except WireError as exc:
            return {"type": "error", "error": str(exc)}

    def _on_register(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if message.get("protocol") != PROTOCOL_VERSION:
            raise WireError(
                f"protocol mismatch: coordinator speaks v{PROTOCOL_VERSION},"
                f" worker speaks v{message.get('protocol')}"
            )
        if message.get("salt") != self.salt:
            raise WireError(
                f"salt mismatch: coordinator caches under {self.salt!r},"
                f" worker under {message.get('salt')!r} — results would not"
                f" be cache-compatible"
            )
        now = time.time()
        with self._lock:
            worker = WorkerInfo(
                id=self._next_id("w"),
                name=message.get("name") or "",
                pid=int(message.get("pid", 0)),
                host=str(message.get("host", "")),
                registered=now,
                last_seen=now,
            )
            self.workers[worker.id] = worker
        return {
            "type": "welcome",
            "worker": worker.id,
            "heartbeat": self.heartbeat,
            "salt": self.salt,
            "protocol": PROTOCOL_VERSION,
            "epoch": self.epoch,
        }

    def _touch(self, worker_id: str) -> Optional[WorkerInfo]:
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker.last_seen = time.time()
        return worker

    def _fence(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Reject messages from a pre-restart epoch.

        Worker ids are per-boot counters, so after a restart an old
        worker's id may *collide* with a fresh registration's — the
        epoch stamp is what tells a recycled id from a live one.  A
        stale peer is told to re-register (its reconnect loop handles
        that); its message is never merged or trusted.
        """
        stamped = message.get("epoch")
        if stamped is not None and int(stamped) == self.epoch:
            return None
        return {
            "type": "reregister",
            "reason": (
                f"stale epoch {stamped!r} (coordinator is at {self.epoch})"
                " — results from a previous incarnation are fenced off"
            ),
            "epoch": self.epoch,
        }

    def _directive(self, worker: Optional[WorkerInfo]) -> Optional[Dict[str, Any]]:
        """A pending order for this worker, if any."""
        if worker is None:
            # Unknown id (e.g. coordinator restarted): re-register.
            return {
                "type": "reregister",
                "reason": "unknown worker — re-register",
                "epoch": self.epoch,
            }
        if worker.kill_requested or self._shutting_down:
            worker.deregistered = True
            return {"type": "die", "reason": "coordinator ordered shutdown"}
        return None

    def _on_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            fenced = self._fence(message)
            if fenced is not None:
                return fenced
            worker = self._touch(str(message.get("worker")))
            return self._directive(worker) or {"type": "ok"}

    def _on_deregister(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            worker = self.workers.get(str(message.get("worker")))
            if worker is not None:
                worker.deregistered = True
        return {"type": "ok"}

    def _on_lease(
        self,
        message: Dict[str, Any],
        gone: Optional[Callable[[], bool]] = None,
    ) -> Dict[str, Any]:
        wait = _wait_of(message)
        with self._lock:
            fenced = self._fence(message)
            if fenced is not None:
                return fenced
            worker = self._touch(str(message.get("worker")))
            # Parked: heartbeats keep the worker alive meanwhile, so a
            # wait of up to one heartbeat changes nothing for the reaper.
            # Without a wait, the idle reply asks back after a heartbeat.
            until = time.monotonic() + min(wait or 0.0, self.heartbeat)
            idle = {"type": "idle", "poll": self.heartbeat if wait is None else 0}
            while True:
                if gone is not None and gone():
                    return idle  # no one left to hand work to
                reply = self._directive(worker) or self._grant(worker)
                if reply is not None:
                    return reply
                remaining = until - time.monotonic()
                if remaining <= 0:
                    return idle
                self._changed.wait(remaining)

    def _grant(self, worker: WorkerInfo) -> Optional[Dict[str, Any]]:
        """Lease the oldest job's next pending shard to ``worker``."""
        now = time.time()
        for job in sorted(self.jobs.values(), key=lambda j: j.created):
            if job.cancelled or not job.pending:
                continue
            start, stop = job.pending.pop(0)
            deadline = None
            if job.point_budget is not None:
                deadline = now + job.point_budget * (stop - start) + self.lease_grace
            lease = _Lease(
                id=self._next_id("lease-"),
                worker=worker.id,
                start=start,
                stop=stop,
                granted=now,
                deadline=deadline,
            )
            job.leases[lease.id] = lease
            return {
                "type": "shard",
                "job": job.id,
                "lease": lease.id,
                "start": start,
                "stop": stop,
                "fn": job.fn,
                "retry": job.retry,
                "points": job.points[start:stop],
            }
        return None

    def _on_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            fenced = self._fence(message)
            if fenced is not None:
                return fenced  # stale epoch: nothing of this is merged
            worker = self._touch(str(message.get("worker")))
            job = self.jobs.get(str(message.get("job")))
            if job is None:
                raise WireError(f"unknown job {message.get('job')!r}")
            job.leases.pop(str(message.get("lease")), None)
            start = int(message["start"])
            results = message.get("results", [])
            accepted = []
            for offset, encoded in enumerate(results):
                index = start + offset
                # First write wins: a reassigned lease may complete
                # twice, but point values are deterministic, so either
                # copy is the same answer; quarantined slots stay put.
                if index not in job.results and index not in job.quarantined:
                    job.results[index] = encoded
                    accepted.append((index, encoded))
            if self.journal is not None and accepted:
                self.journal.record_results(job.id, accepted)
            if worker is not None:
                worker.shards_done += 1
                worker.points_done += len(results)
            self._maybe_finish(job)
            self._changed.notify_all()
            directive = self._directive(worker)
            return directive or {"type": "ok"}

    def _on_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = self.submit(
            message["fn"],
            message.get("points", []),
            retry=message.get("retry"),
            shard_size=message.get("shard_size"),
            point_budget=message.get("point_budget"),
            meta=message.get("meta"),
        )
        return {"type": "submitted", "job": job_id}

    def _on_collect(self, message: Dict[str, Any]) -> Dict[str, Any]:
        since = message.get("since")
        try:
            since = None if since is None else int(since)
        except (TypeError, ValueError):
            raise WireError(f"since must be an integer, got {since!r}") from None
        return self.collect(
            str(message.get("job")), wait=_wait_of(message), since=since
        )

    def _on_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return self.cancel(str(message.get("job")))

    def _on_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"type": "stats", **self.stats()}

    def _on_kill(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Chaos directive: order one worker (or any) to die on its next
        poll — the over-the-wire half of the fault injector."""
        target = message.get("worker") or "any"
        now = time.time()
        with self._lock:
            victims = [
                w
                for w in self.workers.values()
                if w.alive(self.liveness, now) and not w.kill_requested
            ]
            if target != "any":
                victims = [w for w in victims if w.id == target]
            if not victims:
                raise WireError(f"no live worker matches {target!r}")
            victim = victims[0]
            victim.kill_requested = True
            self._changed.notify_all()
        return {"type": "ok", "worker": victim.id}

    def _on_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._shutting_down = True
            self._changed.notify_all()
        return {"type": "ok"}

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregate worker/job view (the ``/stats`` payload core)."""
        now = time.time()
        with self._lock:
            workers = [
                w.snapshot(self.liveness, now)
                for w in self.workers.values()
                if not w.deregistered
            ]
            jobs: Dict[str, int] = {}
            for job in self.jobs.values():
                jobs[job.status] = jobs.get(job.status, 0) + 1
            return {
                "uptime": round(now - self.started, 3),
                "salt": self.salt,
                "epoch": self.epoch,
                "journal": (
                    self.journal.stats() if self.journal is not None else None
                ),
                "workers": workers,
                "workers_alive": sum(1 for w in workers if w["alive"]),
                "jobs": jobs,
                "jobs_total": len(self.jobs),
            }


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # one framed request, one framed reply
        try:
            message = recv_message(self.request)
            reply = self.server.coordinator.handle(  # type: ignore[attr-defined]
                message, gone=self._peer_gone
            )
            send_message(self.request, reply)
        except (WireError, OSError):
            pass  # a peer that vanished mid-frame is the reaper's problem

    def _peer_gone(self) -> bool:
        """Has the peer hung up?  It sends one frame per connection, so
        anything readable after that is its EOF (or a reset)."""
        timeout = self.request.gettimeout()
        self.request.setblocking(False)
        try:
            return not self.request.recv(1, socket.MSG_PEEK)
        except BlockingIOError:
            return False  # nothing to read: still waiting for its reply
        except OSError:
            return True
        finally:
            self.request.settimeout(timeout)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CoordinatorServer:
    """A :class:`Coordinator` behind a threaded TCP front door.

    >>> server = CoordinatorServer(port=0)   # ephemeral port
    >>> server.start()
    >>> server.address  # doctest: +ELLIPSIS
    '127.0.0.1:...'
    >>> server.stop()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coordinator: Optional[Coordinator] = None,
        reap_interval: Optional[float] = None,
        **coordinator_kwargs: Any,
    ) -> None:
        self.coordinator = coordinator or Coordinator(**coordinator_kwargs)
        self._server = _TCPServer((host, port), _Handler)
        self._server.coordinator = self.coordinator  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self.reap_interval = (
            reap_interval
            if reap_interval is not None
            else max(0.05, self.coordinator.heartbeat / 2.0)
        )
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "CoordinatorServer":
        serve = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="coordinator-server",
        )
        reap = threading.Thread(
            target=self._reap_loop, daemon=True, name="coordinator-reaper"
        )
        self._threads = [serve, reap]
        for thread in self._threads:
            thread.start()
        return self

    def _reap_loop(self) -> None:
        while not self._stop.wait(self.reap_interval):
            self.coordinator.reap()

    def stop(self, *, shutdown_workers: bool = True) -> None:
        """Stop serving; by default live workers are told to exit on
        their next heartbeat (no orphaned worker processes).  The server
        keeps answering until every live worker has heard the order,
        which takes at most one liveness window: a worker silent that
        long no longer counts as live."""
        if shutdown_workers:
            coordinator = self.coordinator
            coordinator._on_shutdown({})
            while True:
                with coordinator._lock:
                    if not coordinator._live_workers():
                        break
                time.sleep(0.05)
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (for tests and ``--port 0``)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]
