"""Client side of ``executor="remote"``: submit, wait, merge.

:func:`remote_sweep` is what :func:`repro.engine.sweep` calls when a
sweep names the remote executor: the sweep function and point list are
shipped to a coordinator, workers chew through shard leases, and the
client waits at the coordinator for progress (each ``collect`` parks
until more points land) until every global index is accounted for — as a decoded
:class:`~repro.engine.SweepResult` streamed back by a worker, or as a
quarantine record for a point that kept killing its workers.  The
merge is by grid index, so the returned list is bit-identical to the
serial path (per-point seed streams are already spawned by index; no
part of a point's computation depends on where it ran).

Ctrl-C cancels the job on the coordinator (workers finish their
current shard and go idle; nothing is orphaned) and raises
:class:`~repro.engine.SweepInterrupted` carrying every already-merged
result, so :func:`repro.engine.sweep_check` can bank the partials
before the interrupt propagates.

Every coordinator round trip goes through a
:class:`~repro.resilience.RetryPolicy`-driven retry loop
(:data:`DEFAULT_CLIENT_RETRY`): transient transport failures — a
refused connection while the coordinator restarts, a corrupt frame, a
reset — back off and retry, and only an exhausted budget surfaces as
the typed :class:`~repro.service.wire.ServiceUnavailable`.  An
application-level :class:`~repro.service.wire.RemoteError` (unknown
job, salt mismatch) is *never* retried.  The budget is sized to ride
through a coordinator crash + journal replay, so an in-flight
``executor="remote"`` sweep keeps collecting straight across the restart.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from ..engine.sweep import SweepInterrupted, SweepResult
from ..resilience.policies import DeadlinePolicy, RetryPolicy
from .wire import (
    RemoteError,
    ServiceUnavailable,
    WireError,
    decode_result,
    encode,
    request,
)

__all__ = [
    "remote_sweep",
    "service_stats",
    "kill_worker",
    "call_with_retry",
    "DEFAULT_CLIENT_RETRY",
]

#: Retry budget for one coordinator round trip: ~18 s of jittered
#: exponential backoff, comfortably spanning a coordinator SIGKILL +
#: restart + journal replay.
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=10, backoff=0.1, backoff_factor=2.0, max_backoff=3.0,
    jitter=0.25,
)

#: Longest one ``collect`` parks at the coordinator waiting for progress.
_COLLECT_WAIT = 5.0

#: Pause after a ``collect`` that came back early with no progress (a
#: coordinator that ignores ``wait``), so such a client never spins.
_NO_PROGRESS_PAUSE = 0.05


def call_with_retry(
    connect: str,
    message: Dict[str, Any],
    *,
    retry: "RetryPolicy | int | None" = DEFAULT_CLIENT_RETRY,
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One coordinator round trip under a retry budget.

    Transport failures (``ConnectionRefusedError``, resets, timeouts,
    corrupt frames) are retried with deterministic jittered backoff;
    :class:`RemoteError` propagates immediately (the coordinator *did*
    answer — retrying an application rejection cannot help).  When the
    budget is spent, the chain of failures collapses into one typed
    :class:`ServiceUnavailable`.
    """
    policy = RetryPolicy.coerce(retry)
    if policy is None:
        return request(connect, message, timeout=timeout)
    key = str(message.get("type", "request"))
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return request(connect, message, timeout=timeout)
        except RemoteError:
            raise
        except (WireError, OSError) as exc:
            last = exc
            if attempt >= policy.max_attempts:
                break
            time.sleep(policy.delay(key, attempt))
    raise ServiceUnavailable(
        f"coordinator at {connect} unreachable after"
        f" {policy.max_attempts} attempts ({key!r}): {last}"
    ) from last


def _merge(
    points: Sequence[Any], snapshot: Dict[str, Any]
) -> Dict[int, SweepResult]:
    """Decode one job snapshot into ``{index: SweepResult}``."""
    merged: Dict[int, SweepResult] = {}
    for text, encoded in snapshot.get("results", {}).items():
        merged[int(text)] = decode_result(encoded)
    for text, record in snapshot.get("quarantined", {}).items():
        index = int(text)
        merged[index] = SweepResult(
            point=points[index],
            value=None,
            seconds=0.0,
            error=record.get("error", "WorkerLost: lease expired"),
            attempts=int(record.get("attempts", 1)),
        )
    return merged


def remote_sweep(
    fn: Any,
    points: Sequence[Any],
    *,
    connect: str,
    shard_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[DeadlinePolicy] = None,
    timeout: Optional[float] = None,
    meta: Optional[Dict[str, Any]] = None,
    connect_retry: "RetryPolicy | int | None" = DEFAULT_CLIENT_RETRY,
) -> List[SweepResult]:
    """Run one sweep on a worker fleet; blocks until merged.

    ``retry`` ships to the workers (in-worker attempts, exactly the
    process executor's contract); ``deadline`` becomes the per-point
    lease budget (``timeout x attempts``; the coordinator adds its
    ``lease_grace`` once per lease) that catches hung-but-heartbeating
    workers.
    ``timeout`` bounds the whole sweep — on expiry the job is cancelled
    and a ``TimeoutError`` raised.  A job that another client cancels
    returns at once: finished points keep their values and every other
    point fails with a ``Cancelled:`` error.  ``connect_retry`` is the
    *transport* budget for each coordinator round trip: collects ride
    through a coordinator restart, and only an exhausted budget raises
    :class:`ServiceUnavailable`.
    """
    points = list(points)
    if not points:
        return []
    attempts = retry.max_attempts if retry is not None else 1
    # The coordinator adds its own lease_grace once per lease.
    point_budget = deadline.timeout * attempts if deadline is not None else None
    submitted = call_with_retry(
        connect,
        {
            "type": "submit",
            "fn": encode(fn),
            "retry": encode(retry) if retry is not None else None,
            "points": [encode(point) for point in points],
            "shard_size": shard_size,
            "point_budget": point_budget,
            "meta": meta or {},
        },
        retry=connect_retry,
    )
    job = submitted["job"]
    started = time.monotonic()
    snapshot: Dict[str, Any] = {}
    seen = 0
    try:
        while True:
            wait = _COLLECT_WAIT
            if timeout is not None:
                wait = max(0.0, min(wait, started + timeout - time.monotonic()))
            asked = time.monotonic()
            snapshot = call_with_retry(
                connect,
                {"type": "collect", "job": job, "wait": wait, "since": seen},
                retry=connect_retry,
                timeout=wait + 30.0,
            )
            if snapshot.get("done") or snapshot.get("status") == "cancelled":
                break
            if timeout is not None and time.monotonic() - started >= timeout:
                call_with_retry(
                    connect,
                    {"type": "cancel", "job": job},
                    retry=connect_retry,
                )
                raise TimeoutError(
                    f"remote sweep {job} incomplete after {timeout:.6g}s"
                    f" ({snapshot.get('completed', 0)}/{len(points)} points)"
                )
            completed = int(snapshot.get("completed", 0))
            if completed <= seen:
                early = wait - (time.monotonic() - asked)
                time.sleep(max(0.0, min(early, _NO_PROGRESS_PAUSE)))
            seen = completed
    except KeyboardInterrupt:
        try:
            snapshot = request(connect, {"type": "cancel", "job": job})
        except Exception:  # noqa: BLE001 - best effort on the way out
            pass
        partial = _merge(points, snapshot)
        raise SweepInterrupted(
            [partial[index] for index in sorted(partial)]
        ) from None
    merged = _merge(points, snapshot)
    return [
        merged[index] if index in merged else SweepResult(
            point=points[index],
            value=None,
            seconds=0.0,
            error=f"Cancelled: remote job {job} was cancelled",
        )
        for index in range(len(points))
    ]


def service_stats(
    connect: str,
    *,
    retry: "RetryPolicy | int | None" = DEFAULT_CLIENT_RETRY,
) -> Dict[str, Any]:
    """The coordinator's worker/job stats (the ``/stats`` core)."""
    return call_with_retry(connect, {"type": "stats"}, retry=retry)


def kill_worker(connect: str, worker: Optional[str] = None) -> str:
    """Order one worker (by id, or any) to die on its next poll.

    The over-the-wire chaos primitive used by
    :meth:`repro.resilience.FaultInjector.kill_remote`; returns the
    condemned worker's id.  Deliberately *not* retried: chaos tooling
    should see the coordinator's true availability.
    """
    reply = request(
        connect, {"type": "kill", "worker": worker or "any"}
    )
    return reply["worker"]
