"""The sweep worker: pull leases, compute through the fabric, stream back.

One worker process (``repro-zoo worker --connect HOST:PORT``) runs the
loop: register with the coordinator, ask for a shard lease (an idle
worker's request parks at the coordinator for up to one heartbeat and
returns the moment work is submitted), decode
the job's sweep function, run the shard through the *existing*
fault-tolerant fabric (:func:`repro.engine.sweep._run_shard`, the
process executor's work unit, so :class:`~repro.resilience.RetryPolicy`
attempts and exception capture behave exactly as they do in a local
sweep), stream the encoded results back, repeat.  While a shard
computes, a daemon heartbeat thread keeps telling the coordinator
"still alive" — the lease reaper only reassigns work when those
heartbeats stop (the worker died) or a shipped
:class:`~repro.resilience.DeadlinePolicy` budget blows (the worker
hung).

Determinism: a worker adds nothing to the computation — the sweep
function already carries its per-point seed streams spawned by grid
index — so the merged sweep is bit-identical to the serial path no
matter which worker ran which lease, or how often leases moved.

The worker *outlives the coordinator*: a connection-refused poll, a
coordinator restart, or a ``reregister`` directive (unknown worker id
or a stale boot epoch after a restart) all feed a jittered
exponential-backoff reconnect/re-register loop driven by a
:class:`~repro.resilience.RetryPolicy` — the worker keeps polling,
re-registers under the new epoch, and resumes pulling leases without
manual intervention.  Only an *application-level* refusal (salt or
protocol mismatch) or an exhausted reconnect budget
(:class:`~repro.service.wire.ServiceUnavailable`) ends the process.

The worker exits cleanly on Ctrl-C / SIGTERM (deregistering first) and
*hard* (``os._exit``) when the coordinator orders it to die — the
over-the-wire chaos kill used by the fault-injection tests.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from typing import Any, Dict, Optional

from ..resilience.policies import RetryPolicy
from .wire import (
    PROTOCOL_VERSION,
    RemoteError,
    ServiceUnavailable,
    WireError,
    decode,
    encode_result,
    request,
)

__all__ = ["Worker", "run_worker", "DEFAULT_RECONNECT"]

#: Reconnect budget workers (and ``repro-zoo worker``) default to:
#: ~10 attempts with jittered exponential backoff capped at 2 s —
#: generously covers a coordinator restart without hammering it.
DEFAULT_RECONNECT = RetryPolicy(
    max_attempts=10, backoff=0.05, backoff_factor=2.0, max_backoff=2.0,
    jitter=0.25,
)


class Worker:
    """The lease-pulling loop; :func:`run_worker` is the CLI shape.

    Parameters
    ----------
    connect:
        Coordinator address, ``"HOST:PORT"``.
    name:
        Free-form worker name for ``/stats`` (default ``host:pid``).
    poll:
        Fallback delay before retrying a lease request that failed in
        transport.  It is not an idle interval: an idle worker sleeps
        the coordinator's ``poll`` hint, which is 0 after a parked
        request and the heartbeat from an older coordinator.
    salt:
        Cache-key salt to register under (default: this code's store
        salt) — must match the coordinator's or registration fails.
    reconnect:
        :class:`~repro.resilience.RetryPolicy` (or a bare attempt
        count) for the reconnect/re-register loop; ``None`` disables
        reconnection (one transport failure at registration is fatal —
        the PR 8 behaviour, kept for tests).
    """

    def __init__(
        self,
        connect: str,
        *,
        name: Optional[str] = None,
        poll: float = 0.2,
        salt: Optional[str] = None,
        reconnect: "RetryPolicy | int | None" = DEFAULT_RECONNECT,
    ) -> None:
        from ..store.result_store import _default_salt

        self.connect = connect
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.poll = poll
        self.salt = salt if salt is not None else _default_salt()
        self.reconnect = RetryPolicy.coerce(reconnect)
        self.worker_id: Optional[str] = None
        self.epoch: Optional[int] = None
        self.heartbeat_interval = 1.0
        self.shards_done = 0
        self.points_done = 0
        self.registrations = 0
        self._stop = threading.Event()

    # -- protocol steps ----------------------------------------------------

    def register(self) -> str:
        reply = request(
            self.connect,
            {
                "type": "register",
                "protocol": PROTOCOL_VERSION,
                "salt": self.salt,
                "name": self.name,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            },
        )
        self.worker_id = reply["worker"]
        self.epoch = reply.get("epoch")
        self.heartbeat_interval = float(reply.get("heartbeat", 1.0))
        self.registrations += 1
        return self.worker_id

    def reregister(self) -> Optional[str]:
        """Register under the reconnect budget's backoff schedule.

        Retries transport failures (connection refused while the
        coordinator restarts, corrupt frames, timeouts) with the
        jittered exponential backoff of ``self.reconnect``; an
        application-level refusal (:class:`RemoteError` — wrong salt,
        wrong protocol) is fatal immediately.  Returns the new worker
        id, or ``None`` when the worker was stopped while waiting;
        raises :class:`ServiceUnavailable` once the budget is spent.
        """
        if self.reconnect is None:
            return self.register()
        last: Optional[BaseException] = None
        for attempt in range(1, self.reconnect.max_attempts + 1):
            if self._stop.is_set():
                return None
            try:
                return self.register()
            except RemoteError:
                raise  # salt/protocol mismatch: retrying cannot help
            except (WireError, OSError) as exc:
                last = exc
                if attempt >= self.reconnect.max_attempts:
                    break
                delay = self.reconnect.delay(self.name, attempt) or self.poll
                if self._stop.wait(delay):
                    return None
        raise ServiceUnavailable(
            f"coordinator at {self.connect} unreachable after"
            f" {self.reconnect.max_attempts} registration attempts:"
            f" {last}"
        ) from last

    def _die(self) -> None:
        # A coordinator-ordered death is intentionally *hard*: the chaos
        # harness uses it to model SIGKILL, so no cleanup may run.
        os._exit(13)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                reply = request(
                    self.connect,
                    {
                        "type": "heartbeat",
                        "worker": self.worker_id,
                        "epoch": self.epoch,
                    },
                    timeout=self.heartbeat_interval * 4,
                )
            except (WireError, OSError):
                continue  # coordinator briefly unreachable: keep trying
            if reply.get("type") == "die":
                self._die()
            # A "reregister" directive (coordinator restarted under a new
            # epoch) is handled by the main loop's next lease poll; the
            # heartbeat thread just keeps beating.

    def _compute_shard(self, shard: Dict[str, Any]) -> Dict[str, Any]:
        """Run one leased shard through the local fabric."""
        from ..engine.sweep import _run_shard

        fn = decode(shard["fn"])
        retry_spec = shard.get("retry") or None
        retry = decode(retry_spec) if retry_spec else None
        if retry is not None and not isinstance(retry, RetryPolicy):
            retry = RetryPolicy.coerce(retry)
        results = _run_shard(fn, [decode(p) for p in shard["points"]], retry)
        self.shards_done += 1
        self.points_done += len(results)
        return {
            "type": "result",
            "worker": self.worker_id,
            "epoch": self.epoch,
            "job": shard["job"],
            "lease": shard["lease"],
            "start": shard["start"],
            "stop": shard["stop"],
            "results": [encode_result(r) for r in results],
        }

    # -- the loop ----------------------------------------------------------

    def run(self, *, max_shards: Optional[int] = None) -> int:
        """Register and serve leases until told to stop.

        ``max_shards`` bounds the number of shards served (tests);
        returns the number served.  Coordinator restarts are ridden
        out: transport failures back off under the reconnect budget,
        and ``reregister`` directives (new boot epoch, forgotten
        worker id) trigger a fresh registration mid-loop.
        """
        if self.reregister() is None:
            return 0
        beat = threading.Thread(
            target=self._heartbeat_loop, daemon=True, name="worker-heartbeat"
        )
        beat.start()
        served = 0
        failures = 0  # consecutive transport failures on the lease poll
        try:
            while not self._stop.is_set():
                if max_shards is not None and served >= max_shards:
                    break
                try:
                    # Park at the coordinator for up to one heartbeat;
                    # the heartbeat thread keeps beating meanwhile.
                    reply = request(
                        self.connect,
                        {
                            "type": "lease",
                            "worker": self.worker_id,
                            "epoch": self.epoch,
                            "wait": self.heartbeat_interval,
                        },
                        timeout=self.heartbeat_interval + 30.0,
                    )
                except RemoteError:
                    # Application-level rejection of a lease poll: our
                    # registration is somehow invalid — start over.
                    if self.reregister() is None:
                        break
                    continue
                except (WireError, OSError) as exc:
                    failures += 1
                    if (
                        self.reconnect is not None
                        and failures >= self.reconnect.max_attempts
                    ):
                        raise ServiceUnavailable(
                            f"coordinator at {self.connect} unreachable"
                            f" after {failures} consecutive poll failures:"
                            f" {exc}"
                        ) from exc
                    delay = self.poll
                    if self.reconnect is not None:
                        delay = (
                            self.reconnect.delay(self.name, failures)
                            or self.poll
                        )
                    if self._stop.wait(delay):
                        break
                    continue
                failures = 0
                kind = reply.get("type")
                if kind == "die":
                    self._die()
                if kind == "reregister":
                    if self.reregister() is None:
                        break
                    continue
                if kind != "shard":
                    if self._stop.wait(float(reply.get("poll", 0.0))):
                        break
                    continue
                result = self._compute_shard(reply)
                served += 1
                try:
                    ack = request(self.connect, result)
                except (WireError, OSError):
                    # Undeliverable results are simply lost: the lease
                    # expires and the shard re-runs deterministically.
                    continue
                if ack.get("type") == "die":
                    self._die()
                if ack.get("type") == "reregister":
                    # The coordinator restarted between lease and
                    # result: the result is dropped (the new boot will
                    # re-lease the shard, which recomputes bit-
                    # identically) and we rejoin under the new epoch.
                    if self.reregister() is None:
                        break
        finally:
            self._stop.set()
            self._deregister()
        return served

    def stop(self) -> None:
        self._stop.set()

    def _deregister(self) -> None:
        if self.worker_id is None:
            return
        try:
            request(
                self.connect,
                {"type": "deregister", "worker": self.worker_id},
                timeout=2.0,
            )
        except (WireError, OSError):
            pass  # the coordinator may already be gone


def run_worker(
    connect: str,
    *,
    name: Optional[str] = None,
    poll: float = 0.2,
    max_shards: Optional[int] = None,
    reconnect: "RetryPolicy | int | None" = DEFAULT_RECONNECT,
) -> int:
    """``repro-zoo worker`` entry point: run one worker until Ctrl-C.

    Returns a process exit code: 0 on clean shutdown (Ctrl-C, SIGTERM,
    coordinator shutdown), 2 when registration was refused (salt or
    protocol mismatch), 3 when the coordinator stayed unreachable
    through the whole reconnect budget.
    """
    worker = Worker(connect, name=name, poll=poll, reconnect=reconnect)

    def _graceful(signum: int, frame: Any) -> None:
        worker.stop()
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread (embedded worker)
        pass
    try:
        worker.run(max_shards=max_shards)
    except KeyboardInterrupt:
        return 0
    except ServiceUnavailable as exc:
        print(f"worker: {exc}", flush=True)
        return 3
    except WireError as exc:
        print(f"worker: {exc}", flush=True)
        return 2
    return 0
