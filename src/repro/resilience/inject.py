"""Deterministic fault injection for the chaos test suite.

Proving the fabric survives faults needs faults on demand:
:class:`FaultInjector` wraps any sweep function and injects a chosen
:class:`Fault` — raise an exception, hang, kill the worker process, or
corrupt the returned value — at chosen points, a chosen number of
times.  Everything is deterministic:

* *which* points fault is fixed by the injection plan (explicit
  points, or a seed-driven pseudo-random sample via :meth:`sample`);
* *how often* is tracked in a filesystem scoreboard (one ``O_EXCL``
  file per attempt), so "fail twice, then succeed" behaves identically
  whether attempts land in one process, many pool workers, or a
  re-run after a crash — exactly the cross-process bookkeeping a
  killed worker needs, since its memory dies with it.

The injector and its wrapped functions are picklable, so chaos tests
drive the real ``executor="process"`` path, not a simulation of it.

The networked fabric adds a second fault surface — the wire — so the
injector also speaks :class:`WireFault`: corrupt a frame's payload
bytes, truncate it, disconnect mid-frame, or delay it, each under the
same cross-process ``times`` scoreboard.  :meth:`FaultInjector
.send_through` perturbs an otherwise-valid frame built by
:func:`repro.service.wire.frame`, which is how the chaos tests prove
the hardened receive side turns every perturbation into a typed,
retryable error instead of a hang or a garbage parse.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

__all__ = ["Fault", "FaultInjector", "InjectedFault", "WireFault"]

_KINDS = ("raise", "hang", "kill", "corrupt")
_WIRE_KINDS = ("corrupt", "truncate", "disconnect", "delay")


class InjectedFault(RuntimeError):
    """The exception ``kind="raise"`` faults throw by default."""


@dataclass(frozen=True)
class Fault:
    """One fault specification.

    Parameters
    ----------
    kind:
        ``"raise"`` (throw ``exception(message)``), ``"hang"`` (sleep
        ``hang_seconds`` — the deadline watchdog's prey), ``"kill"``
        (``os._exit`` the worker process, bypassing all cleanup — the
        ``BrokenProcessPool`` trigger), or ``"corrupt"`` (compute
        nothing and return ``corrupt_value`` — the validation layer's
        prey).
    times:
        Inject on the first ``times`` attempts only, then behave
        normally (``None`` = always).  ``times=2`` with a 3-attempt
        retry policy models a transient failure that recovery should
        absorb.
    """

    kind: str = "raise"
    times: Optional[int] = None
    message: str = "injected fault"
    exception: type = InjectedFault
    hang_seconds: float = 3600.0
    corrupt_value: Any = float("nan")

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r};"
                f" choose from {', '.join(_KINDS)}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")


@dataclass(frozen=True)
class WireFault:
    """One wire-level fault specification.

    Parameters
    ----------
    kind:
        ``"corrupt"`` (flip one payload byte — the CRC32 check's
        prey), ``"truncate"`` (send only the first half of the frame
        and close — the mid-frame-EOF path), ``"disconnect"`` (close
        the socket before sending anything — a connection reset), or
        ``"delay"`` (sleep ``delay_seconds`` before sending the intact
        frame — injected latency for timeout paths).
    times:
        Inject on the first ``times`` sends only, then pass frames
        through untouched (``None`` = always).  Counted on the same
        cross-process ``O_EXCL`` scoreboard as compute faults, keyed
        by the fault's ``key``.
    key:
        Scoreboard identity; two wire faults with the same key share
        an attempt counter.
    delay_seconds:
        Latency for ``kind="delay"``.
    """

    kind: str = "corrupt"
    times: Optional[int] = None
    key: str = "wire"
    delay_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _WIRE_KINDS:
            raise ValueError(
                f"unknown wire fault kind {self.kind!r};"
                f" choose from {', '.join(_WIRE_KINDS)}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )


def _canonical(point: Any) -> str:
    """Canonical text identity of a point (mirrors the sweep runner's)."""
    return json.dumps(point, sort_keys=True, default=repr)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class FaultInjector:
    """Seed-driven fault plan + cross-process attempt scoreboard.

    Parameters
    ----------
    plan:
        ``{point: Fault}`` — which points fault.  Points are matched
        by canonical identity (the same JSON canonicalization the
        sweep runner deduplicates with), so one plan drives both
        ``sweep`` and ``sweep_check``.
    state_dir:
        Directory for the attempt scoreboard.  Every injection check
        claims the next ``<digest>.<n>`` file with ``O_CREAT|O_EXCL``,
        which is atomic across processes — the count survives worker
        kills and process-pool rebuilds.
    """

    def __init__(
        self,
        plan: Mapping[Any, Fault] | Iterable[Tuple[Any, Fault]],
        state_dir: "os.PathLike[str] | str",
    ) -> None:
        items = plan.items() if isinstance(plan, Mapping) else plan
        self.plan: Dict[str, Fault] = {
            _canonical(point): fault for point, fault in items
        }
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)

    @classmethod
    def sample(
        cls,
        points: Iterable[Any],
        fault: Fault,
        state_dir: "os.PathLike[str] | str",
        *,
        rate: float = 0.1,
        seed: int = 0,
    ) -> "FaultInjector":
        """Plan ``fault`` at a deterministic pseudo-random subset.

        Each point is selected iff the SHA-256 of ``seed:identity``
        maps below ``rate`` — a pure function of ``(seed, point)``, so
        the same chaos run reproduces across machines and executors.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        chosen = []
        for point in points:
            key = _canonical(point)
            digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
            if int.from_bytes(digest[:8], "big") / 2**64 < rate:
                chosen.append((point, fault))
        return cls(chosen, state_dir)

    # -- matching / accounting --------------------------------------------

    def _match(self, point: Any) -> Optional[Tuple[str, Fault]]:
        key = _canonical(point)
        fault = self.plan.get(key)
        return None if fault is None else (key, fault)

    def _claim_attempt(self, key: str) -> int:
        """Atomically claim and return this point's next attempt number."""
        digest = _digest(key)
        attempt = 1
        while True:
            path = os.path.join(self.state_dir, f"{digest}.{attempt}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return attempt
            except FileExistsError:
                attempt += 1

    def attempts(self, point: Any) -> int:
        """How many injection checks this point has been through."""
        digest = _digest(_canonical(point))
        count = 0
        while os.path.exists(
            os.path.join(self.state_dir, f"{digest}.{count + 1}")
        ):
            count += 1
        return count

    def reset(self) -> None:
        """Clear the scoreboard (a fresh chaos round)."""
        for name in os.listdir(self.state_dir):
            os.unlink(os.path.join(self.state_dir, name))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable[[Any], Any]) -> "_InjectedFunction":
        """A picklable callable: ``fn`` with this injection plan."""
        return _InjectedFunction(fn, self)

    def fire(self, point: Any) -> Optional[Any]:
        """Apply the plan for one call at ``point``.

        Returns ``None`` when the call should proceed normally, or a
        one-element tuple ``(value,)`` when a ``corrupt`` fault wants
        that value returned instead.  ``raise``/``hang``/``kill``
        faults act directly.
        """
        match = self._match(point)
        if match is None:
            return None
        key, fault = match
        attempt = self._claim_attempt(key)
        if fault.times is not None and attempt > fault.times:
            return None
        if fault.kind == "raise":
            raise fault.exception(f"{fault.message} (attempt {attempt})")
        if fault.kind == "hang":
            time.sleep(fault.hang_seconds)
            return None
        if fault.kind == "kill":
            os._exit(13)
        return (fault.corrupt_value,)

    def send_through(
        self,
        sock: Any,
        message: Dict[str, Any],
        fault: WireFault,
    ) -> bool:
        """Send ``message`` over ``sock``, perturbed per ``fault``.

        The faulty twin of :func:`repro.service.wire.send_message`:
        builds the *valid* frame first, then applies the planned
        perturbation — flip a deterministic payload byte
        (``corrupt``), send half the frame and close (``truncate``),
        close without sending (``disconnect``), or sleep then send
        intact (``delay``).  The fault's ``times`` budget is claimed
        on the shared scoreboard, so "corrupt the first two sends,
        then behave" works across processes.  Returns ``True`` when
        the frame was perturbed, ``False`` when it passed through
        intact.  ``truncate`` and ``disconnect`` close ``sock``.
        """
        from ..service.wire import _HEADER, frame

        data = frame(message)
        attempt = self._claim_attempt(f"wire:{fault.key}")
        if fault.times is not None and attempt > fault.times:
            sock.sendall(data)
            return False
        if fault.kind == "corrupt":
            payload_len = len(data) - _HEADER.size
            digest = hashlib.sha256(
                f"{fault.key}:{attempt}".encode("utf-8")
            ).digest()
            offset = _HEADER.size + int.from_bytes(digest[:8], "big") % max(
                payload_len, 1
            )
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            sock.sendall(bytes(corrupted))
            return True
        if fault.kind == "truncate":
            sock.sendall(data[: max(_HEADER.size, len(data) // 2)])
            sock.close()
            return True
        if fault.kind == "disconnect":
            sock.close()
            return True
        time.sleep(fault.delay_seconds)  # kind == "delay"
        sock.sendall(data)
        return True

    @staticmethod
    def kill_remote(connect: str, worker: Optional[str] = None) -> str:
        """Kill one networked sweep worker over the wire.

        The distributed twin of ``Fault(kind="kill")``: asks the
        coordinator at ``connect`` to order ``worker`` (an id from
        ``/stats``, or any live worker when ``None``) to ``os._exit``
        on its next poll — no cleanup, exactly a SIGKILL's footprint.
        The coordinator's reaper then reassigns the victim's leases,
        which is the recovery path chaos tests exist to exercise.
        Returns the condemned worker's id.
        """
        from ..service.client import kill_worker

        return kill_worker(connect, worker)


class _InjectedFunction:
    """Module-level wrapper so injected sweep functions pickle."""

    def __init__(self, fn: Callable[[Any], Any], injector: FaultInjector):
        self.fn = fn
        self.injector = injector

    def __call__(self, point: Any) -> Any:
        fired = self.injector.fire(point)
        if fired is not None:  # corrupt fault: replace the value
            return fired[0]
        return self.fn(point)
