"""Fault-tolerance policies for the sweep fabric.

A sweep over a million scenario points is only as reliable as its
worst point: one transient solver hiccup, one hung factorization, or
one crashed worker must degrade to a *quarantined point*, never to a
lost grid.  The two policies here are the knobs the fabric accepts:

:class:`RetryPolicy`
    How many times a failing point is re-attempted, how long to wait
    between attempts (exponential backoff), and which exception types
    are considered transient.  Backoff jitter is *deterministic*,
    derived from the point's canonical key and the attempt number, so
    a retried sweep is reproducible attempt for attempt — there is no
    ambient randomness anywhere in the fabric.

:class:`DeadlinePolicy`
    The per-point wall-clock budget.  The serial executor enforces it
    with a watchdog (the point runs in a helper thread that is
    abandoned when the deadline passes); the process executor and the
    worker fleet kill a worker whose shard lease outlives the lease
    budget, escalating the hung shard into the lease bisection of
    :func:`repro.engine.sweep`.

Both are frozen dataclasses with ``coerce`` constructors so call
sites can pass bare numbers (``retry=3``, ``deadline=0.5``), and both
are picklable, so the process executor can ship them into workers.

:class:`CircuitBreaker`
    The third policy, added for the service front-end: a thread-safe
    closed/open/half-open breaker that stops hammering a dependency
    (the coordinator) once it has failed ``failure_threshold`` times
    in a row, letting exactly one probe through after ``cooldown``
    seconds.  The clock is injectable so tests never sleep.
"""

from __future__ import annotations

import hashlib
import threading
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type, Union

__all__ = [
    "DeadlineExceeded",
    "RetryPolicy",
    "DeadlinePolicy",
    "CircuitBreaker",
]


class DeadlineExceeded(TimeoutError):
    """A sweep point exceeded its :class:`DeadlinePolicy` budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for one sweep point.

    Parameters
    ----------
    max_attempts:
        Total tries per point (first attempt included); ``1`` disables
        retries.
    backoff:
        Base delay in seconds before the second attempt; ``0`` retries
        immediately.
    backoff_factor:
        Exponential growth of the delay between successive attempts.
    max_backoff:
        Upper clamp of any single delay.
    jitter:
        Relative spread (``0.1`` = +-10%) applied to each delay.  The
        jitter is *deterministic*: it is derived from the point's
        canonical key and the attempt number via SHA-256, so identical
        sweeps sleep identically and sharded re-runs stay reproducible.
    retry_on:
        Exception types considered transient; anything not matching is
        failed immediately.  :class:`DeadlineExceeded` is an ordinary
        ``TimeoutError`` subclass, so the default ``(Exception,)``
        retries deadline kills too (on the serial executor's watchdog —
        a process or fleet worker whose lease overruns is killed, and
        the lease bisected, without retry).
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.1
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if isinstance(self.retry_on, type):  # a bare exception class
            object.__setattr__(self, "retry_on", (self.retry_on,))

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Is another attempt allowed after ``exc`` on try ``attempt``?"""
        return attempt < self.max_attempts and isinstance(
            exc, tuple(self.retry_on)
        )

    def delay(self, key: str, attempt: int) -> float:
        """Deterministic backoff before attempt ``attempt + 1``.

        ``key`` is the point's canonical identity (any stable string);
        the jitter fraction is the SHA-256 of ``key:attempt`` mapped
        into ``[-jitter, +jitter]``, so every (point, attempt) pair
        sleeps the same duration on every run and no two points
        synchronize their retry storms.
        """
        if self.backoff <= 0:
            return 0.0
        base = min(
            self.backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )
        if self.jitter <= 0:
            return base
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    @classmethod
    def coerce(
        cls, value: Union["RetryPolicy", int, None]
    ) -> Optional["RetryPolicy"]:
        """Accept a policy, a bare attempt count, or ``None`` (off)."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, bool):  # bool is an int; reject explicitly
            raise TypeError("retry must be a RetryPolicy, int, or None")
        if isinstance(value, int):
            return cls(max_attempts=value)
        raise TypeError(
            f"retry must be a RetryPolicy, int, or None,"
            f" got {type(value).__name__}"
        )


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-point wall-clock budget for one sweep.

    Parameters
    ----------
    timeout:
        Seconds one point may run before it is killed.  The serial
        executor abandons the point's watchdog thread and raises
        :class:`DeadlineExceeded` (retryable under a
        :class:`RetryPolicy` whose ``retry_on`` matches); the process
        executor gives each shard lease ``timeout x retry attempts x
        points + grace`` and kills the worker of a lease that outlives
        it, bisecting the lease down to the hung point, which it
        quarantines.  The worker fleet does the same with the
        coordinator's ``lease_grace`` in place of ``grace``.
    grace:
        The process executor's lease grace: extra seconds added once to
        each lease budget for worker startup and dispatch.  The serial
        watchdog and the worker fleet ignore it.
    """

    timeout: float
    grace: float = 5.0

    def __post_init__(self) -> None:
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.grace < 0:
            raise ValueError(f"grace must be >= 0, got {self.grace}")

    @classmethod
    def coerce(
        cls, value: Union["DeadlinePolicy", float, int, None]
    ) -> Optional["DeadlinePolicy"]:
        """Accept a policy, a bare timeout in seconds, or ``None``."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(timeout=float(value))
        raise TypeError(
            f"deadline must be a DeadlinePolicy, a number of seconds,"
            f" or None, got {type(value).__name__}"
        )


class CircuitBreaker:
    """A thread-safe closed / open / half-open circuit breaker.

    The front-end wraps every coordinator round trip in one of these:
    after ``failure_threshold`` *consecutive* failures the breaker
    opens and :meth:`allow` answers ``False`` — callers degrade (serve
    warm cache hits, answer 503 with ``Retry-After``) instead of
    stacking connection timeouts on a dead dependency.  Once
    ``cooldown`` seconds pass, the next :meth:`allow` claims the
    single half-open probe slot; its success closes the breaker, its
    failure re-opens it for another full cooldown.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    cooldown:
        Seconds the breaker stays open before admitting one probe.
    clock:
        Monotonic time source (injectable so tests never sleep).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 5.0,
        clock: Callable[[], float] = _time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0  # consecutive failures while closed
        self._opened_at: Optional[float] = None
        self._trips = 0  # lifetime count of closed -> open transitions

    @property
    def state(self) -> str:
        """Current state, advancing open -> half-open when due."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?

        ``True`` while closed.  While open, ``False`` until the
        cooldown elapses — then exactly one caller wins the half-open
        probe slot (subsequent callers are refused until the probe
        reports back via :meth:`record_success` /
        :meth:`record_failure`).
        """
        with self._lock:
            state = self._state_locked()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and self._opened_at is not None:
                self._opened_at = None  # claim the single probe slot
                return True
            return False

    def record_success(self) -> None:
        """A wrapped call succeeded: close the breaker, reset counts."""
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """A wrapped call failed: count it; trip open at the threshold.

        A half-open probe failure re-opens immediately for another
        full cooldown.
        """
        with self._lock:
            state = self._state_locked()
            if state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._trips += 1
                return
            if state == self.OPEN:
                return  # already open and cooling down
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._trips += 1

    def snapshot(self) -> Dict[str, Union[str, int, float, None]]:
        """State for ``/healthz``: state, failure count, trip count."""
        with self._lock:
            state = self._state_locked()
            remaining: Optional[float] = None
            if state == self.OPEN and self._opened_at is not None:
                remaining = max(
                    0.0, self.cooldown - (self._clock() - self._opened_at)
                )
            return {
                "state": state,
                "failures": self._failures,
                "trips": self._trips,
                "cooldown_remaining": remaining,
            }
