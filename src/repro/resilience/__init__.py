"""Fault tolerance for the sweep fabric.

The guarantee service certifies reliability figures — so the fabric
computing them has to be reliable itself.  This package is the
fault-tolerance layer threaded through :mod:`repro.engine.sweep`,
:mod:`repro.zoo` and the ``repro-zoo`` CLI:

* :class:`RetryPolicy` / :class:`DeadlinePolicy` — per-point retry
  budgets (exponential backoff, deterministic jitter) and wall-clock
  deadlines (a watchdog thread on the serial executor, a per-lease
  budget on the process executor and the worker fleet).
* Crash recovery — both fan-outs lease shards to workers, and a
  worker that dies (``BrokenProcessPool`` on the process executor,
  ``WorkerLost`` on the fleet) or overruns its lease costs only that
  lease: one bisection rule halves the failed range until the single
  poisoned point is left, which is quarantined into its
  :class:`~repro.engine.SweepResult` instead of sinking the sweep.
* Checkpoint/resume — sweeps against a
  :class:`~repro.store.ResultStore` persist every *successful* point;
  an interrupted run re-executed with the same store recomputes only
  what is missing.  :class:`SweepReport` summarizes the triage.
* :func:`validate_guarantee` — NaN/Inf/range/monotonicity/
  cross-backend checks on every value the fabric emits, downgraded to
  structured :class:`ValidationWarning` records on the result.
* :class:`FaultInjector` — the deterministic chaos harness
  (raise / hang / kill-worker / corrupt-value) the test suite uses to
  prove all of the above.

This module imports only the standard library at import time, so the
engine can depend on it without cycles.
"""

from .inject import Fault, FaultInjector, InjectedFault, WireFault
from .policies import (
    CircuitBreaker,
    DeadlineExceeded,
    DeadlinePolicy,
    RetryPolicy,
)
from .report import SweepReport
from .validate import (
    ValidationWarning,
    formula_kind,
    numeric_value,
    validate_guarantee,
    validate_monotone,
)

__all__ = [
    "RetryPolicy",
    "DeadlinePolicy",
    "DeadlineExceeded",
    "SweepReport",
    "ValidationWarning",
    "validate_guarantee",
    "validate_monotone",
    "formula_kind",
    "numeric_value",
    "CircuitBreaker",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "WireFault",
]
