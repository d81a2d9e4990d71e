"""Unified solver-engine layer.

Everything numerical in the library — pCTL until/reward solves, steady
state, long-run structure — routes through one :class:`Engine` whose
backend is chosen by a :class:`SolverConfig` (direct, LU-cached,
power, Jacobi, or Gauss-Seidel).  The engine owns per-chain caches
(LU factorizations, Prob0/Prob1 precomputations, BSCC decompositions,
stationary distributions), so a batch of properties against one chain
pays for its linear algebra once.

:mod:`repro.engine.sweep` is the scenario fan-out companion: grids of
design points (SNR, traceback length, quantizer levels) spread across
threads, forked worker processes or a networked worker fleet.  Its
:func:`check_value` is the one exact/APMC/SPRT dispatch that sweeps,
the fleet and :class:`repro.core.PerformanceAnalyzer` share.
"""

from ..resilience import DeadlineExceeded, DeadlinePolicy, RetryPolicy, SweepReport
from .config import ITERATIVE_METHODS, SOLVER_METHODS, SmcConfig, SolverConfig
from .core import Engine, EngineStats, default_engine
from .sweep import (
    CHECK_BACKENDS,
    EXECUTORS,
    SweepInterrupted,
    SweepResult,
    check_value,
    grid,
    sweep,
    sweep_check,
    sweep_values,
)

__all__ = [
    "ITERATIVE_METHODS",
    "SOLVER_METHODS",
    "SmcConfig",
    "SolverConfig",
    "Engine",
    "EngineStats",
    "default_engine",
    "CHECK_BACKENDS",
    "EXECUTORS",
    "SweepResult",
    "SweepInterrupted",
    "grid",
    "sweep",
    "sweep_check",
    "check_value",
    "sweep_values",
    # fault-tolerance layer, re-exported for sweep call sites
    "RetryPolicy",
    "DeadlinePolicy",
    "DeadlineExceeded",
    "SweepReport",
]
