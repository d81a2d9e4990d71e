"""Solver configuration for the unified numerical engine.

One :class:`SolverConfig` names the linear-algebra backend every
engine-routed solve uses and the accuracy knobs of the iterative
family.  The five methods mirror PRISM's engine choices:

``direct``
    One-shot sparse LU (``scipy.sparse.linalg.spsolve``) per solve;
    nothing is reused.  Steady state always factorises (one state's
    mass pinned), so this is the factorising reference the other
    backends are tested against.
``lu``
    Sparse LU factorization (``splu``) cached per ``(chain, subsystem)``
    and reused across properties and right-hand sides.  The default.
    Steady state takes a *certified iterate, else a factorisation*:
    each BSCC's damped iteration is kept only if its residual and its
    rate-based error estimate are both within ``tolerance`` on a chain
    verified irreducible, and only while the observed contraction rate
    projects that within a fixed iteration budget; otherwise the BSCC
    is factorised like ``direct`` (see :mod:`repro.dtmc.steady_state`).
``power``
    Fixpoint (value) iteration ``x <- A x + b``.
``jacobi``
    Jacobi iteration with the diagonal divided out.
``gauss-seidel``
    In-place Gauss-Seidel sweeps (PRISM's favourite DTMC engine).

The three iterative methods compute steady state by the same damped
iteration alone, certified the same way, and never factorise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from ..dtmc.linear import ITERATIVE_METHODS

__all__ = ["SolverConfig", "SmcConfig", "SOLVER_METHODS", "ITERATIVE_METHODS"]

#: Every selectable backend, in documentation order: the direct family
#: plus the fixpoint-iteration family defined by :mod:`repro.dtmc.linear`.
SOLVER_METHODS = ("direct", "lu") + ITERATIVE_METHODS

_ALIASES = {
    "spsolve": "direct",
    "lu-cached": "lu",
    "splu": "lu",
    "value-iteration": "power",
    "gs": "gauss-seidel",
    "gauss_seidel": "gauss-seidel",
}


@dataclass(frozen=True)
class SolverConfig:
    """Backend selection + accuracy knobs for engine-routed solves.

    Parameters
    ----------
    method:
        One of :data:`SOLVER_METHODS` (a few PRISM-style aliases such
        as ``"gs"`` or ``"lu-cached"`` are normalized on construction).
    tolerance:
        Convergence threshold of the iterative methods (max-norm of the
        update step), and the bound a steady-state iterate's certified
        L1 error must meet on every method that iterates (``lu``
        included).
    max_iterations:
        Iteration cap of the iterative methods; exceeding it raises
        :class:`repro.dtmc.SolverError`.
    """

    method: str = "lu"
    tolerance: float = 1e-12
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        method = _ALIASES.get(self.method, self.method)
        if method not in SOLVER_METHODS:
            raise ValueError(
                f"unknown solver method {self.method!r};"
                f" choose from {', '.join(SOLVER_METHODS)}"
            )
        object.__setattr__(self, "method", method)
        if not (self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )

    def with_method(self, method: str) -> "SolverConfig":
        """Copy of this config with a different backend."""
        return replace(self, method=method)

    @classmethod
    def coerce(
        cls, config: Union["SolverConfig", str, None]
    ) -> "SolverConfig":
        """Accept a config, a bare method name, or ``None`` (defaults)."""
        if config is None:
            return cls()
        if isinstance(config, str):
            return cls(method=config)
        return config


@dataclass(frozen=True)
class SmcConfig:
    """Accuracy knobs of the statistical checking backends.

    The statistical counterpart of :class:`SolverConfig`: where the
    exact backends trade speed for memory, the statistical ones trade
    wall-clock for guarantee tightness.  ``epsilon``/``delta`` drive
    the APMC (Hoeffding) estimator; ``half_width``/``alpha``/``beta``
    drive the SPRT once a threshold ``theta`` is supplied; ``batch``
    caps per-chunk memory of the fused batched trials.
    """

    epsilon: float = 0.01
    delta: float = 0.05
    half_width: float = 0.01
    alpha: float = 0.01
    beta: float = 0.01
    batch: int = 4096
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        for name in ("epsilon", "delta", "half_width", "alpha", "beta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0,1), got {value}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")

    @classmethod
    def coerce(cls, config: Optional["SmcConfig"]) -> "SmcConfig":
        """Accept a config or ``None`` (defaults)."""
        return cls() if config is None else config
