"""Iterative linear solvers for probabilistic model checking.

PRISM solves its until/reward equation systems with iterative methods
(Power, Jacobi, Gauss-Seidel) rather than direct factorization; this
module provides the same three, solving systems of the fixpoint form

    x = A x + b        (A substochastic, spectral radius < 1)

which is exactly the shape of unbounded-until probabilities and
reachability rewards.  The sparse direct solver remains the default in
:mod:`repro.pctl.checker`; these exist as drop-in engines for large
systems and as independent cross-checks in the test suite.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .sparse_utils import as_csr as _as_csr

__all__ = [
    "power_solve",
    "jacobi_solve",
    "gauss_seidel_solve",
    "SolverError",
    "ITERATIVE_METHODS",
]

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 1_000_000

#: Canonical names of the fixpoint-iteration solver family provided by
#: this module; shared by the steady-state layer and
#: :mod:`repro.engine.config` so the sets cannot drift apart.
ITERATIVE_METHODS = ("power", "jacobi", "gauss-seidel")


class SolverError(RuntimeError):
    """Raised when an iterative solver fails to converge."""


def power_solve(
    matrix,
    b: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fixpoint (power) iteration: ``x <- A x + b``.

    The textbook value-iteration scheme; linear convergence at rate
    equal to the spectral radius of ``A``.
    """
    a = _as_csr(matrix)
    x = np.zeros(a.shape[0]) if x0 is None else np.asarray(x0, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for _ in range(max_iterations):
        nxt = a @ x + b
        if np.abs(nxt - x).max() < tolerance:
            return nxt
        x = nxt
    raise SolverError(
        f"power iteration did not converge in {max_iterations} iterations"
    )


def jacobi_solve(
    matrix,
    b: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Jacobi iteration for ``x = A x + b``.

    Rewrites the system as ``(I - A) x = b`` and iterates
    ``x_i <- (b_i + sum_{j != i} A_ij x_j) / (1 - A_ii)`` — dividing
    out the diagonal accelerates states with strong self-loops.
    """
    a = _as_csr(matrix)
    n = a.shape[0]
    diagonal = a.diagonal()
    if np.any(diagonal >= 1.0):
        raise SolverError("diagonal entry >= 1: system is singular")
    off = a - sparse.diags(diagonal)
    scale = 1.0 / (1.0 - diagonal)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for _ in range(max_iterations):
        nxt = scale * (off @ x + b)
        if np.abs(nxt - x).max() < tolerance:
            return nxt
        x = nxt
    raise SolverError(
        f"Jacobi iteration did not converge in {max_iterations} iterations"
    )


def gauss_seidel_solve(
    matrix,
    b: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gauss-Seidel iteration for ``x = A x + b``.

    Each sweep updates the components in order, using those already
    updated: with ``A = L + D + U`` (strictly lower, diagonal, strictly
    upper), ``x <- (I - L - D)^-1 (U x + b)``, one sparse triangular
    solve against a factorisation made once.  Typically converges in
    roughly half the iterations Jacobi needs (PRISM's favourite engine
    for DTMCs).
    """
    a = _as_csr(matrix)
    n = a.shape[0]
    diagonal = a.diagonal()
    if np.any(diagonal >= 1.0):
        raise SolverError("diagonal entry >= 1: system is singular")
    # Natural order and diagonal pivots keep the factor triangular.
    lower = splu(
        sparse.identity(n, format="csc") - sparse.tril(a, format="csc"),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
    )
    upper = sparse.triu(a, k=1, format="csr")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for _ in range(max_iterations):
        nxt = lower.solve(upper @ x + b)
        if np.abs(nxt - x).max(initial=0.0) < tolerance:
            return nxt
        x = nxt
    raise SolverError(
        f"Gauss-Seidel did not converge in {max_iterations} iterations"
    )
