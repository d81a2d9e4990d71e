"""Shared sparse-matrix coercion and the step kernel of every bounded loop.

Historically :mod:`repro.dtmc.chain` and :mod:`repro.dtmc.linear` each
carried a private ``_as_csr`` copy; this module is the single home for
that coercion (and for the validation error it raises), so the chain,
the iterative solvers, and :mod:`repro.engine` all agree on one code
path.

It is also the one caller of SciPy's compiled CSR kernel.  A bounded
pCTL operator is ``t`` products with a small transition matrix, and on
a chain of a few dozen states ``P @ x`` spends most of its time in
SciPy's Python dispatch, not in the kernel it ends in.
:func:`matvec_step` and :func:`vecmat_step` bind that same kernel to
the matrix once, and the loops call it on buffers they allocate once,
so each step costs one compiled call.  The kernel *accumulates*: it
computes ``out[i] + sum_j P[i, j] * x[j]`` left to right, and
``P @ x`` is that with ``out`` zeroed.  Seed ``out`` with zeros and
add constants afterwards; seeding it with a constant ``b`` computes
``b + sum``, which differs in the last bits from ``(P @ x) + b``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

__all__ = [
    "DTMCValidationError",
    "as_csr",
    "matvec_step",
    "step_vector",
    "vecmat_step",
]


class DTMCValidationError(ValueError):
    """Raised when a transition structure is not a valid DTMC."""


def as_csr(
    matrix: Any, n: Optional[int] = None, *, require_square: bool = False
) -> sparse.csr_matrix:
    """Coerce ``matrix`` into a float64 CSR matrix.

    A float64 ``csr_matrix`` is returned as it is, not re-wrapped.
    With ``require_square`` (what transition matrices need) the matrix
    must be square, and when ``n`` is given, of size ``n x n``.
    """
    if isinstance(matrix, sparse.csr_matrix) and matrix.dtype == np.float64:
        csr = matrix
    else:
        csr = sparse.csr_matrix(matrix, dtype=np.float64)
    if require_square:
        rows, cols = csr.shape
        if rows != cols:
            raise DTMCValidationError(
                f"transition matrix must be square, got {rows}x{cols}"
            )
        if n is not None and rows != n:
            raise DTMCValidationError(
                f"transition matrix has {rows} states, expected {n}"
            )
    return csr


def matvec_step(
    matrix: sparse.csr_matrix, rows: Optional[np.ndarray] = None
) -> Callable[[np.ndarray, np.ndarray], None]:
    """The step ``out += matrix @ x`` as a call ``step(x, out)``.

    ``step`` is SciPy's compiled CSR kernel bound to the matrix's own
    ``indptr``/``indices``/``data`` (int32 or int64 indices, float64
    data): the call ``matrix @ x`` ends in, so with ``out`` zeroed the
    result is bit-identical to ``matrix @ x``.  With the boolean mask
    ``rows``, every other row is left out: it sums nothing, and its
    ``out`` entry keeps its seed.  ``x`` (the column count) and ``out``
    (the row count) must be contiguous float64 vectors; the kernel
    checks neither, so start a loop from :func:`step_vector`.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if rows is not None:
        rows = np.asarray(rows, dtype=bool)
        counts = np.diff(indptr)
        entries = np.repeat(rows, counts)
        indptr = np.zeros_like(indptr)
        np.cumsum(np.where(rows, counts, 0), out=indptr[1:])
        indices, data = indices[entries], data[entries]
    n_rows, n_cols = matrix.shape
    return functools.partial(
        _sparsetools.csr_matvec, n_rows, n_cols, indptr, indices, data
    )


def vecmat_step(matrix: sparse.csr_matrix) -> Callable[[np.ndarray, np.ndarray], None]:
    """The step ``out += x @ matrix`` as a call ``step(x, out)``.

    The row-vector form of :func:`matvec_step` (``x`` of the row
    count, ``out`` of the column count).  ``x @ P`` multiplies by
    ``P.T``, the CSC matrix over the same three arrays, so this binds
    the CSC kernel to them: bit-identical to ``x @ matrix`` with
    ``out`` zeroed.
    """
    n_rows, n_cols = matrix.shape
    return functools.partial(
        _sparsetools.csc_matvec,
        n_cols, n_rows, matrix.indptr, matrix.indices, matrix.data,
    )


def step_vector(values: Any, n: int) -> np.ndarray:
    """A fresh contiguous float64 copy of ``values``, checked to have
    ``n`` entries: the start vector of a step loop."""
    vector = np.array(values, dtype=np.float64)
    if vector.shape != (n,):
        raise ValueError(
            f"expected a vector over {n} states, got shape {vector.shape}"
        )
    return vector
