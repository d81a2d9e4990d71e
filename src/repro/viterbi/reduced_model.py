"""Reduced DTMC model ``M_R`` of the Viterbi decoder (Section IV-A.3).

The error properties P1-P3 only need to know whether the decoded bit
is *wrong*, never what it *is*.  The reduction therefore replaces the
survivor pointers and stored data bits of each trellis stage with two
booleans per stage (the paper's ``c_i`` and ``w_i``):

* ``c_i`` — the survivor pointer *from the correct state* of stage ``i``
  points at the correct previous state (``prev[x_i]_i == x_{i+1}``);
* ``w_i`` — the survivor pointer *from the wrong state* points at the
  correct previous state (``prev[1-x_i]_i == x_{i+1}``).

A traceback is then simulated on correctness bits alone: starting from
``correct_0 = (argmin pm == x_0)``, the recurrence
``correct_{i+1} = c_i if correct_i else w_i`` reaches stage ``L-1``,
and ``flag = !correct_{L-1}``.  The probabilistic kernel (path metrics
+ current bit) is retained untouched, which is exactly why the quotient
is a probabilistic bisimulation (the paper's Part B / Strong Lumping
argument); :func:`abstraction_function` is the paper's ``F_abs`` and is
used by the test suite to verify soundness mechanically.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Optional, Tuple

import numpy as np

from ..dtmc.builder import ExplorationResult, build_array_dtmc
from .dtmc_model import (
    ViterbiFullState,
    ViterbiKernel,
    ViterbiModelConfig,
    count_errors,
    decode_rows,
)

__all__ = [
    "ViterbiReducedState",
    "ViterbiReducedErrcntState",
    "reduced_flag",
    "reduced_transition",
    "reduced_error_count_transition",
    "build_reduced_model",
    "build_reduced_error_count_model",
    "abstraction_function",
]

ViterbiReducedState = namedtuple(
    "ViterbiReducedState", ["pm", "x0", "c", "w", "flag"]
)
ViterbiReducedErrcntState = namedtuple(
    "ViterbiReducedErrcntState", ["pm", "x0", "c", "w", "flag", "errcnt"]
)


def reduced_flag(
    pm: Tuple[int, ...], x0: int, c: Tuple[int, ...], w: Tuple[int, ...]
) -> int:
    """The paper's modified error function ``F_E^R`` (Eq. 9).

    Folds the correctness recurrence over the stored ``c``/``w`` bits
    instead of tracing actual survivor pointers.
    """
    best = min(range(len(pm)), key=lambda s: (pm[s], s))
    correct = best == x0
    for c_i, w_i in zip(c, w):
        correct = bool(c_i) if correct else bool(w_i)
    return int(not correct)


def _cw_bits(
    survivors: Tuple[int, ...], x_stage: int, x_next: int
) -> Tuple[int, int]:
    """The paper's ``F_cw`` (Eq. 7): correctness of the two survivor
    pointers of a fresh stage with actual bits (x_stage, x_next)."""
    c = int(survivors[x_stage] == x_next)
    w = int(survivors[1 - x_stage] == x_next)
    return c, w


def _require_memory_1(kernel: ViterbiKernel) -> None:
    if kernel.config.memory != 1:
        raise ValueError(
            "the c/w reduction is defined for the paper's memory-1"
            f" channel; got memory {kernel.config.memory}"
        )


def reduced_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of ``M_R`` (Eqs. 7-9).

    Note the shared :class:`~repro.viterbi.dtmc_model.ViterbiKernel`:
    the probabilistic step is *identical* to the full model's.

    The c/w abstraction is the paper's two-internal-state construction;
    memory-m channels (2^m trellis states) are supported by the full
    model only.
    """
    _require_memory_1(kernel)

    def transition(state: ViterbiReducedState):
        branches = []
        for probability, (new_pm, survivors, x_new, _q) in kernel.branches(
            state.pm, state.x0
        ):
            c0, w0 = _cw_bits(survivors, x_new, state.x0)
            new_c = (c0,) + state.c[:-1]
            new_w = (w0,) + state.w[:-1]
            flag = reduced_flag(new_pm, x_new, new_c, new_w)
            branches.append(
                (
                    probability,
                    ViterbiReducedState(new_pm, x_new, new_c, new_w, flag),
                )
            )
        return branches

    return transition


def reduced_error_count_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of ``M_R`` with the saturating P3 error
    counter: ``errcnt' = min(errcnt + flag', cap)``."""
    base = reduced_transition(kernel)
    cap = kernel.config.error_count_cap

    def transition(state: ViterbiReducedErrcntState):
        return [
            (
                probability,
                ViterbiReducedErrcntState(*nxt, min(state.errcnt + nxt.flag, cap)),
            )
            for probability, nxt in base(state)
        ]

    return transition


def _initial_reduced_state(kernel: ViterbiKernel) -> ViterbiReducedState:
    length = kernel.config.traceback_length
    pm = kernel.initial_pm()
    # Cold start: all-zero bits and survivor pointers, hence every
    # stored pointer is "correct" (c_i = w_i = ... consistent with the
    # full model's all-zero initial state, where prev[i][s] == 0 == x).
    c = (1,) * (length - 1)
    w = (1,) * (length - 1)
    x0 = 0
    return ViterbiReducedState(pm, x0, c, w, reduced_flag(pm, x0, c, w))


# ----------------------------------------------------------------------
# Array form.  A state is the row
#   [pm id, x0, c (L-1, newest first), w (L-1, newest first), flag]
# (+ errcnt for the P3 model), pm ids indexing the kernel tables.
# ----------------------------------------------------------------------

def _reduced_step(kernel: ViterbiKernel):
    """Vectorised :func:`reduced_transition`; the correctness recurrence
    of Eq. 9 becomes an ``np.where`` fold.  Columns past the flag (the
    error counter) are left to the caller."""
    _require_memory_1(kernel)
    stages = kernel.config.traceback_length - 1

    def step(rows: np.ndarray):
        x0 = rows[:, 1]
        c = rows[:, 2 : 2 + stages]
        w = rows[:, 2 + stages : 2 + 2 * stages]
        prob, new_pm, survivors, bit = kernel.step(rows[:, 0], x0)
        out = np.empty(prob.shape + rows.shape[1:], dtype=np.int64)
        out[..., 0] = new_pm
        out[..., 1] = bit
        out[..., 2] = kernel.survivor[survivors, bit] == x0[:, None]
        out[..., 3 : 2 + stages] = c[:, None, :-1]
        out[..., 2 + stages] = kernel.survivor[survivors, 1 - bit] == x0[:, None]
        out[..., 3 + stages : 2 + 2 * stages] = w[:, None, :-1]
        correct = kernel.best[new_pm] == bit
        for i in range(stages):
            correct = np.where(correct, out[..., 2 + i], out[..., 2 + stages + i]) == 1
        out[..., 2 + 2 * stages] = ~correct
        return prob, out

    return step


def _reduced_radix(kernel: ViterbiKernel):
    return [len(kernel.pm_vectors), 2] + [2] * (2 * kernel.config.traceback_length - 2) + [2]


def _reduced_fields(kernel: ViterbiKernel):
    """Column slices and value makers of ``ViterbiReducedState``'s fields."""
    stages = kernel.config.traceback_length - 1
    return [
        (slice(0, 1), lambda ids: kernel.pm_vectors[ids[0]]),
        (slice(1, 2), lambda bits: bits[0]),
        (slice(2, 2 + stages), tuple),
        (slice(2 + stages, 2 + 2 * stages), tuple),
        (slice(2 + 2 * stages, 3 + 2 * stages), lambda bits: bits[0]),
    ]


def _initial_reduced_row(kernel: ViterbiKernel):
    start = _initial_reduced_state(kernel)
    return [0, start.x0, *start.c, *start.w, start.flag]


def build_reduced_model(
    config: Optional[ViterbiModelConfig] = None, *, max_states: Optional[int] = None
) -> ExplorationResult:
    """Explore the reduced Viterbi DTMC ``M_R``.

    Carries the same ``flag`` label/reward as the full model, so every
    error property checks verbatim on either chain — and must return
    the same value, which the integration tests assert via
    :func:`repro.core.reductions.are_bisimilar`.  Explored as
    kernel-table rows; :func:`reduced_transition` is the per-state
    reference.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    return build_array_dtmc(
        _reduced_step(kernel),
        initial=_initial_reduced_row(kernel),
        radix=_reduced_radix(kernel),
        labels={"flag": lambda rows: rows[:, -1] == 1},
        rewards={"flag": lambda rows: rows[:, -1].astype(np.float64)},
        decode=lambda rows: decode_rows(
            ViterbiReducedState, rows, _reduced_fields(kernel)
        ),
        max_states=max_states,
    )


def build_reduced_error_count_model(
    config: Optional[ViterbiModelConfig] = None, *, max_states: Optional[int] = None
) -> ExplorationResult:
    """Reduced model extended with the saturating P3 error counter.

    The counter accumulates the (reduction-preserved) ``flag``, so this
    is the quotient of the paper's larger P3 model: the worst-case
    property ``P=? [ F<=T errcnt>1 ]`` checks identically here and on
    :func:`repro.viterbi.dtmc_model.build_error_count_model`.
    :func:`reduced_error_count_transition` is the per-state reference.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    return build_array_dtmc(
        count_errors(_reduced_step(kernel), config.error_count_cap),
        initial=_initial_reduced_row(kernel) + [0],
        radix=_reduced_radix(kernel) + [config.error_count_cap + 1],
        labels={
            "flag": lambda rows: rows[:, -2] == 1,
            "overflow": lambda rows: rows[:, -1] > 1,
        },
        rewards={"flag": lambda rows: rows[:, -2].astype(np.float64)},
        decode=lambda rows: decode_rows(
            ViterbiReducedErrcntState,
            rows,
            _reduced_fields(kernel) + [(slice(-1, None), lambda n: n[0])],
        ),
        max_states=max_states,
    )


def abstraction_function(full_state: ViterbiFullState) -> ViterbiReducedState:
    """The paper's ``F_abs`` (Eq. 6): map a state of ``M`` to ``M_R``.

    Used to *verify* the reduction: quotienting the explicit full model
    by this function must produce a strongly-lumpable partition whose
    quotient is exactly (bisimilar to) the directly-built ``M_R``.
    """
    pm, prev, x = full_state.pm, full_state.prev, full_state.x
    c = tuple(
        int(prev[i][x[i]] == x[i + 1]) for i in range(len(x) - 1)
    )
    w = tuple(
        int(prev[i][1 - x[i]] == x[i + 1]) for i in range(len(x) - 1)
    )
    return ViterbiReducedState(pm, x[0], c, w, reduced_flag(pm, x[0], c, w))
