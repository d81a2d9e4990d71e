"""Traceback-convergence DTMC model of the Viterbi decoder (Section IV-C).

A trellis stage is *convergent* when all survivor pointers select the
same predecessor; any traceback passing such a stage is funneled
through one state, so all traceback paths agree on the decoded bit.  If
``L`` consecutive stages are non-convergent, a depth-``L`` traceback's
decision depends on which state it starts from — the event the paper's
property C1 measures.

The model keeps only ``(pm0, pm1, x0, count)``: the probabilistic
kernel needs ``pm`` and ``x0``; ``count`` is the current run length of
non-convergent stages (saturating at ``L``).  The reward/label
``nonconv`` marks states with ``count >= L``; C1 is
``R=? [ I=T ]`` over that reward, exactly like P2.

Convention note: the paper sets its flag when "count exceeds L"; with
saturating arithmetic we saturate at ``L`` and flag ``count >= L``
(L consecutive non-convergent stages = a depth-L traceback with no
funnel stage).  The C1-vs-L trend of Figure 2 is insensitive to this
one-stage convention choice.

Soundness: discarding the per-stage variables is justified by the
refinement argument of Section IV-C (the kernel is untouched and the
property only mentions ``count``); the test suite additionally checks
this model against a stage-tracking variant on small instances.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Optional

import numpy as np

from ..dtmc.builder import ExplorationResult, build_array_dtmc
from .dtmc_model import ViterbiKernel, ViterbiModelConfig, decode_rows

__all__ = [
    "ViterbiConvergenceState",
    "convergence_transition",
    "build_convergence_model",
]

ViterbiConvergenceState = namedtuple(
    "ViterbiConvergenceState", ["pm", "x0", "count"]
)


def _require_memory_1(kernel: ViterbiKernel) -> None:
    if kernel.config.memory != 1:
        raise ValueError(
            "the convergence model tracks a single previous bit; memory-m"
            " channels are supported by the full error model only"
        )


def convergence_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of the convergence model.

    ``count' = 0`` on a convergent stage, else ``min(count+1, L)``.
    """
    _require_memory_1(kernel)
    length = kernel.config.traceback_length

    def transition(state: ViterbiConvergenceState):
        branches = []
        for probability, (new_pm, survivors, x_new, _q) in kernel.branches(
            state.pm, state.x0
        ):
            convergent = len(set(survivors)) == 1
            count = 0 if convergent else min(state.count + 1, length)
            branches.append(
                (probability, ViterbiConvergenceState(new_pm, x_new, count))
            )
        return branches

    return transition


def _convergence_step(kernel: ViterbiKernel):
    """Vectorised :func:`convergence_transition` on rows
    ``[pm id, x0, count]``."""
    _require_memory_1(kernel)
    length = kernel.config.traceback_length
    survivor = kernel.survivor
    convergent = (survivor == survivor[:, :1]).all(axis=1)

    def step(rows: np.ndarray):
        prob, new_pm, survivors, bit = kernel.step(rows[:, 0], rows[:, 1])
        count = np.minimum(rows[:, 2] + 1, length)[:, None]
        out = np.stack(
            [new_pm, bit, np.where(convergent[survivors], 0, count)], axis=-1
        )
        return prob, out

    return step


def build_convergence_model(
    config: Optional[ViterbiModelConfig] = None, *, max_states: Optional[int] = None
) -> ExplorationResult:
    """Explore the convergence DTMC.

    The chain carries the ``nonconv`` label and matching 0/1 reward;
    C1 is ``R=? [ I=T ]`` (the chain's only reward), or equivalently
    ``S=? [ nonconv ]`` in steady state.  Explored as kernel-table rows;
    :func:`convergence_transition` is the per-state reference.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    length = config.traceback_length
    return build_array_dtmc(
        _convergence_step(kernel),
        initial=[0, 0, 0],
        radix=[len(kernel.pm_vectors), 2, length + 1],
        labels={"nonconv": lambda rows: rows[:, 2] >= length},
        rewards={"nonconv": lambda rows: (rows[:, 2] >= length).astype(np.float64)},
        decode=lambda rows: decode_rows(
            ViterbiConvergenceState,
            rows,
            [
                (slice(0, 1), lambda ids: kernel.pm_vectors[ids[0]]),
                (slice(1, 2), lambda bits: bits[0]),
                (slice(2, 3), lambda counts: counts[0]),
            ],
        ),
        max_states=max_states,
    )
