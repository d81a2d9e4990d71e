"""Trellis structure for maximum-likelihood sequence estimation.

The Viterbi decoder of the paper tracks ``2^m`` internal states — the
possible values of the last ``m`` data bits of a memory-``m``
partial-response channel (``m = 1`` and states {0, 1} in the case
study).  This module provides the trellis geometry (states, branches,
expected noiseless outputs) and the add-compare-select (ACS) step with
the two RTL realities the DTMC models must respect:

* **integer branch metrics** — the branch metric between a received
  quantization *index* and a branch's expected output is the absolute
  index distance, an integer in ``0 .. num_levels-1`` (fixed-point RTL
  arithmetic, and the reason the DTMC state space is finite);
* **normalized, saturating path metrics** — after every ACS step the
  minimum path metric is subtracted from all of them and the result is
  clamped to ``pm_max`` (bounded path-metric registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..comm.channel import PartialResponseTransmitter
from ..comm.quantizer import UniformQuantizer

__all__ = ["Trellis", "ACSResult"]


@dataclass(frozen=True)
class ACSResult:
    """Result of one add-compare-select step.

    ``path_metrics[s]`` is the new (normalized, saturated) metric of
    internal state ``s``; ``survivors[s]`` is the predecessor state
    chosen for ``s`` (the paper's ``prev0`` / ``prev1`` variables for
    the two-state case).
    """

    path_metrics: Tuple[int, ...]
    survivors: Tuple[int, ...]

    @property
    def best_state(self) -> int:
        """State with the least path metric (ties -> lowest index, the
        fixed RTL convention)."""
        metrics = self.path_metrics
        return min(range(len(metrics)), key=lambda s: (metrics[s], s))

    def is_convergent(self) -> bool:
        """A trellis stage is convergent when every state's survivor
        pointer selects the same predecessor (Section IV-C)."""
        return len(set(self.survivors)) == 1


class Trellis:
    """Trellis of a memory-``m`` partial-response channel with a quantized
    front end.

    Parameters
    ----------
    transmitter:
        The ISI transmitter; its memory fixes the number of states.
    quantizer:
        Receiver quantizer; branch metrics live in its index space.
    pm_max:
        Saturation bound for normalized path metrics.
    """

    def __init__(
        self,
        transmitter: PartialResponseTransmitter,
        quantizer: UniformQuantizer,
        pm_max: int = 6,
    ) -> None:
        if pm_max < 1:
            raise ValueError(f"pm_max must be >= 1, got {pm_max}")
        self.transmitter = transmitter
        self.quantizer = quantizer
        self.pm_max = int(pm_max)
        self.memory = transmitter.memory
        if self.memory < 1:
            raise ValueError("trellis needs a channel with memory >= 1")
        self.num_states = 1 << self.memory
        # Expected *quantizer index* of the noiseless output of every
        # branch (state s, input bit b): integer branch metrics are
        # index distances to this.
        self._expected_index = np.empty((self.num_states, 2), dtype=np.int64)
        self._next_state = np.empty((self.num_states, 2), dtype=np.int64)
        mask = self.num_states - 1
        for state in range(self.num_states):
            past_bits = [(state >> k) & 1 for k in range(self.memory)]
            for bit in (0, 1):
                value = transmitter.output([bit] + past_bits)
                self._expected_index[state, bit] = int(
                    quantizer.quantize_index([value])[0]
                )
                self._next_state[state, bit] = ((state << 1) | bit) & mask
        # Hoisted per-step work: predecessor lists (ascending, the ACS
        # tie-break order) and the full branch-metric table — one row
        # per received quantizer index — so neither is recomputed
        # inside the per-cycle ACS loop.
        self._predecessors = [
            [
                s
                for s in range(self.num_states)
                if int(self._next_state[s, target & 1]) == target
            ]
            for target in range(self.num_states)
        ]
        levels = np.arange(quantizer.num_levels, dtype=np.int64)
        self._branch_table = np.abs(
            levels[:, None, None] - self._expected_index[None, :, :]
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def next_state(self, state: int, bit: int) -> int:
        """Successor state when input ``bit`` arrives in ``state``."""
        return int(self._next_state[state, bit])

    def predecessors(self, state: int) -> List[int]:
        """The two states with a branch into ``state``."""
        return list(self._predecessors[state])

    def expected_output(self, state: int, bit: int) -> float:
        """Noiseless channel output of the branch ``state --bit-->``."""
        past_bits = [(state >> k) & 1 for k in range(self.memory)]
        return self.transmitter.output([bit] + past_bits)

    def branch_metric(self, q_index: int, state: int, bit: int) -> int:
        """Integer branch metric: index distance between the received
        level and the branch's expected level."""
        q = int(q_index)
        if 0 <= q < self._branch_table.shape[0]:
            return int(self._branch_table[q, state, bit])
        return abs(q - int(self._expected_index[state, bit]))

    # ------------------------------------------------------------------
    # Add-compare-select
    # ------------------------------------------------------------------
    def acs(self, path_metrics: Sequence[int], q_index: int) -> ACSResult:
        """One trellis step: extend all paths with the branch metrics of
        the received level ``q_index``, select survivors, normalize and
        saturate.

        Tie-breaking (equal extended metrics) picks the predecessor
        with the lowest index — a fixed convention, as in RTL.
        """
        new_metrics = [0] * self.num_states
        survivors = [0] * self.num_states
        q = int(q_index)
        if 0 <= q < self._branch_table.shape[0]:
            branch = self._branch_table[q]
        else:  # off-table indices fall back to the direct distance
            branch = np.abs(q - self._expected_index)
        for target in range(self.num_states):
            bit = target & 1
            best_metric = None
            best_pred = 0
            for pred in self._predecessors[target]:
                metric = int(path_metrics[pred]) + int(branch[pred, bit])
                if best_metric is None or metric < best_metric:
                    best_metric = metric
                    best_pred = pred
            new_metrics[target] = best_metric
            survivors[target] = best_pred
        floor = min(new_metrics)
        normalized = tuple(
            min(m - floor, self.pm_max) for m in new_metrics
        )
        return ACSResult(path_metrics=normalized, survivors=tuple(survivors))

    def initial_metrics(self) -> Tuple[int, ...]:
        """All-zero initial path metrics (unbiased cold start)."""
        return tuple([0] * self.num_states)
