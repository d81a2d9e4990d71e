"""DTMC model of the N_R x 2 ML MIMO detector (the paper's Eq. 14).

The paper's detection example is the 2x2 system: metrics
``M_{i,p}(s) = | y_{i,p} - h_{i1,p} s_1 - h_{i2,p} s_2 |`` summed over
receive antennas ``i`` and parts ``p in {R, I}`` (Eq. 15), minimized
over the four BPSK candidate vectors.  Its evaluation tables use the
1xN special case (:mod:`repro.mimo.dtmc_model`); this module covers the
two-transmit-antenna shape as the paper's worked example and as an
extension experiment.

A *block* is one real dimension of one receive branch and now carries
three quantized values ``(h1, h2, y)``; blocks remain i.i.d. and the
Eq.-15 metric is still a sum over them, so the same multiset symmetry
reduction applies, with block alphabet ``B = Kh^2 * Ky``.

State: ``(x, blocks)`` with ``x in 0..3`` encoding the bit pair
(MSB = antenna 1).  Rewards: ``flag`` marks a vector error (any bit
wrong, the paper's definition) and ``biterr`` counts the average
per-bit error, giving the BER.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Callable, Dict, List, Optional, Tuple

from ..dtmc.builder import ExplorationResult, build_iid_dtmc
from .dtmc_model import _multiset_probability
from .system import FADING_SIGMA, MimoSystemConfig

__all__ = [
    "Mimo2x2State",
    "detect_pair_from_blocks",
    "block_alphabet_2tx",
    "step_distribution_2tx",
    "full_state_count_2tx",
    "reduced_state_count_2tx",
    "build_detector_model_2tx",
]

Mimo2x2State = namedtuple("Mimo2x2State", ["x", "blocks"])

#: Candidate bit pairs in tie-break order (lowest pattern wins).
_CANDIDATES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def detect_pair_from_blocks(
    blocks: List[Tuple[float, float, float]]
) -> Tuple[int, int]:
    """ML decision for the bit pair from ``(h1, h2, y)`` block values.

    Ties resolve to the lowest bit pattern, matching
    :func:`repro.mimo.detector.ml_detect`.
    """
    best_bits = (0, 0)
    best_metric = None
    for bits in _CANDIDATES:
        s1 = 2.0 * bits[0] - 1.0
        s2 = 2.0 * bits[1] - 1.0
        metric = sum(abs(y - h1 * s1 - h2 * s2) for h1, h2, y in blocks)
        if best_metric is None or metric < best_metric:
            best_metric = metric
            best_bits = bits
    return best_bits


def block_alphabet_2tx(config: MimoSystemConfig) -> List[Tuple[int, int, int]]:
    """All ``(h1_index, h2_index, y_index)`` block values."""
    return list(
        itertools.product(
            range(config.num_h_levels),
            range(config.num_h_levels),
            range(config.num_y_levels),
        )
    )


def _block_distribution_2tx(
    config: MimoSystemConfig, bits: Tuple[int, int]
) -> Dict[Tuple[int, int, int], float]:
    """Distribution of one block given the transmitted bit pair."""
    s1 = 2.0 * bits[0] - 1.0
    s2 = 2.0 * bits[1] - 1.0
    h_quantizer = config.make_h_quantizer()
    y_quantizer = config.make_y_quantizer()
    h_probs = h_quantizer.cell_probabilities(0.0, FADING_SIGMA)
    out: Dict[Tuple[int, int, int], float] = {}
    for i1, p1 in enumerate(h_probs):
        for i2, p2 in enumerate(h_probs):
            mean = h_quantizer.levels[i1] * s1 + h_quantizer.levels[i2] * s2
            y_probs = y_quantizer.cell_probabilities(mean, config.sigma)
            for iy, py in enumerate(y_probs):
                probability = float(p1 * p2 * py)
                if probability > 0.0:
                    out[(i1, i2, iy)] = probability
    return out


def step_distribution_2tx(
    config: MimoSystemConfig, reduced: bool = True
) -> List[Tuple[float, Mimo2x2State]]:
    """One-step outcome distribution (multisets when ``reduced``)."""
    n = config.num_blocks
    outcomes: List[Tuple[float, Mimo2x2State]] = []
    for x, bits in enumerate(_CANDIDATES):
        dist = _block_distribution_2tx(config, bits)
        if reduced:
            for multiset in itertools.combinations_with_replacement(
                sorted(dist), n
            ):
                probability = 0.25 * _multiset_probability(multiset, dist)
                outcomes.append((probability, Mimo2x2State(x, multiset)))
        else:
            items = list(dist.items())
            for combo in itertools.product(items, repeat=n):
                probability = 0.25
                blocks = []
                for value, p in combo:
                    probability *= p
                    blocks.append(value)
                outcomes.append(
                    (probability, Mimo2x2State(x, tuple(blocks)))
                )
    return outcomes


def full_state_count_2tx(config: MimoSystemConfig) -> int:
    """Exact unreduced state count: ``4 B^(2 N_R)``."""
    b = config.num_h_levels**2 * config.num_y_levels
    return 4 * b**config.num_blocks


def reduced_state_count_2tx(config: MimoSystemConfig) -> int:
    """Exact symmetry-quotient state count."""
    b = config.num_h_levels**2 * config.num_y_levels
    return 4 * math.comb(b + config.num_blocks - 1, config.num_blocks)


def _errors_of(config: MimoSystemConfig) -> Callable[[Mimo2x2State], Tuple[bool, int]]:
    """``state -> (vector error, errored bits)``: levels built once per
    build, one detection per state."""
    h_levels = [float(v) for v in config.make_h_quantizer().levels]
    y_levels = [float(v) for v in config.make_y_quantizer().levels]

    @functools.lru_cache(maxsize=None)
    def errors(state: Mimo2x2State) -> Tuple[bool, int]:
        blocks = [(h_levels[i1], h_levels[i2], y_levels[iy]) for i1, i2, iy in state.blocks]
        detected = detect_pair_from_blocks(blocks)
        wrong = sum(int(a != b) for a, b in zip(_CANDIDATES[state.x], detected))
        return wrong > 0, wrong

    return errors


def build_detector_model_2tx(
    config: Optional[MimoSystemConfig] = None,
    reduced: bool = True,
    branch_cutoff: float = 0.0,
) -> ExplorationResult:
    """Build the N_R x 2 detector DTMC.

    Carries three measures: label/reward ``flag`` (vector error — the
    paper's definition) and reward ``biterr`` (average errored bits per
    transmitted bit, i.e. the BER).
    """
    config = config or MimoSystemConfig(num_rx=2, snr_db=8.0, num_y_levels=2)
    distribution = step_distribution_2tx(config, reduced=reduced)
    cold_blocks = tuple(
        [(0, 0, config.num_y_levels // 2)] * config.num_blocks
    )
    initial = Mimo2x2State(0, cold_blocks)
    errors = _errors_of(config)
    return build_iid_dtmc(
        distribution,
        initial=initial,
        labels={"flag": lambda s: errors(s)[0]},
        rewards={
            "flag": lambda s: float(errors(s)[0]),
            "biterr": lambda s: errors(s)[1] / 2.0,
        },
        branch_cutoff=branch_cutoff,
    )
