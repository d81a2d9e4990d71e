"""DTMC model of the 1xN ML MIMO detector (Section IV-B, Tables II & V).

State variables are the paper's: the transmitted bit ``x`` and the
quantized real/imaginary parts of ``y`` and ``H``, grouped into the
``2 * N_R`` metric *blocks* ``(h_level_index, y_level_index)``; the
error flag is the deterministic ML comparison.

Every clock cycle redraws ``x``, ``H`` and the noise — the detector is
combinational — so the chain is i.i.d. per step and is constructed with
:func:`repro.dtmc.builder.build_iid_dtmc`.  Two variants:

* **full model** — states are ``(x, ordered block tuple)``: the
  explicit model ``M`` of Table II (only buildable at small quantizer
  sizes; its size grows as ``2 B^(2 N_R)`` with ``B`` the per-block
  alphabet).
* **reduced model** — states are ``(x, sorted block multiset)``: the
  symmetry quotient ``M_R``, built directly by canonicalizing blocks
  (the paper's symmetry reduction); its size grows only as the number
  of multisets ``2 C(B + 2 N_R - 1, 2 N_R)``.

Block exchangeability holds because (a) the blocks' probabilistic
inputs are i.i.d. (Rayleigh fading and noise are drawn per dimension)
and (b) the Eq.-15 metric is a *sum* over blocks, so the flag is
permutation-invariant — the paper's interchange argument, which the
test suite re-verifies mechanically with
:func:`repro.core.reductions.symmetry.verify_permutation_invariance`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dtmc.builder import ExplorationResult, build_iid_dtmc
from .detector import QuantizedMLDetector
from .system import MimoSystemConfig

__all__ = [
    "MimoState",
    "block_alphabet",
    "full_state_count",
    "reduced_state_count",
    "step_distribution_full",
    "step_distribution_reduced",
    "build_detector_model",
    "block_values",
]

MimoState = namedtuple("MimoState", ["x", "blocks"])


def block_alphabet(config: MimoSystemConfig) -> List[Tuple[int, int]]:
    """All ``(h_index, y_index)`` block values."""
    return list(
        itertools.product(
            range(config.num_h_levels), range(config.num_y_levels)
        )
    )


def _block_distribution(
    config: MimoSystemConfig, bit: int
) -> Dict[Tuple[int, int], float]:
    """Distribution of one block given the transmitted bit.

    ``P(h_i, y_i | x) = P(h_i) * P(y in cell_i | mean = h_level * s)``
    with ``s = ±1`` the BPSK symbol of ``x``.
    """
    symbol = 2.0 * bit - 1.0
    h_quantizer = config.make_h_quantizer()
    y_quantizer = config.make_y_quantizer()
    out: Dict[Tuple[int, int], float] = {}
    h_probs = h_quantizer.cell_probabilities(0.0, math.sqrt(0.5))
    for ih, p_h in enumerate(h_probs):
        if p_h <= 0.0:
            continue
        mean = h_quantizer.levels[ih] * symbol
        y_probs = y_quantizer.cell_probabilities(mean, config.sigma)
        for iy, p_y in enumerate(y_probs):
            if p_y <= 0.0:
                continue
            out[(ih, iy)] = float(p_h * p_y)
    return out


def block_values(
    config: MimoSystemConfig, blocks: Sequence[Tuple[int, int]]
) -> List[Tuple[float, float]]:
    """Map block *indices* to ``(h_level, y_level)`` values."""
    h_levels = config.make_h_quantizer().levels
    y_levels = config.make_y_quantizer().levels
    return [(float(h_levels[ih]), float(y_levels[iy])) for ih, iy in blocks]


def _flag_of(config: MimoSystemConfig) -> Callable[[MimoState], bool]:
    """The ``flag`` predicate: levels and detector built once per build,
    one detection per state."""
    h_levels = [float(v) for v in config.make_h_quantizer().levels]
    y_levels = [float(v) for v in config.make_y_quantizer().levels]
    is_error = QuantizedMLDetector().is_error
    return functools.lru_cache(maxsize=None)(
        lambda s: is_error(s.x, [(h_levels[ih], y_levels[iy]) for ih, iy in s.blocks])
    )


def step_distribution_full(config: MimoSystemConfig) -> List[Tuple[float, MimoState]]:
    """One-step outcome distribution over *ordered* block tuples.

    Size ``2 B^(2 N_R)`` — only call at small quantizer settings.
    """
    outcomes: List[Tuple[float, MimoState]] = []
    for bit in (0, 1):
        dist = _block_distribution(config, bit)
        items = list(dist.items())
        for combo in itertools.product(items, repeat=config.num_blocks):
            probability = 0.5
            blocks = []
            for value, p in combo:
                probability *= p
                blocks.append(value)
            outcomes.append((probability, MimoState(bit, tuple(blocks))))
    return outcomes


def step_distribution_reduced(
    config: MimoSystemConfig,
) -> List[Tuple[float, MimoState]]:
    """One-step outcome distribution over block *multisets*.

    The probability of a sorted tuple is its multinomial coefficient
    times the product of per-block probabilities — enumerating
    ``C(B + 2 N_R - 1, 2 N_R)`` multisets directly instead of ``B^(2
    N_R)`` ordered tuples.  This *is* the on-the-fly symmetry
    reduction: the full model never materializes.
    """
    n = config.num_blocks
    outcomes: List[Tuple[float, MimoState]] = []
    for bit in (0, 1):
        dist = _block_distribution(config, bit)
        values = sorted(dist)
        for multiset in itertools.combinations_with_replacement(values, n):
            probability = 0.5 * _multiset_probability(multiset, dist)
            outcomes.append((probability, MimoState(bit, multiset)))
    return outcomes


def _multiset_probability(
    multiset: Tuple[Tuple[int, int], ...], dist: Dict[Tuple[int, int], float]
) -> float:
    """Multinomial probability of drawing exactly this multiset i.i.d."""
    n = len(multiset)
    coefficient = math.factorial(n)
    probability = 1.0
    for value, count in _counts(multiset).items():
        coefficient //= math.factorial(count)
        probability *= dist[value] ** count
    return coefficient * probability


def _counts(multiset: Sequence) -> Dict:
    counts: Dict = {}
    for value in multiset:
        counts[value] = counts.get(value, 0) + 1
    return counts


def full_state_count(config: MimoSystemConfig) -> int:
    """Exact state count of the unreduced model ``M``.

    Every quantizer cell has positive Gaussian probability, so the
    reachable support is the full product ``2 B^(2 N_R)`` (the cold
    start lies inside it).  Matches
    ``build_detector_model(reduced=False)`` where that is small enough
    to build.
    """
    b = config.num_h_levels * config.num_y_levels
    return 2 * b**config.num_blocks


def reduced_state_count(config: MimoSystemConfig) -> int:
    """Exact state count of the symmetry quotient ``M_R``."""
    b = config.num_h_levels * config.num_y_levels
    return 2 * math.comb(b + config.num_blocks - 1, config.num_blocks)


def build_detector_model(
    config: Optional[MimoSystemConfig] = None,
    reduced: bool = True,
    branch_cutoff: float = 0.0,
) -> ExplorationResult:
    """Build the detector DTMC (reduced by default).

    The chain carries the ``flag`` label and matching 0/1 reward; the
    paper's Table V checks ``R=? [ I=T ]`` on it, and ``S=? [ flag ]``
    gives the BER directly.

    ``branch_cutoff`` reproduces PRISM's pruning of sub-1e-15 branches
    (the paper applies it to the 1x4 detector).
    """
    config = config or MimoSystemConfig()
    if reduced:
        distribution = step_distribution_reduced(config)
    else:
        distribution = step_distribution_full(config)
    cold_blocks = tuple(
        [(0, config.num_y_levels // 2)] * config.num_blocks
    )
    initial = MimoState(0, cold_blocks)
    flag = _flag_of(config)
    return build_iid_dtmc(
        distribution,
        initial=initial,
        labels={"flag": flag},
        rewards={"flag": lambda s: float(flag(s))},
        branch_cutoff=branch_cutoff,
    )
