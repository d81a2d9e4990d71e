"""Uniform quantization with exact Gaussian cell probabilities.

The quantizer is the component that turns the continuous receiver
front-end into a *finite* probabilistic system: the probability that a
received sample ``signal + N(0, sigma^2)`` falls into each quantizer
cell is an exact Gaussian integral, and those probabilities become the
DTMC transition probabilities of the paper's models ("we use this to
calculate the probability of a received sample being mapped to a
particular quantization level").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import special

__all__ = ["UniformQuantizer"]


class UniformQuantizer:
    """Saturating uniform mid-rise quantizer on ``[low, high]``.

    The interval is split into ``num_levels`` equal cells; each cell's
    reconstruction value is its midpoint, and the outermost cells
    extend to ±infinity (saturation), so every real sample maps to some
    level.

    Parameters
    ----------
    num_levels:
        Number of quantization levels (>= 2); an RTL word of ``b`` bits
        gives ``2**b`` levels.
    low / high:
        Edges of the non-saturated range.
    """

    def __init__(self, num_levels: int, low: float, high: float) -> None:
        if num_levels < 2:
            raise ValueError(f"need at least 2 levels, got {num_levels}")
        if not high > low:
            raise ValueError(f"empty quantizer range [{low}, {high}]")
        self.num_levels = int(num_levels)
        self.low = float(low)
        self.high = float(high)
        self.step = (self.high - self.low) / self.num_levels
        # Interior decision thresholds, length num_levels - 1.
        self.thresholds = self.low + self.step * np.arange(1, self.num_levels)
        # Reconstruction values (cell midpoints), length num_levels.
        self.levels = self.low + self.step * (np.arange(self.num_levels) + 0.5)

    @classmethod
    def for_bits(cls, bits: int, low: float, high: float) -> "UniformQuantizer":
        """Quantizer of an RTL word with ``bits`` bits."""
        if bits < 1:
            raise ValueError("need at least 1 bit")
        return cls(2**bits, low, high)

    # ------------------------------------------------------------------
    def quantize_index(self, samples: Sequence[float]) -> np.ndarray:
        """Map samples to level indices ``0 .. num_levels-1`` (vectorized)."""
        samples = np.asarray(samples, dtype=np.float64)
        return np.searchsorted(self.thresholds, samples, side="right")

    def quantize(self, samples: Sequence[float]) -> np.ndarray:
        """Map samples to reconstruction values."""
        return self.levels[self.quantize_index(samples)]

    # ------------------------------------------------------------------
    def cell_probabilities(self, mean: float, sigma: float) -> np.ndarray:
        """P(level i) for a sample ``~ N(mean, sigma^2)``; sums to 1 exactly.

        This is the paper's DTMC-labeling computation: given the
        noiseless signal value ``mean`` and the SNR-derived ``sigma``,
        return the probability of observing each quantization level.
        """
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        # The arithmetic of scipy.stats.norm.cdf, bit for bit, without
        # importing scipy.stats (a large share of a cold start).
        cdf = special.ndtr((self.thresholds - mean) / sigma)
        upper = np.append(cdf, 1.0)
        lower = np.insert(cdf, 0, 0.0)
        probabilities = upper - lower
        # Guard against round-off: renormalize (error is ~1e-16).
        return probabilities / probabilities.sum()

    def output_distribution(
        self, mean: float, sigma: float, cutoff: float = 0.0
    ) -> list:
        """``(probability, level_value)`` pairs, optionally cutoff-pruned.

        Convenience for building DTMC branches directly.
        """
        probabilities = self.cell_probabilities(mean, sigma)
        pairs = [
            (float(p), float(level))
            for p, level in zip(probabilities, self.levels)
            if p > cutoff
        ]
        total = sum(p for p, _ in pairs)
        return [(p / total, level) for p, level in pairs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UniformQuantizer(num_levels={self.num_levels}, low={self.low},"
            f" high={self.high})"
        )
