"""MIMO system model ``y = Hx + n`` (the paper's Eq. 1).

Bundles the physical-layer parameters of the detector case study —
antenna counts, SNR, and the receiver's quantizers for the received
samples and the channel estimates — and provides both continuous
sampling (Monte-Carlo baseline) and the quantized finite alphabets the
DTMC model is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..comm.channel import RayleighFadingChannel
from ..comm.quantizer import UniformQuantizer
from ..comm.snr import noise_sigma

__all__ = ["MimoSystemConfig", "FADING_SIGMA"]

#: Std-dev of each real dimension of a normalized CN(0,1) fading entry.
FADING_SIGMA = math.sqrt(0.5)


@dataclass(frozen=True)
class MimoSystemConfig:
    """Parameters of a 1xN (receive-diversity) MIMO detector study.

    Defaults are a laptop-scale setting: a 3-level
    received-sample quantizer and a 2-level fading quantizer keep the
    *full* (unreduced) 1x2 model explicitly buildable so the symmetry
    reduction can be verified against it; the paper's Table II is the
    same experiment at PRISM scale.

    Attributes
    ----------
    num_rx:
        Receive antennas N_R (the paper's 1x2 and 1x4 detectors).
    snr_db:
        Per-branch average Es/N0 in dB (paper: 8 dB for 1x2, 12 dB for
        1x4).
    num_y_levels / y_range:
        Quantizer for each real dimension of the received vector y.
        The range must straddle the quantized fading amplitudes (the
        ``h`` levels): decision thresholds outside ``±|h_level|`` make
        every metric block a tie and the detector degenerates.
    num_h_levels / h_range:
        Quantizer for each real dimension of the channel estimate H.
    """

    num_rx: int = 2
    snr_db: float = 8.0
    num_y_levels: int = 3
    y_range: Tuple[float, float] = (-1.5, 1.5)
    num_h_levels: int = 2
    h_range: Tuple[float, float] = (-1.5, 1.5)

    def __post_init__(self) -> None:
        if self.num_rx < 1:
            raise ValueError("need at least one receive antenna")

    @property
    def num_blocks(self) -> int:
        """The paper's ``2 x N_R`` symmetric metric blocks (real and
        imaginary part of each receive branch)."""
        return 2 * self.num_rx

    @property
    def sigma(self) -> float:
        """Per-real-dimension noise std-dev at the configured SNR."""
        return noise_sigma(self.snr_db, symbol_energy=1.0)

    def make_y_quantizer(self) -> UniformQuantizer:
        return UniformQuantizer(self.num_y_levels, *self.y_range)

    def make_h_quantizer(self) -> UniformQuantizer:
        return UniformQuantizer(self.num_h_levels, *self.h_range)

    def make_channel(self, rng: Optional[np.random.Generator] = None
                     ) -> RayleighFadingChannel:
        """Continuous channel for the Monte-Carlo baseline (1 TX antenna)."""
        return RayleighFadingChannel(self.num_rx, 1, self.sigma, rng=rng)

    # ------------------------------------------------------------------
    # Finite alphabets for the DTMC model
    # ------------------------------------------------------------------
    def h_level_distribution(self) -> List[Tuple[float, float]]:
        """``(probability, level)`` of a quantized fading dimension."""
        quantizer = self.make_h_quantizer()
        return quantizer.output_distribution(0.0, FADING_SIGMA)

    def y_level_distribution(self, mean: float) -> List[Tuple[float, float]]:
        """``(probability, level)`` of a quantized received dimension
        whose noiseless value is ``mean``."""
        quantizer = self.make_y_quantizer()
        return quantizer.output_distribution(mean, self.sigma)
