"""Statistical estimators for simulation-based BER measurement.

The paper's competing methodology is Monte-Carlo simulation (Jeruchim's
classic BER-estimation setting, the paper's reference [2]).  Everything
needed to treat simulation results honestly lives here: point
estimates, binomial confidence intervals, and sample-size planning —
including the "zero observed errors" case the paper weaponizes against
simulation ("we observe zero bit errors in 1e5 time steps").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "BerEstimate",
    "wilson_interval",
    "clopper_pearson_interval",
    "rule_of_three_upper_bound",
    "required_trials",
]


def wilson_interval(errors: int, trials: int, confidence: float = 0.95
                    ) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved even for very small error counts, unlike the normal
    approximation.
    """
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= errors <= trials:
        raise ValueError("errors must be within [0, trials]")
    from scipy import stats  # deferred: scipy.stats is slow to import

    z = stats.norm.ppf(0.5 + confidence / 2.0)
    p = errors / trials
    denominator = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def clopper_pearson_interval(
    errors: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Exact (conservative) Clopper-Pearson binomial interval."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    from scipy import stats  # deferred: scipy.stats is slow to import

    alpha = 1.0 - confidence
    lower = 0.0 if errors == 0 else stats.beta.ppf(
        alpha / 2, errors, trials - errors + 1
    )
    upper = 1.0 if errors == trials else stats.beta.ppf(
        1 - alpha / 2, errors + 1, trials - errors
    )
    return float(lower), float(upper)


def rule_of_three_upper_bound(trials: int, confidence: float = 0.95) -> float:
    """Upper bound on p when *zero* errors were observed.

    ``p <= -ln(1-confidence)/n`` (~ 3/n at 95%): the best simulation
    can say after ``n`` clean trials — the quantitative version of the
    paper's "zero bit errors in 1e5 time steps" observation.
    """
    if trials <= 0:
        raise ValueError("need at least one trial")
    return -math.log(1.0 - confidence) / trials


def required_trials(p: float, relative_error: float = 0.1,
                    confidence: float = 0.95) -> int:
    """Trials needed to estimate ``p`` within ``relative_error`` (CLT).

    For BER 1e-7 at 10% relative error this is ~4e9 trials — the
    economics that motivate the paper's exhaustive alternative.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    from scipy import stats  # deferred: scipy.stats is slow to import

    z = stats.norm.ppf(0.5 + confidence / 2.0)
    return math.ceil((z / relative_error) ** 2 * (1 - p) / p)


@dataclass(frozen=True)
class BerEstimate:
    """A simulation-based BER estimate with its uncertainty."""

    errors: int
    trials: int
    confidence: float = 0.95

    @property
    def point(self) -> float:
        """Maximum-likelihood point estimate."""
        return self.errors / self.trials

    @property
    def interval(self) -> Tuple[float, float]:
        """Wilson confidence interval."""
        return wilson_interval(self.errors, self.trials, self.confidence)

    @property
    def standard_error(self) -> float:
        p = self.point
        return math.sqrt(max(p * (1 - p), 1e-300) / self.trials)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        low, high = self.interval
        return low <= value <= high

    def __str__(self) -> str:
        low, high = self.interval
        return (
            f"{self.point:.3e} ({self.errors}/{self.trials} errors,"
            f" {self.confidence:.0%} CI [{low:.3e}, {high:.3e}])"
        )
