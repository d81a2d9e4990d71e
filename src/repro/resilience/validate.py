"""Guarantee validation: no silently-wrong number leaves the fabric.

The ROADMAP's serving story is "a million automated checks" — at that
volume a NaN from a degenerate solve, a probability of 1.0000000002
from accumulated round-off, or an estimate that disagrees wildly with
a cross-backend sanity check must be *flagged*, not silently cached
and served.  :func:`validate_guarantee` is that gate: it inspects any
value the fabric emits (floats, :class:`~repro.smc.ApmcResult`,
:class:`~repro.smc.SprtResult`, :class:`~repro.core.Guarantee`) and
returns structured :class:`ValidationWarning` records.  Violations are
deliberately *warnings on the result*, never exceptions: a suspicious
number quarantines attention, not the sweep.

Checks
------
* **NaN / Inf** — always an anomaly for a checked metric.
* **Probability range** — ``P=?`` / ``S=?`` values must lie in
  ``[0, 1]`` up to a round-off tolerance; the warning carries the
  clipped value so callers can decide to clamp.
* **Monotonicity hints** — :func:`validate_monotone` checks an
  ordered series of sweep values against a declared trend (e.g. BER
  falls as SNR rises) and flags inversions beyond tolerance.
* **Cross-backend plausibility** — given the model, an exact value of
  a bounded path property is re-estimated with a cheap APMC run and
  flagged when the two disagree beyond the estimate's guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ValidationWarning",
    "validate_guarantee",
    "validate_monotone",
    "numeric_value",
    "formula_kind",
]

#: Round-off slack for the probability-range check: linear solves land
#: a few ulps outside [0, 1] without anything being wrong.
RANGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ValidationWarning:
    """One structured validation violation.

    ``code`` is machine-matchable (``"nan"``, ``"inf"``, ``"range"``,
    ``"monotonicity"``, ``"cross-backend"``); ``message`` is the human
    diagnostic; ``value`` the offending number and ``clipped`` the
    nearest plausible value when one exists (range violations only).
    """

    code: str
    message: str
    value: Optional[float] = None
    clipped: Optional[float] = None

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def numeric_value(value: Any) -> Optional[float]:
    """The checkable number inside a fabric value, or ``None``.

    Unwraps :class:`~repro.core.Guarantee` (``.value``) and
    :class:`~repro.smc.ApmcResult` (``.estimate``) duck-typed; SPRT
    decisions carry a boolean verdict, which is validated only for
    being a clean 0/1.
    """
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    for attribute in ("estimate", "value"):
        inner = getattr(value, attribute, None)
        if isinstance(inner, (int, float)) and not isinstance(inner, bool):
            return float(inner)
    accept = getattr(value, "accept", None)
    if isinstance(accept, (bool,)):
        return float(accept)
    return None


def formula_kind(formula: Any) -> Optional[str]:
    """``"probability"`` / ``"reward"`` / ``None`` for a pCTL string or
    an already parsed formula tree.

    ``P=?`` and ``S=?`` queries are probability-valued (range-checked
    against ``[0, 1]``); ``R=?`` queries are rewards (range-checked
    against ``>= 0`` only).  Unparseable input returns ``None`` — the
    numeric checks still run, the range check is skipped.
    """
    if not formula:
        return None
    try:  # deferred: keep this module import-light (no package cycles)
        from ..pctl import parse_formula
        from ..pctl.ast import ProbQuery, RewardQuery, SteadyQuery

        tree = parse_formula(formula) if isinstance(formula, str) else formula
    except Exception:
        return None
    if isinstance(tree, (ProbQuery, SteadyQuery)):
        return "probability"
    if isinstance(tree, RewardQuery):
        return "reward"
    return None


def _numeric_warnings(
    number: float, kind: Optional[str], tolerance: float
) -> List[ValidationWarning]:
    if math.isnan(number):
        return [
            ValidationWarning(
                code="nan",
                message="checked value is NaN",
                value=number,
            )
        ]
    if math.isinf(number):
        # R=? [F target] is legitimately +inf for states that miss the
        # target; rewards therefore only flag *negative* infinity.
        if kind == "reward" and number > 0:
            return []
        return [
            ValidationWarning(
                code="inf",
                message="checked value is infinite",
                value=number,
            )
        ]
    if kind == "probability" and not (
        -tolerance <= number <= 1.0 + tolerance
    ):
        clipped = min(1.0, max(0.0, number))
        return [
            ValidationWarning(
                code="range",
                message=(
                    f"probability {number!r} outside [0, 1]"
                    f" (clipped: {clipped!r})"
                ),
                value=number,
                clipped=clipped,
            )
        ]
    if kind == "reward" and number < -tolerance:
        return [
            ValidationWarning(
                code="range",
                message=f"reward {number!r} is negative (clipped: 0.0)",
                value=number,
                clipped=0.0,
            )
        ]
    return []


def validate_guarantee(
    value: Any,
    *,
    formula: Optional[str] = None,
    kind: Optional[str] = None,
    tolerance: float = RANGE_TOLERANCE,
    cross_check_chain: Any = None,
    cross_check_epsilon: float = 0.05,
) -> Tuple[ValidationWarning, ...]:
    """Validate one fabric-emitted value; returns warning records.

    Parameters
    ----------
    value:
        A checked number, :class:`~repro.core.Guarantee`,
        :class:`~repro.smc.ApmcResult` or :class:`~repro.smc.SprtResult`.
    formula:
        The pCTL property the value answers; drives the range check
        (probabilities vs rewards).  ``kind`` may be passed directly
        (``"probability"`` / ``"reward"``) when the caller has already
        classified the formula — sweeps classify once per grid, not
        once per point.
    tolerance:
        Round-off slack of the range check.
    cross_check_chain:
        Optional model.  When given (and the formula is a bounded path
        property the statistical engine supports), the value is
        re-estimated with a cheap seeded APMC run at
        ``cross_check_epsilon`` accuracy; disagreement beyond
        ``2*epsilon`` past the estimate's own guarantee raises a
        ``"cross-backend"`` warning.  Off by default — it costs a
        sampling run.

    An empty tuple means the value passed every applicable check.
    """
    warnings: List[ValidationWarning] = []
    if kind is None:
        kind = formula_kind(formula)
    number = numeric_value(value)
    if number is None:
        return tuple(warnings)
    warnings.extend(_numeric_warnings(number, kind, tolerance))
    if (
        cross_check_chain is not None
        and formula
        and not warnings
        and kind == "probability"
    ):
        cross = _cross_check(
            number, formula, cross_check_chain, cross_check_epsilon
        )
        if cross is not None:
            warnings.append(cross)
    return tuple(warnings)


def _cross_check(
    number: float,
    formula: str,
    chain: Any,
    epsilon: float,
) -> Optional[ValidationWarning]:
    """Cheap APMC plausibility probe of an exact probability."""
    try:  # deferred import; unsupported formulas simply skip the probe
        from ..smc import smc_estimate

        probe = smc_estimate(
            chain, formula, epsilon=epsilon, delta=0.05, seed=0
        )
    except Exception:
        return None
    gap = abs(number - probe.estimate)
    allowance = probe.epsilon + 2.0 * epsilon
    if gap <= allowance:
        return None
    return ValidationWarning(
        code="cross-backend",
        message=(
            f"exact value {number:.6g} disagrees with APMC estimate"
            f" {probe.estimate:.6g} (+-{probe.epsilon}) by {gap:.6g}"
            f" — beyond the {allowance:.6g} plausibility allowance"
        ),
        value=number,
    )


def validate_monotone(
    values: Sequence[Any],
    *,
    decreasing: bool = True,
    tolerance: float = 1e-9,
    labels: Optional[Iterable[Any]] = None,
) -> Tuple[ValidationWarning, ...]:
    """Monotonicity hint over an ordered series of sweep values.

    The paper's sweeps have known physics: BER falls as SNR rises,
    convergence probability rises with traceback depth.  Passing the
    ordered value series (and the expected direction) flags every
    adjacent inversion beyond ``tolerance`` — a cheap tripwire for
    solver instability across a grid.  Non-numeric entries (failed
    points) are skipped.
    """
    series = [numeric_value(v) for v in values]
    names = list(labels) if labels is not None else list(range(len(series)))
    warnings: List[ValidationWarning] = []
    previous: Optional[Tuple[Any, float]] = None
    for name, number in zip(names, series):
        if number is None or math.isnan(number):
            continue
        if previous is not None:
            prev_name, prev_number = previous
            delta = number - prev_number
            violated = delta > tolerance if decreasing else delta < -tolerance
            if violated:
                direction = "decrease" if decreasing else "increase"
                warnings.append(
                    ValidationWarning(
                        code="monotonicity",
                        message=(
                            f"expected values to {direction}:"
                            f" {prev_name!r}={prev_number:.6g} ->"
                            f" {name!r}={number:.6g}"
                        ),
                        value=number,
                    )
                )
        previous = (name, number)
    return tuple(warnings)
