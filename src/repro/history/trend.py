"""Trend analytics: a family's guarantee trajectories across versions.

:func:`trend_report` scans one :class:`~repro.store.ResultStore` and
folds every banked row of one zoo family into per-guarantee
:class:`TrendSeries` — one series per logical ``(scenario, formula,
backend, config)`` identity, its rows in version order.  The
:class:`TrendReport` on top answers the fleet-operator questions
directly: the maximum drift anywhere in the grid, which series
regressed beyond tolerance, which hold a value that fails validation,
and per-axis summaries (which swept parameter values drift worst).

Everything here is pure, stdlib-only computation over store rows; the
HTML rendering lives in :mod:`repro.history.render` and the CLI/HTTP
surfaces in :mod:`repro.zoo.cli` / :mod:`repro.service.frontend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ..resilience.validate import formula_kind, validate_guarantee
from ..store.history import DRIFT_TOLERANCE, classify_pair, guarantees
from ..store.result_store import ResultStore, StoredResult, canonical

__all__ = [
    "AxisSummary",
    "TrendSeries",
    "TrendReport",
    "scenario_params",
    "trend_report",
    "trend_reports",
]


def scenario_params(scenario: Any) -> Dict[str, Any]:
    """The parameter dict inside a zoo-shaped scenario identity.

    ``zoo.sweep`` banks scenario identities as
    ``["zoo", [family, [[key, value], ...]], ["reduce", flag]]``
    (JSON-decoded, so tuples arrive as lists).  Anything else — custom
    ``store_key`` callables, plain-dict identities — degrades to the
    dict itself when it is one, else to ``{}``.
    """
    if isinstance(scenario, dict):
        return dict(scenario)
    try:
        tag, spec = scenario[0], scenario[1]
        if tag == "zoo":
            return {str(k): v for k, v in spec[1]}
    except (TypeError, IndexError, KeyError, ValueError):
        pass
    return {}


@dataclass
class TrendSeries:
    """One logical guarantee's trajectory across salts.

    ``points`` are its banked rows in version order; ``params`` is the
    scenario's parameter dict when the identity is zoo-shaped.  A
    series holding a value that fails
    :func:`~repro.resilience.validate_guarantee` for its formula is
    ``"flagged"`` regardless of drift, a drift beyond the tolerance
    anywhere along the trajectory is ``"drift"``, everything else is
    ``"stable"`` (including single-version series, which have nothing
    to drift against yet).
    """

    family: Optional[str]
    scenario: Any
    formula: str
    backend: str
    config: Any
    points: List[StoredResult] = field(default_factory=list)
    tolerance: float = DRIFT_TOLERANCE

    @property
    def params(self) -> Dict[str, Any]:
        """Scenario parameters (``{}`` for non-zoo identities)."""
        return scenario_params(self.scenario)

    @property
    def metrics(self) -> List[Optional[float]]:
        """The trendable scalar of every point, in version order."""
        return [p.metric for p in self.points]

    @cached_property
    def drift(self) -> float:
        """Largest :func:`~repro.store.history.classify_pair` step
        between versions (``inf`` for a non-numeric change)."""
        largest = 0.0
        for a, b in zip(self.points, self.points[1:]):
            status, step = classify_pair(a.value, b.value, self.tolerance)
            if step is None:
                step = math.inf if status == "drifted" else 0.0
            largest = max(largest, step)
        return largest

    @cached_property
    def flagged(self) -> bool:
        """True when some value fails validation for the formula."""
        kind = formula_kind(self.formula)
        return any(validate_guarantee(p.value, kind=kind) for p in self.points)

    @property
    def verdict(self) -> str:
        """``"flagged"`` / ``"drift"`` / ``"stable"`` (see class docs)."""
        if self.flagged:
            return "flagged"
        if self.drift > self.tolerance:
            return "drift"
        return "stable"

    def label(self) -> str:
        """Compact identity: sorted params + backend."""
        params = self.params
        inner = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{inner or canonical(self.scenario)} [{self.backend}]"


@dataclass
class AxisSummary:
    """Drift of one swept parameter, value by value.

    ``worst_value`` is the axis value whose series drift the most —
    the first place to look when a version moved a family's grid.
    """

    name: str
    values: List[Any]
    max_drift_by_value: Dict[Any, float]

    @property
    def worst_value(self) -> Any:
        """The axis value with the largest drift (``None`` when flat)."""
        if not self.max_drift_by_value:
            return None
        return max(self.max_drift_by_value, key=self.max_drift_by_value.get)

    @property
    def max_drift(self) -> float:
        """The largest drift anywhere along this axis."""
        return max(self.max_drift_by_value.values(), default=0.0)

    def describe(self) -> str:
        """One human line: axis name, value count, worst value."""
        worst = self.worst_value
        return (
            f"axis {self.name}: {len(self.values)} values,"
            f" max drift {self.max_drift:.3%}"
            + (f" at {self.name}={worst}" if worst is not None else "")
        )


@dataclass
class TrendReport:
    """Every guarantee trajectory of one family, with verdicts.

    Built by :func:`trend_report`; rendered by
    :func:`repro.history.render.render_dashboard` and printed by
    ``repro-zoo history show``.
    """

    family: str
    tolerance: float
    series: List[TrendSeries] = field(default_factory=list)

    @property
    def salts(self) -> List[str]:
        """Every salt seen across the series, in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.series:
            for p in s.points:
                seen.setdefault(p.salt, None)
        return list(seen)

    @property
    def max_drift(self) -> float:
        """The single largest relative drift anywhere in the grid."""
        return max((s.drift for s in self.series), default=0.0)

    @property
    def drifted(self) -> List[TrendSeries]:
        """Series whose drift exceeds the tolerance."""
        return [s for s in self.series if s.drift > self.tolerance]

    @property
    def flagged(self) -> List[TrendSeries]:
        """Series carrying validation warnings anywhere in history."""
        return [s for s in self.series if s.flagged]

    @property
    def verdict(self) -> str:
        """Family-level regression verdict (worst series verdict)."""
        if self.flagged:
            return "flagged"
        if self.drifted:
            return "drift"
        return "stable"

    def axis_summaries(self) -> List[AxisSummary]:
        """Per-axis drift summaries over the swept parameter grid.

        An *axis* is any scenario parameter that takes more than one
        value across the family's series; each value's figure is the
        max drift among the series pinned at that value.
        """
        values_by_name: Dict[str, Dict[str, Any]] = {}
        drift_by_pair: Dict[Tuple[str, str], float] = {}
        for series in self.series:
            for name, value in series.params.items():
                text = repr(value)
                values_by_name.setdefault(name, {})[text] = value
                pair = (name, text)
                drift_by_pair[pair] = max(
                    drift_by_pair.get(pair, 0.0), series.drift
                )
        summaries = []
        for name, values in sorted(values_by_name.items()):
            if len(values) < 2:
                continue  # fixed plane, not an axis
            summaries.append(
                AxisSummary(
                    name=name,
                    values=list(values.values()),
                    max_drift_by_value={
                        value: drift_by_pair[(name, text)]
                        for text, value in values.items()
                    },
                )
            )
        return summaries

    def describe(self) -> str:
        """Multi-line report: header, axis summaries, per-series rows."""
        lines = [
            f"{self.family}: {len(self.series)} tracked guarantee(s)"
            f" across {len(self.salts)} version(s),"
            f" max drift {self.max_drift:.3%}"
            f" (tolerance {self.tolerance:g}) -> {self.verdict}"
        ]
        lines.extend(a.describe() for a in self.axis_summaries())
        for series in self.series:
            metrics = [m for m in series.metrics if m is not None]
            path = " -> ".join(f"{m:.6g}" for m in metrics) or "non-numeric"
            lines.append(
                f"  {series.label()}: {path}"
                f"  ({len(series.points)} version(s),"
                f" drift {series.drift:.3%}, {series.verdict})"
            )
        return "\n".join(lines)


def trend_report(
    store: ResultStore,
    family: str,
    *,
    formula: Optional[str] = None,
    backend: Optional[str] = None,
    tolerance: float = DRIFT_TOLERANCE,
) -> TrendReport:
    """Fold one family's banked rows into a :class:`TrendReport`.

    Each guarantee (:func:`repro.store.history.guarantees`) becomes
    one :class:`TrendSeries`.  ``formula=`` / ``backend=`` narrow the
    scan.
    """
    rows = store.query(family=family, backend=backend, formula=formula)
    series = [
        TrendSeries(
            family=group[0].family,
            scenario=group[0].scenario,
            formula=group[0].formula,
            backend=group[0].backend,
            config=group[0].config,
            points=group,
            tolerance=tolerance,
        )
        for group in guarantees(rows)
    ]
    series.sort(key=lambda s: (s.formula, s.backend, sorted(
        (k, repr(v)) for k, v in s.params.items()
    )))
    return TrendReport(family=family, tolerance=tolerance, series=series)


def trend_reports(
    store: ResultStore, *, tolerance: float = DRIFT_TOLERANCE
) -> List[TrendReport]:
    """One :func:`trend_report` per family present in the store.

    Families are taken from the store's aggregate stats; rows banked
    without a family (the ``'?'`` bucket) are skipped — they have no
    grid to chart.
    """
    stats = store.stats()
    return [
        trend_report(store, family, tolerance=tolerance)
        for family in sorted(stats.families)
        if family and family != "?"
    ]
