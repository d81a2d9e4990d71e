"""Survey history: guarantee trends across code versions (salts).

The :class:`~repro.store.ResultStore` banks every checked guarantee
under the salt of the code version that produced it, so one store file
accumulates a *trajectory* per logical guarantee — the observability
the rate-reliability-complexity charting literature asks for, applied
to the repo itself: "how did this family's BER guarantee move across
versions?".

Three layers, bottom-up:

* :mod:`repro.store.history` / :meth:`ResultStore.history` — banked
  rows grouped into guarantees, the one drift rule, and two-salt
  diffs (store layer);
* :mod:`repro.history.trend` — :class:`TrendReport` analytics over a
  family's sweep grid: per-series drift, regression verdicts that flag
  a value failing :func:`~repro.resilience.validate_guarantee` for its
  formula, per-axis summaries;
* :mod:`repro.history.render` — the self-contained HTML dashboard
  (inline SVG sparklines, stdlib only) the service front-end serves
  at ``GET /dashboard``.

Surfaces: ``repro-zoo history list|show|diff`` on the CLI and
``GET /history`` / ``GET /dashboard`` on the HTTP front-end.
"""

from .render import render_dashboard, sparkline
from .trend import (
    AxisSummary,
    TrendReport,
    TrendSeries,
    scenario_params,
    trend_report,
    trend_reports,
)

__all__ = [
    "AxisSummary",
    "TrendReport",
    "TrendSeries",
    "render_dashboard",
    "scenario_params",
    "sparkline",
    "trend_report",
    "trend_reports",
]
