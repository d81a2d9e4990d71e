"""Self-contained HTML dashboard: guarantee trends as SVG sparklines.

Stdlib only, zero JavaScript: the page the service front-end returns
from ``GET /dashboard`` is one HTML string with inline CSS and inline
SVG — it renders anywhere (CI artifact viewers included) with no
external fetches.  Design choices follow the usual dashboard rules:
one hue for the single-series sparklines, status communicated by a
text label (never color alone), values set in ink colors rather than
the series color, a table beside every sparkline so the numbers are
readable without hover, and a dark mode driven by
``prefers-color-scheme`` CSS variables.
"""

from __future__ import annotations

import html
import math
from typing import Any, Iterable, List, Mapping, Optional, Sequence

from .trend import TrendReport

__all__ = ["sparkline", "render_dashboard"]

#: Single accent hue for the sparkline stroke (identity is carried by
#: the row the sparkline sits in, so one hue serves every series).
_ACCENT = "#4269d0"

#: Status label -> dot color; the label text always rides along.
_STATUS = {"stable": "#2e7d43", "drift": "#b45309", "flagged": "#b91c1c"}

#: Sparkline size in pixels, and the padding inside it.
_WIDTH, _HEIGHT, _PAD = 140, 30, 3.0

#: The page's ``<title>`` and heading.
_TITLE = "repro guarantee dashboard"


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Inline-SVG sparkline of one metric trajectory.

    ``None`` entries (non-numeric versions) and NaN or infinite values
    (no place on the axis) are skipped.  Flat series draw a midline;
    single points draw a dot.  The newest point is emphasized with a
    filled marker, matching the "direct-label the latest value"
    convention of the surrounding table.
    """
    points = [
        (i, v) for i, v in enumerate(values)
        if v is not None and math.isfinite(v)
    ]
    head = (
        f'<svg class="spark" width="{_WIDTH}" height="{_HEIGHT}"'
        f' viewBox="0 0 {_WIDTH} {_HEIGHT}" role="img"'
    )
    if not points:
        return f'{head} aria-label="no numeric history"></svg>'
    xs = [i for i, _ in points]
    ys = [v for _, v in points]
    lo, hi = min(ys), max(ys)
    span_x = max(max(xs) - min(xs), 1)
    span_y = (hi - lo) or 1.0

    def coord(i: int, v: float) -> str:
        """Map one (index, value) pair onto the padded viewBox."""
        x = _PAD + (i - min(xs)) * (_WIDTH - 2 * _PAD) / span_x
        y = _HEIGHT - _PAD - (v - lo) * (_HEIGHT - 2 * _PAD) / span_y
        return f"{x:.1f},{y:.1f}"

    coords = [coord(i, v) for i, v in points]
    last = coords[-1].split(",")
    label = " to ".join(f"{v:.6g}" for v in (ys[0], ys[-1]))
    parts = [f'{head} aria-label="trend {html.escape(label)}">']
    if len(coords) > 1:
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none"'
            f' stroke="{_ACCENT}" stroke-width="2"'
            f' stroke-linejoin="round" stroke-linecap="round"/>'
        )
    parts.append(
        f'<circle cx="{last[0]}" cy="{last[1]}" r="3" fill="{_ACCENT}"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _badge(verdict: str) -> str:
    """Status badge: colored dot + text label (never color alone)."""
    color = _STATUS.get(verdict, "#6b7280")
    return (
        f'<span class="badge"><span class="dot"'
        f' style="background:{color}"></span>{html.escape(verdict)}</span>'
    )


def _tile(label: str, value: Any) -> str:
    """One stat tile (label above, headline value below)."""
    return (
        f'<div class="tile"><div class="tile-label">{html.escape(label)}'
        f'</div><div class="tile-value">{html.escape(str(value))}</div></div>'
    )


def _metric_text(value: Optional[float]) -> str:
    return f"{value:.6g}" if value is not None else "—"


_CSS = """
:root {
  --bg: #ffffff; --surface: #f6f7f9; --ink: #1a1d23; --ink-2: #5a6070;
  --line: #e3e5ea; --accent: #4269d0;
}
@media (prefers-color-scheme: dark) {
  :root {
    --bg: #16181d; --surface: #1f222a; --ink: #e8eaf0; --ink-2: #9aa1b2;
    --line: #2e323c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--bg); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--line);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile-label { color: var(--ink-2); font-size: 12px; }
.tile-value { font-size: 20px; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--line);
  font-variant-numeric: tabular-nums; vertical-align: middle;
}
th { color: var(--ink-2); font-weight: 500; font-size: 12px; }
td.num { text-align: right; }
.badge { display: inline-flex; align-items: center; gap: 6px; }
.dot { width: 8px; height: 8px; border-radius: 50%; display: inline-block; }
.spark { display: block; }
.axes { color: var(--ink-2); font-size: 13px; margin: 4px 0 10px; }
footer { color: var(--ink-2); font-size: 12px; margin-top: 28px; }
"""


def render_dashboard(
    reports: Iterable[TrendReport],
    *,
    stats: Optional[Mapping[str, Any]] = None,
    health: Optional[Mapping[str, Any]] = None,
) -> str:
    """The full ``GET /dashboard`` page as one HTML string.

    ``reports`` are per-family :class:`TrendReport` objects (typically
    :func:`repro.history.trend_reports` over the serving store);
    ``stats`` / ``health`` are the front-end's ``/stats`` and
    ``/healthz`` payloads, rendered as stat tiles so the page is a
    one-stop fleet snapshot.
    """
    reports = list(reports)
    out: List[str] = [
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{_TITLE}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_TITLE}</h1>",
        '<p class="sub">Store-backed guarantee trends across code'
        " versions (salts); values re-banked by each version of the"
        " code, charted in insertion order.</p>",
    ]
    tiles: List[str] = []
    if health is not None:
        tiles.append(_tile("service", health.get("status", "?")))
        tiles.append(
            _tile(
                "workers alive",
                f"{health.get('workers_alive', 0)}/{health.get('workers', 0)}",
            )
        )
    if stats is not None:
        store_stats = stats.get("store") or {}
        tiles.append(_tile("stored guarantees", store_stats.get("entries", 0)))
        tiles.append(
            _tile(
                "hits / misses",
                f"{stats.get('guarantee_hits', 0)} /"
                f" {stats.get('guarantee_misses', 0)}",
            )
        )
        tiles.append(_tile("uptime (s)", stats.get("uptime", 0)))
    tiles.append(_tile("families tracked", len(reports)))
    out.append(f'<div class="tiles">{"".join(tiles)}</div>')

    if not reports:
        out.append(
            "<p>No banked guarantees yet — run a sweep with"
            " <code>--store</code> against this service's store.</p>"
        )
    for report in reports:
        out.append(
            f"<h2>{html.escape(report.family)} {_badge(report.verdict)}</h2>"
        )
        out.append(
            f'<p class="sub">{len(report.series)} tracked guarantee(s)'
            f" across {len(report.salts)} version(s); max drift"
            f" {report.max_drift:.3%} (tolerance {report.tolerance:g}).</p>"
        )
        axes = report.axis_summaries()
        if axes:
            out.append(
                '<p class="axes">'
                + " · ".join(html.escape(a.describe()) for a in axes)
                + "</p>"
            )
        out.append(
            "<table><thead><tr><th>point</th><th>formula</th>"
            "<th>backend</th><th class=\"num\">versions</th>"
            "<th class=\"num\">first</th><th class=\"num\">latest</th>"
            "<th class=\"num\">drift</th><th>verdict</th><th>trend</th>"
            "</tr></thead><tbody>"
        )
        for series in report.series:
            metrics = series.metrics
            numeric = [m for m in metrics if m is not None]
            params = " ".join(
                f"{k}={v}" for k, v in sorted(series.params.items())
            ) or "&lt;defaults&gt;"
            out.append(
                "<tr>"
                f"<td>{params if params.startswith('&lt;') else html.escape(params)}</td>"
                f"<td>{html.escape(series.formula)}</td>"
                f"<td>{html.escape(series.backend)}</td>"
                f'<td class="num">{len(series.points)}</td>'
                f'<td class="num">{_metric_text(numeric[0] if numeric else None)}</td>'
                f'<td class="num">{_metric_text(numeric[-1] if numeric else None)}</td>'
                f'<td class="num">{series.drift:.3%}</td>'
                f"<td>{_badge(series.verdict)}</td>"
                f"<td>{sparkline(metrics)}</td>"
                "</tr>"
            )
        out.append("</tbody></table>")
    out.append(
        "<footer>Generated by <code>repro.history</code> — see"
        " <code>docs/http-api.md</code> for the JSON twin at"
        " <code>GET /history</code>.</footer>"
    )
    out.append("</body></html>")
    return "".join(out)
