"""Tests for the survey-history axis (ISSUE 9).

Covers the cross-salt behavior end to end:

* the store layer — ``stats().salts``, ``history()`` insertion ordering,
  ``compare()`` classification (unchanged / drifted / appeared /
  vanished) and its tolerance knob;
* the v1 -> v2 schema migration (salt column added in place, old rows
  readable under salt ``''``);
* ``StoredResult.describe()`` / ``StoreStats`` schema + per-salt rows;
* trend analytics — verdict ladder (stable / drift / flagged), axis
  summaries, scenario param parsing;
* the rendering layer — sparkline SVG and the dashboard page;
* the HTTP surfaces — ``/history`` JSON round-trip, ``/dashboard``
  HTML, and their error statuses;
* the CLI — ``history diff`` exits non-zero on planted drift.
"""

import json
import math
import sqlite3
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import Guarantee
from repro.history import (
    TrendReport,
    render_dashboard,
    scenario_params,
    sparkline,
    trend_report,
    trend_reports,
)
from repro.resilience import ValidationWarning, numeric_value
from repro.service import Coordinator, Frontend, FrontendServer
from repro.store import (
    DRIFT_TOLERANCE,
    ResultStore,
    StoredResult,
    check_fingerprint,
    relative_drift,
)
from repro.store.result_store import SCHEMA_VERSION
from repro.zoo.cli import main as cli_main

FORMULA = "P=? [ F<=10 flag ]"


def _scen(family, **params):
    """The real zoo scenario identity, as ``zoo.sweep`` banks them.

    Uses the sweep layer's own key builder so the rows seeded here are
    addressable by the HTTP front-end (which recomputes the identity
    from query parameters, merging family defaults).
    """
    from repro.zoo.sweep import _point_store_key

    return _point_store_key(
        params, family=family, base_params=None, reduce=True
    )


def _row(value, formula=FORMULA):
    """One banked row holding ``value`` as the answer to ``formula``."""
    return StoredResult(
        key="k", scenario={}, family=None, formula=formula,
        backend="exact", config={}, value=value, seconds=0.0, samples=0,
    )


def _seed_verdict_table(path):
    """Five ``birth-death`` guarantees banked under salts v1 and v2.

    n=8 holds still, n=9 turns NaN, the reward at n=10 turns infinite
    (a legitimate reward), n=11's non-numeric value changes, and n=12
    holds still at a probability out of [0, 1].
    """
    reward = "R=? [ F goal ]"
    rows = {
        8: (FORMULA, 0.4, 0.4),
        9: (FORMULA, 0.5, math.nan),
        10: (reward, 1.0, math.inf),
        11: (FORMULA, {"a": 1}, {"a": 2}),
        12: (FORMULA, 1.2, 1.2),
    }
    for version, salt in enumerate(("v1", "v2")):
        with ResultStore(path, salt=salt) as store:
            for n, (formula, *values) in rows.items():
                store.put(_scen("birth-death", n=n), formula, values[version],
                          family="birth-death")
    return path


def _seed_two_salts(path, *, drift_to=0.75):
    """Bank the same 2-point grid under salts v1 and v2.

    The ``snr_db=4.0`` point drifts from 0.5 to ``drift_to`` between
    versions; the ``snr_db=6.0`` point stays at 0.9.  ``v2`` also
    banks a point ``v1`` never had (``snr_db=8.0``).
    """
    for salt, moved in (("v1", 0.5), ("v2", drift_to)):
        with ResultStore(path, salt=salt) as store:
            store.put(_scen("mimo-1xN", num_rx=2, snr_db=4.0), FORMULA,
                      moved, backend="exact", family="mimo-1xN", seconds=0.01)
            store.put(_scen("mimo-1xN", num_rx=2, snr_db=6.0), FORMULA,
                      0.9, backend="exact", family="mimo-1xN", seconds=0.01)
    with ResultStore(path, salt="v2") as store:
        store.put(_scen("mimo-1xN", num_rx=2, snr_db=8.0), FORMULA,
                  0.95, backend="exact", family="mimo-1xN", seconds=0.01)
    return path


# ----------------------------------------------------------------------
# Drift primitives
# ----------------------------------------------------------------------

class TestDriftPrimitives:
    def test_metric_of_scalars_and_results(self):
        # History trends the number validation checks.
        from repro.smc.hoeffding import ApmcResult
        from repro.smc.sprt import SprtResult

        assert numeric_value(0.25) == 0.25
        assert numeric_value(True) == 1.0
        assert numeric_value("not numeric") is None
        g = Guarantee("P", FORMULA, 0.5, 2, 2, 0.0)
        assert numeric_value(g) == 0.5
        apmc = ApmcResult(estimate=0.375, samples=100, epsilon=0.1, delta=0.05)
        assert numeric_value(apmc) == 0.375
        sprt = SprtResult(
            accept=False, samples=40, theta=0.5, half_width=0.01,
            alpha=0.01, beta=0.01,
        )
        assert numeric_value(sprt) == 0.0
        assert _row(apmc).metric == 0.375

    def test_relative_drift_symmetric_and_scale_free(self):
        assert relative_drift(0.5, 0.75) == pytest.approx(1 / 3)
        assert relative_drift(0.75, 0.5) == pytest.approx(1 / 3)
        assert relative_drift(5e6, 7.5e6) == pytest.approx(1 / 3)
        assert relative_drift(0.0, 0.0) == 0.0
        assert relative_drift(None, 0.5) is None

    def test_relative_drift_non_finite(self):
        assert relative_drift(1.0, math.inf) == math.inf
        assert relative_drift(0.5, math.nan) == math.inf
        assert relative_drift(math.inf, -math.inf) == math.inf
        assert relative_drift(math.nan, math.nan) == 0.0
        assert relative_drift(math.inf, math.inf) == 0.0

    def test_history_point_flagged(self):
        # A row is flagged by what validation finds in its value.
        g = Guarantee("P", FORMULA, 1.2, 2, 2, 0.0)
        row = _row(g)
        assert [w.code for w in row.warnings] == ["range"] and row.metric == 1.2
        assert [w.code for w in _row(math.nan).warnings] == ["nan"]


# ----------------------------------------------------------------------
# Store layer: salts, history, compare
# ----------------------------------------------------------------------

class TestStoreHistory:
    def test_salts_in_first_seen_order(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            assert list(store.stats().salts) == ["v1", "v2"]

    def test_history_ordering_across_salts(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            points = store.history(
                _scen("mimo-1xN", num_rx=2, snr_db=4.0), FORMULA, "exact"
            )
        assert [p.salt for p in points] == ["v1", "v2"]
        assert [p.metric for p in points] == [0.5, 0.75]
        assert all(p.key for p in points)

    def test_history_narrows_by_salt(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            only_v2 = store.history(
                _scen("mimo-1xN", num_rx=2, snr_db=4.0), FORMULA, "exact",
                salt="v2",
            )
        assert [p.salt for p in only_v2] == ["v2"]

    def test_compare_classification(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            diff = store.compare("v1", "v2")
        assert len(diff.drifted) == 1
        assert diff.drifted[0].drift == pytest.approx(1 / 3)
        assert len(diff.unchanged) == 1
        assert len(diff.appeared) == 1  # snr_db=8.0 only exists in v2
        assert diff.vanished == []
        assert diff.has_drift
        assert diff.max_drift == pytest.approx(1 / 3)
        text = diff.describe()
        assert "DRIFT" in text and "NEW" in text

    def test_compare_vanished_is_symmetric(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            diff = store.compare("v2", "v1")
        assert len(diff.vanished) == 1 and diff.appeared == []

    def test_compare_tolerance_silences_drift(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            loose = store.compare("v1", "v2", tolerance=0.5)
        assert not loose.has_drift and len(loose.unchanged) == 2

    def test_compare_family_filter(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db, salt="v1") as store:
            store.put(_scen("birth-death", n=8), FORMULA, 0.1,
                      backend="exact", family="birth-death")
        with ResultStore(db, salt="v2") as store:
            store.put(_scen("birth-death", n=8), FORMULA, 0.9,
                      backend="exact", family="birth-death")
            narrowed = store.compare("v1", "v2", family="mimo-1xN")
        assert all(e.family == "mimo-1xN" for e in narrowed.entries)

    def test_stats_schema_and_per_salt_rows(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            stats = store.stats()
            row = store.query(limit=1)[0]
        assert stats.schema_version == SCHEMA_VERSION
        assert stats.salts == {"v1": 2, "v2": 3}
        text = stats.describe()
        assert f"schema: v{SCHEMA_VERSION}" in text
        assert "rows per salt" in text and "v1=2" in text
        assert row.salt in ("v1", "v2")
        assert row.salt in row.describe() and row.formula in row.describe()


# ----------------------------------------------------------------------
# Schema migration
# ----------------------------------------------------------------------

V1_SCHEMA = """
CREATE TABLE results (
    key      TEXT PRIMARY KEY,
    scenario TEXT NOT NULL,
    family   TEXT,
    formula  TEXT NOT NULL,
    backend  TEXT NOT NULL,
    config   TEXT NOT NULL,
    payload  TEXT NOT NULL,
    seconds  REAL NOT NULL,
    samples  INTEGER NOT NULL DEFAULT 0,
    extra    TEXT NOT NULL DEFAULT '{}',
    created  REAL NOT NULL,
    updated  REAL NOT NULL,
    hits     INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX idx_results_family ON results (family);
CREATE INDEX idx_results_backend ON results (backend);
"""


class TestMigration:
    def test_v1_file_migrates_in_place(self, tmp_path):
        db = tmp_path / "old.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript(V1_SCHEMA)
        now = time.time()
        conn.execute(
            "INSERT INTO results (key, scenario, family, formula, backend,"
            " config, payload, seconds, created, updated)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ("k1", '["legacy"]', "mimo-1xN", FORMULA, "exact", "null",
             json.dumps({"kind": "json", "data": 0.5}), 0.01, now, now),
        )
        conn.commit()
        conn.close()
        with ResultStore(db, salt="new") as store:
            assert list(store.stats().salts) == [""]
            row = store.query(limit=1)[0]
            assert row.salt == "" and row.value == 0.5
            # New writes land under the new salt, beside the legacy row.
            store.put(_scen("mimo-1xN", snr_db=4.0), FORMULA, 0.6,
                      backend="exact", family="mimo-1xN")
            assert list(store.stats().salts) == ["", "new"]
            assert store.stats().salts == {"": 1, "new": 1}


# ----------------------------------------------------------------------
# Trend analytics
# ----------------------------------------------------------------------

class TestTrend:
    def test_scenario_params_zoo_shape(self):
        scen = json.loads(json.dumps(_scen("mimo-1xN", num_rx=2, snr_db=4.0)))
        params = scenario_params(scen)
        # Overrides survive the defaults merge the sweep layer does.
        assert params["num_rx"] == 2 and params["snr_db"] == 4.0
        assert scenario_params({"n": 8}) == {"n": 8}
        assert scenario_params("opaque") == {}

    def test_trend_report_verdicts_and_axes(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            report = trend_report(store, "mimo-1xN")
        assert isinstance(report, TrendReport)
        assert report.verdict == "drift"
        assert report.salts == ["v1", "v2"]
        assert report.max_drift == pytest.approx(1 / 3)
        assert len(report.series) == 3
        drifted = report.drifted
        assert len(drifted) == 1 and drifted[0].params["snr_db"] == 4.0
        (axis,) = report.axis_summaries()  # num_rx is fixed: not an axis
        assert axis.name == "snr_db" and axis.worst_value == 4.0
        assert "drift" in report.describe()

    def test_flagged_beats_drift(self, tmp_path):
        db = tmp_path / "f.sqlite"
        warn = ValidationWarning("range", "out of [0,1]", value=1.2)
        flagged = Guarantee("P", FORMULA, 1.2, 2, 2, 0.0, warnings=(warn,))
        with ResultStore(db, salt="v1") as store:
            store.put(_scen("birth-death", n=8), FORMULA, flagged,
                      backend="exact", family="birth-death")
        with ResultStore(db, salt="v2") as store:
            store.put(_scen("birth-death", n=8), FORMULA, 0.2,
                      backend="exact", family="birth-death")
            report = trend_report(store, "birth-death")
        assert report.verdict == "flagged"
        assert report.series[0].flagged

    def test_non_finite_and_non_numeric_moves(self, tmp_path, capsys):
        db = _seed_verdict_table(tmp_path / "v.sqlite")
        with ResultStore(db) as store:
            report = trend_report(store, "birth-death")
            diff = store.compare("v1", "v2")
        verdicts = {s.params["n"]: s.verdict for s in report.series}
        assert verdicts == {
            8: "stable", 9: "flagged", 10: "drift", 11: "drift", 12: "flagged",
        }
        assert report.verdict == "flagged"
        assert (len(diff.drifted), len(diff.unchanged)) == (3, 2)
        # One drift rule: `history show` and `history diff` agree.
        status = {scenario_params(e.scenario)["n"]: e.status for e in diff.entries}
        for series in report.series:
            moved = series.drift > report.tolerance
            assert moved == (status[series.params["n"]] == "drifted")
        assert cli_main(["history", "diff", "v1", "v2", "--store", str(db)]) == 1
        assert "3 drifted" in capsys.readouterr().out

    def test_trend_reports_one_per_family(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db, salt="v1") as store:
            store.put(_scen("birth-death", n=8), FORMULA, 0.1,
                      backend="exact", family="birth-death")
            reports = trend_reports(store)
        assert [r.family for r in reports] == ["birth-death", "mimo-1xN"]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

class TestRender:
    def test_sparkline_svg(self):
        svg = sparkline([0.5, 0.6, 0.7])
        assert svg.startswith("<svg") and "<polyline" in svg
        assert "circle" in svg  # latest-point marker
        assert sparkline([]).startswith("<svg")  # empty-safe
        assert "<polyline" not in sparkline([0.5])  # single point: dot only
        assert "<polyline" in sparkline([0.5, None, 0.7])  # gaps skipped

    def test_sparkline_skips_non_finite(self):
        svg = sparkline([1.0, math.inf])
        assert "nan" not in svg and "<polyline" not in svg
        assert "<polyline" in sparkline([0.5, math.nan, 0.7])

    def test_dashboard_html(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            html = render_dashboard(
                trend_reports(store),
                stats={"store": {"entries": 5}, "guarantee_hits": 1,
                       "guarantee_misses": 2, "uptime": 3},
                health={"status": "ok", "workers": 2, "workers_alive": 2},
            )
        assert html.startswith("<!DOCTYPE html>")
        assert "mimo-1xN" in html and "<svg" in html
        assert "drift" in html  # verdict badge text, not color alone
        assert "prefers-color-scheme" in html

    def test_dashboard_empty_state(self):
        html = render_dashboard([])
        assert "No banked guarantees" in html


# ----------------------------------------------------------------------
# HTTP surfaces
# ----------------------------------------------------------------------

class TestHttpSurfaces:
    def test_history_json_round_trip(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            front = Frontend(Coordinator(salt="s"), store=store)
            status, body = front.route(
                "GET", "/history?family=mimo-1xN&num_rx=2&snr_db=4.0"
            )
        assert status == 200
        assert body["family"] == "mimo-1xN" and body["count"] == 2
        assert body["salts"] == ["v1", "v2"]
        assert [p["metric"] for p in body["points"]] == [0.5, 0.75]
        json.dumps(body)  # actually JSON-serializable

    def test_history_errors(self, tmp_path):
        front = Frontend(Coordinator(salt="s"))  # no store
        assert front.route("GET", "/history?family=birth-death")[0] == 503
        with ResultStore(tmp_path / "e.sqlite") as store:
            front = Frontend(Coordinator(salt="s"), store=store)
            assert front.route("GET", "/history")[0] == 400
            assert front.route("GET", "/history?family=nope")[0] == 400

    def test_dashboard_route(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            front = Frontend(Coordinator(salt="s"), store=store)
            status, page = front.route("GET", "/dashboard")
            assert status == 200 and isinstance(page, str)
            assert "mimo-1xN" in page
            assert front.route("GET", "/dashboard?tolerance=nope")[0] == 400

    def test_non_finite_values_served_as_strict_json(self, tmp_path):
        def strict(token):
            raise ValueError(f"non-standard JSON token {token}")

        formula = "R=? [ F goal ]"
        with ResultStore(tmp_path / "inf.sqlite") as store:
            store.put(_scen("birth-death", n=8), formula, math.inf,
                      config=check_fingerprint("exact"), family="birth-death")
            front = Frontend(Coordinator(salt="s"), store=store)
            with FrontendServer(front, port=0) as server:
                query = urllib.parse.urlencode(
                    {"family": "birth-death", "n": 8, "formula": formula}
                )
                bodies = {}
                for route in ("guarantee", "history"):
                    url = f"http://{server.address}/{route}?{query}"
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        bodies[route] = json.loads(
                            resp.read(), parse_constant=strict
                        )
            # A route's payload keeps the Python float.
            payload = front.route("GET", f"/guarantee?{query}")[1]
        assert bodies["guarantee"]["value"] == "inf"
        assert bodies["history"]["points"][0]["metric"] == "inf"
        assert payload["value"] == math.inf

    def test_served_content_types(self, tmp_path):
        db = _seed_two_salts(tmp_path / "h.sqlite")
        with ResultStore(db) as store:
            front = Frontend(Coordinator(salt="s"), store=store)
            with FrontendServer(front, port=0) as server:
                base = f"http://{server.address}"
                with urllib.request.urlopen(
                    f"{base}/dashboard", timeout=10
                ) as resp:
                    assert resp.status == 200
                    assert resp.headers["Content-Type"] == "text/html; charset=utf-8"
                    assert b"mimo-1xN" in resp.read()
                url = f"{base}/history?family=mimo-1xN&num_rx=2&snr_db=4.0"
                with urllib.request.urlopen(url, timeout=10) as resp:
                    assert (
                        resp.headers["Content-Type"]
                        == "application/json; charset=utf-8"
                    )
                    assert json.load(resp)["count"] == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_history_list(self, tmp_path, capsys):
        db = str(_seed_two_salts(tmp_path / "h.sqlite"))
        assert cli_main(["history", "list", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out and f"schema v{SCHEMA_VERSION}" in out

    def test_history_show(self, tmp_path, capsys):
        db = str(_seed_two_salts(tmp_path / "h.sqlite"))
        assert cli_main(["history", "show", "mimo-1xN", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "mimo-1xN" in out and "drift" in out
        assert cli_main(["history", "show", "nope", "--store", db]) == 1

    def test_history_diff_exits_nonzero_on_drift(self, tmp_path, capsys):
        db = str(_seed_two_salts(tmp_path / "h.sqlite"))
        assert cli_main(["history", "diff", "v1", "v2", "--store", db]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "33.3" in out
        # Same salt: nothing drifted, exit 0.
        assert cli_main(["history", "diff", "v1", "v1", "--store", db]) == 0
        # Loose tolerance silences the planted drift.
        assert cli_main([
            "history", "diff", "v1", "v2", "--store", db,
            "--tolerance", "0.5",
        ]) == 0

    def test_default_tolerance_matches_store_constant(self, tmp_path, capsys):
        db = str(_seed_two_salts(tmp_path / "h.sqlite", drift_to=0.5 + 1e-9))
        # Sub-tolerance wobble: not drift at the 1e-6 default.
        assert DRIFT_TOLERANCE == 1e-6
        assert cli_main(["history", "diff", "v1", "v2", "--store", db]) == 0
