"""Tests for the persistent guarantee store (repro.store) and the
store/shard integration of the sweep layer.

Covers the ISSUE-6 acceptance surface:

* round-trip fidelity of every stored value type (floats, ApmcResult,
  SprtResult, Guarantee) field by field;
* key sensitivity — a different formula, backend, smc config, seed or
  salt must miss;
* cross-process concurrent writers against one store file;
* invalidation and maintenance APIs;
* cold-vs-warm ``zoo.sweep`` equivalence (bit-identical values);
* duplicate-point deduplication inside one sweep call;
* sharded ``executor="process"`` results bit-identical to the
  serial path on the statistical backends;
* the survey: dedicated ``label`` field, untouched ``point``, one-point
  sweeps whose store stays in the calling process.
"""

import functools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
import pickle

import pytest

from repro import dtmc_from_dict, zoo
from repro.core import Guarantee
from repro.engine import SmcConfig, sweep_check
from repro.engine.sweep import _shard, sweep
from repro.smc.hoeffding import ApmcResult
from repro.smc.sprt import SprtResult
from repro.store import (
    ResultStore,
    StoreError,
    check_fingerprint,
    decode_value,
    encode_value,
    make_key,
)

from helpers import UnpicklableStore

FORMULA = "P=? [ F<=50 goal ]"


def _tiny_chain(point):
    """Module-level build fn (picklable) for engine-level sweep checks."""
    p = float(point["p"])
    return dtmc_from_dict(
        {0: {0: 1.0 - p, 1: p}, 1: {1: 1.0}},
        initial=0,
        labels={"goal": [1]},
    )


_BUILD_CALLS = []


def _counting_chain(point):
    _BUILD_CALLS.append(dict(point))
    return _tiny_chain(point)


def _failing_chain(point):
    if point["p"] > 0.5:
        raise ValueError("unbuildable point")
    return _tiny_chain(point)


# ----------------------------------------------------------------------
# Value encoding: every supported type round-trips field by field
# ----------------------------------------------------------------------

class TestValueRoundTrip:
    @pytest.fixture
    def store(self, tmp_path):
        with ResultStore(tmp_path / "rt.sqlite") as store:
            yield store

    def test_float_bit_exact(self, store):
        value = 0.1 + 0.2  # not representable prettily: repr must survive
        store.put({"x": 1}, FORMULA, value)
        assert store.get({"x": 1}, FORMULA).value == value

    @pytest.mark.parametrize(
        "value", [0, 3, True, None, "text", [1, 2.5, "a"], {"k": [1, 2]}]
    )
    def test_json_scalars_and_containers(self, store, value):
        store.put({"v": repr(value)}, FORMULA, value)
        assert store.get({"v": repr(value)}, FORMULA).value == value

    def test_numpy_scalar_becomes_float(self, store):
        import numpy as np

        store.put({"np": 1}, FORMULA, np.float64(1 / 3))
        got = store.get({"np": 1}, FORMULA).value
        assert isinstance(got, float) and got == 1 / 3

    def test_apmc_result_all_fields(self, store):
        value = ApmcResult(estimate=0.123456789, samples=738, epsilon=0.05, delta=0.1)
        store.put({"a": 1}, FORMULA, value, backend="apmc")
        got = store.get({"a": 1}, FORMULA, backend="apmc").value
        assert isinstance(got, ApmcResult)
        assert asdict(got) == asdict(value)
        assert got == value
        assert got.interval == value.interval

    def test_sprt_result_all_fields(self, store):
        value = SprtResult(
            accept=True, samples=412, theta=0.7,
            half_width=0.01, alpha=0.01, beta=0.02,
        )
        store.put({"s": 1}, FORMULA, value, backend="sprt")
        got = store.get({"s": 1}, FORMULA, backend="sprt").value
        assert isinstance(got, SprtResult)
        assert asdict(got) == asdict(value)

    def test_guarantee_all_fields(self, store):
        value = Guarantee(
            metric="BER",
            property_string="S=? [ flag ]",
            value=1.25e-3,
            model_states=96,
            model_transitions=1234,
            check_seconds=0.75,
            backend="lu",
            cache_hits=3,
            samples=0,
        )
        store.put({"g": 1}, "S=? [ flag ]", value)
        got = store.get({"g": 1}, "S=? [ flag ]").value
        assert isinstance(got, Guarantee)
        assert asdict(got) == asdict(value)
        assert got.is_exact

    def test_samples_provenance_lifted_from_value(self, store):
        value = ApmcResult(estimate=0.5, samples=999, epsilon=0.1, delta=0.1)
        store.put({"p": 1}, FORMULA, value, backend="apmc")
        assert store.get({"p": 1}, FORMULA, backend="apmc").samples == 999

    def test_unencodable_value_raises(self, store):
        with pytest.raises(StoreError, match="cannot store"):
            store.put({"bad": 1}, FORMULA, object())

    def test_unjsonable_scenario_raises(self, store):
        with pytest.raises(StoreError, match="canonicalize"):
            store.put({"obj": object()}, FORMULA, 1.0)

    @pytest.mark.parametrize(
        "payload, problem",
        [
            ("not json", "JSONDecodeError"),
            ("[]", "kind, data"),
            ('{"data": 1}', "kind, data"),
            ('{"kind": "json"}', "kind, data"),
            ('{"kind": "apmc", "data": 5}', "apmc value is not an object"),
            ('{"kind": "sprt", "data": [1, 2]}', "sprt value is not an object"),
            ('{"kind": "apmc", "data": {"estimate": 0.5}}',
             "does not fit ApmcResult"),
            (json.dumps({"kind": "guarantee", "data": {
                **asdict(Guarantee("P", FORMULA, 0.5, 2, 2, 0.0)),
                "warnings": [{"bogus": 1}],
            }}), "does not fit Guarantee"),
            ('{"kind": ["apmc"], "data": {}}', "unknown stored value kind"),
        ],
        ids=[
            "not-json", "list", "no-kind", "no-data", "apmc-number",
            "sprt-list", "apmc-missing-fields", "guarantee-bogus-warning",
            "list-kind",
        ],
    )
    def test_malformed_payload_raises_store_error(self, payload, problem):
        with pytest.raises(StoreError, match=problem):
            decode_value(payload)

    @pytest.mark.parametrize(
        "kind, value, field, bad",
        [
            ("apmc", ApmcResult(0.5, 10, 0.1, 0.1), "estimate", "x"),
            ("apmc", ApmcResult(0.5, 10, 0.1, 0.1), "estimate", True),
            ("apmc", ApmcResult(0.5, 10, 0.1, 0.1), "estimate", None),
            ("apmc", ApmcResult(0.5, 10, 0.1, 0.1), "samples", 1.5),
            ("apmc", ApmcResult(0.5, 10, 0.1, 0.1), "samples", False),
            ("apmc", ApmcResult(0.5, 10, 0.1, 0.1), "delta", [0.1]),
            ("sprt", SprtResult(True, 10, 0.5, 0.1, 0.05, 0.05), "accept", 1),
            ("sprt", SprtResult(True, 10, 0.5, 0.1, 0.05, 0.05), "accept", "yes"),
            ("sprt", SprtResult(True, 10, 0.5, 0.1, 0.05, 0.05), "theta", "0.5"),
            ("guarantee", Guarantee("P", FORMULA, 0.5, 2, 2, 0.0), "value", {}),
            ("guarantee", Guarantee("P", FORMULA, 0.5, 2, 2, 0.0), "metric", 5),
            ("guarantee", Guarantee("P", FORMULA, 0.5, 2, 2, 0.0), "model_states", 2.0),
        ],
    )
    def test_wrong_field_type_raises_store_error(self, kind, value, field, bad):
        data = asdict(value)
        data[field] = bad
        with pytest.raises(StoreError, match=f"{kind} field {field!r} is not"):
            decode_value(json.dumps({"kind": kind, "data": data}))

    @pytest.mark.parametrize(
        "value",
        [
            ApmcResult(estimate=1, samples=10, epsilon=0.1, delta=0.1),
            ApmcResult(estimate=math.nan, samples=10, epsilon=0.1, delta=0.1),
            SprtResult(False, 10, 1, 0.1, 0.05, 0.05),
            Guarantee("P", FORMULA, math.inf, 2, 2, 0.0),
        ],
        ids=["int-for-float", "nan", "int-theta", "inf"],
    )
    def test_numeric_fields_accept_int_and_non_finite(self, value):
        decoded = decode_value(encode_value(value))
        assert type(decoded) is type(value)
        assert repr(decoded) == repr(value)


# ----------------------------------------------------------------------
# Store basics: upsert, key sensitivity, maintenance
# ----------------------------------------------------------------------

class TestResultStore:
    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        assert store.get({"n": 1}, FORMULA) is None

    def test_upsert_overwrites(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.25, seconds=1.0)
        store.put({"n": 1}, FORMULA, 0.75, seconds=2.0)
        row = store.get({"n": 1}, FORMULA)
        assert row.value == 0.75 and row.seconds == 2.0
        assert len(store) == 1

    def test_scenario_key_is_order_insensitive(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"a": 1, "b": 2}, FORMULA, 0.5)
        assert store.get({"b": 2, "a": 1}, FORMULA).value == 0.5

    def test_key_sensitivity(self, tmp_path):
        """Different formula / backend / config / seed must all miss."""
        store = ResultStore(tmp_path / "s.sqlite")
        smc = SmcConfig(epsilon=0.05, delta=0.1, seed=0)
        config = check_fingerprint("apmc", smc=smc)
        store.put({"n": 8}, FORMULA, 0.5, backend="apmc", config=config)
        assert store.get({"n": 8}, FORMULA, "apmc", config).value == 0.5
        # formula
        assert store.get({"n": 8}, "P=? [ F<=51 goal ]", "apmc", config) is None
        # backend
        assert store.get({"n": 8}, FORMULA, "sprt", config) is None
        # scenario
        assert store.get({"n": 9}, FORMULA, "apmc", config) is None
        # epsilon
        other = check_fingerprint("apmc", smc=SmcConfig(epsilon=0.06, delta=0.1, seed=0))
        assert store.get({"n": 8}, FORMULA, "apmc", other) is None
        # seed
        reseeded = check_fingerprint("apmc", smc=SmcConfig(epsilon=0.05, delta=0.1, seed=1))
        assert store.get({"n": 8}, FORMULA, "apmc", reseeded) is None

    def test_solver_fingerprint_distinguishes_methods(self):
        exact_lu = check_fingerprint("exact", solver="lu")
        exact_gs = check_fingerprint("exact", solver="gs")
        assert exact_lu != exact_gs
        assert make_key("s", {}, FORMULA, "exact", exact_lu) != make_key(
            "s", {}, FORMULA, "exact", exact_gs
        )

    def test_salt_invalidates_wholesale(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ResultStore(path, salt="v1").put({"n": 1}, FORMULA, 0.5)
        assert ResultStore(path, salt="v2").get({"n": 1}, FORMULA) is None
        assert ResultStore(path, salt="v1").get({"n": 1}, FORMULA).value == 0.5

    def test_hits_counter_persists(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.5)
        store.get({"n": 1}, FORMULA)
        store.get({"n": 1}, FORMULA)
        assert store.query()[0].hits == 2
        assert store.stats().total_hits == 2

    def test_get_many_parallel_to_queries(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.1)
        store.put({"n": 3}, FORMULA, 0.3)
        rows = store.get_many(
            [
                ({"n": 1}, FORMULA, "exact", None),
                ({"n": 2}, FORMULA, "exact", None),
                ({"n": 3}, FORMULA, "exact", None),
            ]
        )
        assert [r.value if r else None for r in rows] == [0.1, None, 0.3]

    def test_query_filters_and_limit(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.1, family="birth-death")
        store.put({"n": 2}, FORMULA, 0.2, family="birth-death")
        store.put({"m": 1}, "P=? [ F<=10 flag ]", 0.3, family="mimo-1xN")
        assert len(store.query(family="birth-death")) == 2
        assert len(store.query(formula="P=? [ F<=10 flag ]")) == 1
        assert len(store.query(limit=1)) == 1
        assert store.query(family="nope") == []

    def test_family_column_from_extra(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.1, extra={"family": "birth-death"})
        assert store.query(family="birth-death")[0].extra == {
            "family": "birth-death"
        }

    def test_invalidate(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.1, family="a", backend="exact")
        store.put({"n": 2}, FORMULA, 0.2, family="b", backend="apmc")
        store.put({"n": 3}, FORMULA, 0.3, family="b", backend="exact")
        assert store.invalidate(family="b", backend="exact") == 1
        assert len(store) == 2
        assert store.invalidate() == 2
        assert len(store) == 0

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put({"n": 1}, FORMULA, 0.1, family="a", seconds=1.5)
        store.put({"n": 2}, FORMULA, 0.2, family="b", seconds=0.5)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.families == {"a": 1, "b": 1}
        assert stats.backends == {"exact": 2}
        assert stats.compute_seconds == pytest.approx(2.0)
        assert stats.db_bytes > 0
        assert "entries: 2" in stats.describe()

    def test_pickle_reopens_by_location(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", salt="pickled")
        store.put({"n": 1}, FORMULA, 0.5)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.salt == "pickled"
        assert clone.get({"n": 1}, FORMULA).value == 0.5


class TestReadOnlyHits:
    """A hit is one SELECT: it never waits on another connection's write
    lock, and its count reaches the file with the next write."""

    def test_get_answers_while_another_writer_holds_the_lock(self, tmp_path):
        import sqlite3
        import time

        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put({"n": 1}, FORMULA, 0.5)
        opened, fresh = ResultStore(path, timeout=5.0), ResultStore(path, timeout=5.0)
        assert opened.get({"n": 1}, FORMULA).value == 0.5
        writer = sqlite3.connect(path)
        writer.execute("BEGIN IMMEDIATE")
        try:
            for store in (opened, fresh):
                start = time.monotonic()
                assert store.get({"n": 1}, FORMULA).value == 0.5
                assert time.monotonic() - start < 0.1
        finally:
            writer.rollback()
            writer.close()
        opened.close()
        fresh.close()
        assert ResultStore(path).stats().total_hits == 3

    def test_get_answers_while_this_stores_put_waits(self, tmp_path):
        # A put waiting out the busy timeout must not hold up reads.
        import sqlite3
        import threading
        import time

        path = tmp_path / "s.sqlite"
        store = ResultStore(path, timeout=2.0)
        store.put({"n": 1}, FORMULA, 0.5)
        writer = sqlite3.connect(path)
        writer.execute("BEGIN IMMEDIATE")
        blocked = threading.Thread(
            target=lambda: store.put({"n": 2}, FORMULA, 0.25), daemon=True
        )
        try:
            blocked.start()
            time.sleep(0.1)  # the put now waits for the write lock
            start = time.monotonic()
            assert store.get({"n": 1}, FORMULA).value == 0.5
            assert time.monotonic() - start < 0.1
        finally:
            writer.rollback()
            writer.close()
            blocked.join(timeout=5.0)
        assert store.get({"n": 2}, FORMULA).value == 0.25
        store.close()

    def test_buffered_hits_are_written_by_put_and_close(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        store.put({"n": 1}, FORMULA, 0.5)
        assert store.get({"n": 1}, FORMULA).hits == 0
        assert store.get({"n": 1}, FORMULA).hits == 1  # counts buffered ones
        store.put({"n": 2}, FORMULA, 0.25)
        assert ResultStore(path).stats().total_hits == 2
        store.get({"n": 2}, FORMULA)
        store.close()
        assert ResultStore(path).stats().total_hits == 3

    def test_concurrent_hits_are_all_counted(self, tmp_path):
        import sys
        import threading

        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        store.put({"n": 1}, FORMULA, 0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [
                threading.Thread(
                    target=lambda: [store.get({"n": 1}, FORMULA) for _ in range(50)]
                )
                for _ in range(6)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30.0)
            assert not any(reader.is_alive() for reader in readers)
        finally:
            sys.setswitchinterval(interval)
        store.close()
        assert ResultStore(path).stats().total_hits == 300

    def test_hits_counted_while_puts_flush_them(self, tmp_path):
        # Reads buffer hits under the read lock while each put flushes
        # the buffer under the writer lock: no count may be lost.
        import sys
        import threading

        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        store.put({"n": 1}, FORMULA, 0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [store.get({"n": 1}, FORMULA) for _ in range(50)]
                )
                for _ in range(4)
            ] + [
                threading.Thread(
                    target=lambda w=w: [
                        store.put({"w": w, "i": i}, FORMULA, 0.25) for i in range(20)
                    ]
                )
                for w in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        store.close()
        assert ResultStore(path).stats().total_hits == 200

    def test_cli_sweep_twice_counts_the_second_runs_hits(self, tmp_path):
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        path = os.fspath(tmp_path / "cli.sqlite")
        sweep_cmd = [
            sys.executable, "-m", "repro.zoo", "sweep", "birth-death",
            "-g", "n=4,6", "--store", path,
        ]
        for run in range(2):
            done = subprocess.run(
                sweep_cmd, env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
        assert "2 cache hits" in done.stdout
        stats = subprocess.run(
            [sys.executable, "-m", "repro.zoo", "store", "stats", "--store", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert "entries: 2   hits served: 2" in stats.stdout, stats.stdout


# ----------------------------------------------------------------------
# Cross-process concurrent writers
# ----------------------------------------------------------------------

def _hammer_store(args):
    path, worker, count = args
    store = ResultStore(path, salt="concurrent")
    for i in range(count):
        store.put(
            {"worker": worker, "i": i}, FORMULA, float(worker * count + i),
            seconds=0.001, family=f"w{worker}",
        )
    store.close()
    return worker


def _hammer_mixed_load(args):
    """One simulated remote host: interleaved ``put``/``get_many``
    rounds against the shared WAL file (the cross-host write pattern of
    the networked guarantee service, where every worker's results are
    banked into one store by the front-end)."""
    path, host, rounds = args
    store = ResultStore(path, salt="cross-host")
    observed_hits = 0
    for i in range(rounds):
        store.put(
            {"host": host, "i": i}, FORMULA, float(host * 1000 + i),
            seconds=0.001, family=f"host{host}",
        )
        # Every host also upserts the same contended row over and over;
        # last-write-wins there, but the row must never tear or vanish.
        store.put(
            {"shared": "row"}, FORMULA, float(host),
            seconds=0.001, family="shared",
        )
        queries = [
            ({"host": host, "i": j}, FORMULA, "exact", None)
            for j in range(i + 1)
        ] + [({"shared": "row"}, FORMULA, "exact", None)]
        rows = store.get_many(queries)
        # Reads racing other hosts' writes: our *own* rows are always
        # visible and never corrupted.
        for j, row in enumerate(rows[:-1]):
            if row is None or row.value != float(host * 1000 + j):
                store.close()
                return (host, f"lost update at i={i} j={j}: {row!r}")
        if rows[-1] is not None:
            observed_hits += 1
    store.close()
    return (host, observed_hits)


class TestCrossHostWriters:
    """ISSUE-8 satellite: many processes hammering ``put``/``get_many``
    on one WAL store, as networked workers + front-end would."""

    HOSTS = 6
    ROUNDS = 20

    def test_no_lost_updates_under_mixed_hammering(self, tmp_path):
        path = os.fspath(tmp_path / "cross-host.sqlite")
        with ProcessPoolExecutor(max_workers=self.HOSTS) as pool:
            outcomes = list(
                pool.map(
                    _hammer_mixed_load,
                    [(path, h, self.ROUNDS) for h in range(self.HOSTS)],
                )
            )
        failures = [o for o in outcomes if not isinstance(o[1], int)]
        assert not failures, failures
        # Every host saw the contended row on every read round.
        assert all(hits == self.ROUNDS for _, hits in outcomes)
        store = ResultStore(path, salt="cross-host")
        # No lost updates: every per-host row landed, plus the one
        # contended row, and nothing else.
        assert len(store) == self.HOSTS * self.ROUNDS + 1
        queries = [
            ({"host": h, "i": i}, FORMULA, "exact", None)
            for h in range(self.HOSTS)
            for i in range(self.ROUNDS)
        ]
        rows = store.get_many(queries)
        assert all(row is not None for row in rows)
        assert [row.value for row in rows] == [
            float(h * 1000 + i)
            for h in range(self.HOSTS)
            for i in range(self.ROUNDS)
        ]
        # The contended row holds one of the competing writes, intact.
        shared = store.get({"shared": "row"}, FORMULA)
        assert shared is not None
        assert shared.value in {float(h) for h in range(self.HOSTS)}
        store.close()

    def test_stats_stay_consistent_after_hammering(self, tmp_path):
        path = os.fspath(tmp_path / "cross-host-stats.sqlite")
        with ProcessPoolExecutor(max_workers=self.HOSTS) as pool:
            list(
                pool.map(
                    _hammer_mixed_load,
                    [(path, h, self.ROUNDS) for h in range(self.HOSTS)],
                )
            )
        store = ResultStore(path, salt="cross-host")
        stats = store.stats()
        assert stats.entries == self.HOSTS * self.ROUNDS + 1
        assert stats.entries == len(store)
        # Per-family counts add up exactly: one family per host plus
        # the contended row's family.
        assert stats.families.get("shared") == 1
        for h in range(self.HOSTS):
            assert stats.families.get(f"host{h}") == self.ROUNDS
        assert sum(stats.families.values()) == stats.entries
        assert sum(stats.backends.values()) == stats.entries
        store.close()


class TestConcurrentWriters:
    def test_parallel_processes_share_one_file(self, tmp_path):
        path = os.fspath(tmp_path / "concurrent.sqlite")
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=4) as pool:
            done = list(
                pool.map(
                    _hammer_store,
                    [(path, w, per_worker) for w in range(workers)],
                )
            )
        assert sorted(done) == list(range(workers))
        store = ResultStore(path, salt="concurrent")
        assert len(store) == workers * per_worker
        for w in range(workers):
            for i in range(per_worker):
                row = store.get({"worker": w, "i": i}, FORMULA)
                assert row is not None
                assert row.value == float(w * per_worker + i)


def _open_after_barrier(path, barrier):
    barrier.wait(timeout=30)
    store = ResultStore(path, salt="fresh")
    assert len(store) == 0
    store.close()


class TestSimultaneousOpen:
    """Processes opening one fresh file at the same instant all get a
    working store: the first open's journal-mode switch and schema
    creation must not fail the others with "database is locked"."""

    PROCESSES, REPEATS = 8, 20

    def test_processes_open_one_fresh_file_together(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        for repeat in range(self.REPEATS):
            path = os.fspath(tmp_path / f"fresh-{repeat}.sqlite")
            barrier = ctx.Barrier(self.PROCESSES)
            procs = [
                ctx.Process(target=_open_after_barrier, args=(path, barrier))
                for _ in range(self.PROCESSES)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
            assert [proc.exitcode for proc in procs] == [0] * self.PROCESSES, repeat


# ----------------------------------------------------------------------
# sweep_check integration: read-through caching + deduplication
# ----------------------------------------------------------------------

class TestSweepCheckStore:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        points = [{"p": 0.1}, {"p": 0.2}, {"p": 0.3}]
        cold = sweep_check(
            _tiny_chain, points, FORMULA, executor="serial", store=store
        )
        warm = sweep_check(
            _tiny_chain, points, FORMULA, executor="serial", store=store
        )
        assert [r.cached for r in cold] == [False, False, False]
        assert [r.cached for r in warm] == [True, True, True]
        assert [r.value for r in warm] == [r.value for r in cold]
        assert [r.point for r in warm] == points

    def test_partial_overlap_only_computes_new_points(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        sweep_check(
            _tiny_chain, [{"p": 0.1}], FORMULA, executor="serial", store=store
        )
        mixed = sweep_check(
            _tiny_chain, [{"p": 0.1}, {"p": 0.4}], FORMULA,
            executor="serial", store=store,
        )
        assert [r.cached for r in mixed] == [True, False]
        assert len(store) == 2

    def test_statistical_warm_equals_cold_bitwise(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        smc = SmcConfig(epsilon=0.1, delta=0.2, seed=3)
        points = [{"p": 0.2}, {"p": 0.6}]
        cold = sweep_check(
            _tiny_chain, points, FORMULA, backend="apmc", smc=smc,
            executor="serial", store=store,
        )
        warm = sweep_check(
            _tiny_chain, points, FORMULA, backend="apmc", smc=smc,
            executor="serial", store=store,
        )
        for a, b in zip(cold, warm):
            assert b.cached and not a.cached
            assert asdict(a.value) == asdict(b.value)

    def test_different_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        kwargs = dict(backend="apmc", executor="serial", store=store)
        sweep_check(
            _tiny_chain, [{"p": 0.2}], FORMULA,
            smc=SmcConfig(epsilon=0.1, delta=0.2, seed=0), **kwargs,
        )
        reseeded = sweep_check(
            _tiny_chain, [{"p": 0.2}], FORMULA,
            smc=SmcConfig(epsilon=0.1, delta=0.2, seed=1), **kwargs,
        )
        assert reseeded[0].cached is False

    def test_failures_are_not_banked(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        points = [{"p": 0.2}, {"p": 0.9}]
        first = sweep_check(
            _failing_chain, points, FORMULA, executor="serial", store=store
        )
        assert [r.ok for r in first] == [True, False]
        assert len(store) == 1  # only the success
        second = sweep_check(
            _failing_chain, points, FORMULA, executor="serial", store=store
        )
        assert second[0].cached is True
        assert second[1].ok is False and second[1].cached is False

    def test_duplicate_points_solved_once(self):
        _BUILD_CALLS.clear()
        points = [{"p": 0.1}, {"p": 0.2}, {"p": 0.1}, {"p": 0.1}]
        results = sweep_check(
            _counting_chain, points, FORMULA, executor="serial"
        )
        assert len(_BUILD_CALLS) == 2  # distinct points only
        assert [r.point for r in results] == points
        assert results[0].value == results[2].value == results[3].value
        assert results[0].ok

    def test_duplicate_points_share_first_seed_stream(self):
        smc = SmcConfig(epsilon=0.1, delta=0.2, seed=5)
        dup = sweep_check(
            _tiny_chain, [{"p": 0.3}, {"p": 0.3}], FORMULA,
            backend="apmc", smc=smc, executor="serial",
        )
        solo = sweep_check(
            _tiny_chain, [{"p": 0.3}], FORMULA,
            backend="apmc", smc=smc, executor="serial",
        )
        assert dup[0].value == dup[1].value == solo[0].value

    def test_on_error_raise_still_raises(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with pytest.raises(RuntimeError, match="unbuildable"):
            sweep_check(
                _failing_chain, [{"p": 0.9}], FORMULA,
                executor="serial", store=store, on_error="raise",
            )


# ----------------------------------------------------------------------
# zoo.sweep integration: merged-spec keys, cold/warm equivalence
# ----------------------------------------------------------------------

class TestZooSweepStore:
    def test_two_spellings_of_one_formula_share_one_row(self, tmp_path):
        with ResultStore(tmp_path / "canon.sqlite") as store:
            first = zoo.sweep(
                "birth-death", points=[{}], formula="P=?[F<=30 goal]",
                store=store, executor="serial",
            )
            second = zoo.sweep(
                "birth-death", points=[{}], formula="P=? [ F<=30 goal ]",
                store=store, executor="serial",
            )
            assert len(store) == 1
        assert not first[0].cached and second[0].cached
        assert second[0].value == first[0].value

    def test_cold_vs_warm_equivalence_exact(self, tmp_path):
        store = ResultStore(tmp_path / "z.sqlite")
        axes = {"n": [8, 12, 16], "p_up": [0.25, 0.35]}
        cold = zoo.sweep("birth-death", axes, FORMULA, store=store, executor="serial")
        warm = zoo.sweep("birth-death", axes, FORMULA, store=store, executor="serial")
        assert all(not r.cached for r in cold)
        assert all(r.cached for r in warm)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert [r.point for r in warm] == [r.point for r in cold]

    def test_cold_vs_warm_equivalence_apmc(self, tmp_path):
        store = ResultStore(tmp_path / "z.sqlite")
        smc = SmcConfig(epsilon=0.1, delta=0.2, seed=11)
        kwargs = dict(
            axes={"n": [8, 12]}, backend="apmc", smc=smc,
            store=store, executor="serial",
        )
        cold = zoo.sweep("birth-death", **kwargs)
        warm = zoo.sweep("birth-death", **kwargs)
        assert all(r.cached for r in warm)
        assert [asdict(r.value) for r in warm] == [
            asdict(r.value) for r in cold
        ]

    def test_defaults_and_explicit_params_share_a_key(self, tmp_path):
        """points=[{}] and the spelled-out defaults hit the same row."""
        store = ResultStore(tmp_path / "z.sqlite")
        fam = zoo.get_model("birth-death")
        zoo.sweep(
            "birth-death", points=[{}], formula=FORMULA,
            store=store, executor="serial",
        )
        explicit = zoo.sweep(
            "birth-death", points=[dict(fam.defaults)], formula=FORMULA,
            store=store, executor="serial",
        )
        assert explicit[0].cached is True
        assert len(store) == 1

    def test_base_params_are_part_of_the_key(self, tmp_path):
        store = ResultStore(tmp_path / "z.sqlite")
        zoo.sweep(
            "birth-death", points=[{"n": 8}], formula=FORMULA,
            store=store, executor="serial",
        )
        shifted = zoo.sweep(
            "birth-death", points=[{"n": 8}], formula=FORMULA,
            base_params={"p_up": 0.4}, store=store, executor="serial",
        )
        assert shifted[0].cached is False
        assert len(store) == 2

    def test_reduce_flag_is_part_of_the_key(self, tmp_path):
        store = ResultStore(tmp_path / "z.sqlite")
        zoo.sweep(
            "birth-death", points=[{"n": 8}], formula=FORMULA,
            store=store, executor="serial",
        )
        full = zoo.sweep(
            "birth-death", points=[{"n": 8}], formula=FORMULA,
            reduce=False, store=store, executor="serial",
        )
        assert full[0].cached is False

    def test_family_provenance_lands_in_store(self, tmp_path):
        store = ResultStore(tmp_path / "z.sqlite")
        zoo.sweep(
            "birth-death", points=[{"n": 8}], formula=FORMULA,
            store=store, executor="serial",
        )
        rows = store.query(family="birth-death")
        assert len(rows) == 1
        assert rows[0].backend == "exact"
        assert rows[0].seconds > 0


# ----------------------------------------------------------------------
# Sharded process executor: bit-identical merges
# ----------------------------------------------------------------------

def _bank_in_worker(store, point):
    """Process sweep fn: report which connection this worker's copy of
    ``store`` held, then write ``point`` through it."""
    held = id(store._conn)
    store.put({"x": point}, FORMULA, float(point))
    return held


class TestShardedProcessSweep:
    def test_shard_helper_covers_and_orders(self):
        points = list(range(10))
        shards = _shard(points, workers=2, shard_size=3)
        assert [stop - start for start, stop in shards] == [3, 3, 3, 1]
        covered = [i for start, stop in shards for i in range(start, stop)]
        assert covered == list(range(len(points)))

    def test_shard_default_targets_four_per_worker(self):
        shards = _shard(list(range(100)), workers=4, shard_size=None)
        # ceil(100 / (4 workers * 4)) = 7 points per shard, 15 shards.
        assert [stop - start for start, stop in shards[:-1]] == [7] * 14
        covered = [i for start, stop in shards for i in range(start, stop)]
        assert covered == list(range(100))

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ValueError, match="shard_size"):
            sweep(math.sqrt, [1.0, 4.0], executor="process", shard_size=0)

    def test_sharded_sweep_results_ordered(self):
        results = sweep(
            math.sqrt, [float(i) for i in range(9)],
            executor="process", shard_size=2,
        )
        assert [r.value for r in results] == [math.sqrt(i) for i in range(9)]

    @pytest.mark.parametrize("backend", ["apmc", "sprt"])
    def test_process_bit_identical_to_serial(self, backend):
        smc = SmcConfig(epsilon=0.1, delta=0.2, seed=9)
        kwargs = dict(
            axes={"n": [8, 10, 12, 14]},
            backend=backend,
            theta=0.5 if backend == "sprt" else None,
            smc=smc,
        )
        serial = zoo.sweep("birth-death", executor="serial", **kwargs)
        process = zoo.sweep(
            "birth-death", executor="process", shard_size=2, **kwargs
        )
        assert [r.point for r in serial] == [r.point for r in process]
        assert [asdict(r.value) for r in serial] == [
            asdict(r.value) for r in process
        ]

    def test_workers_open_their_own_store_connection(self, tmp_path):
        # The parent's connection is open before the sweep; a worker
        # writing through it would share one sqlite handle across fork.
        store = ResultStore(tmp_path / "w.sqlite")
        store.put({"x": -1}, FORMULA, -1.0)
        parent = id(store._conn)
        results = sweep(
            functools.partial(_bank_in_worker, store), list(range(8)),
            executor="process", shard_size=2, max_workers=2,
        )
        assert all(r.ok for r in results)
        assert parent not in {r.value for r in results}
        assert len(store) == 9
        (verdict,) = store._connection().execute("PRAGMA integrity_check").fetchone()
        assert verdict == "ok"

    def test_process_store_roundtrip(self, tmp_path):
        """Store traffic stays in the parent: process sweeps cache too."""
        store = ResultStore(tmp_path / "p.sqlite")
        axes = {"n": [8, 10, 12]}
        cold = zoo.sweep(
            "birth-death", axes, FORMULA,
            store=store, executor="process", shard_size=2,
        )
        warm = zoo.sweep(
            "birth-death", axes, FORMULA, store=store, executor="serial"
        )
        assert all(r.cached for r in warm)
        assert [r.value for r in warm] == [r.value for r in cold]


# ----------------------------------------------------------------------
# Survey: label field, untouched points, the store stays in the caller
# ----------------------------------------------------------------------

class TestSurvey:
    def test_point_not_clobbered_and_label_set(self):
        results = zoo.survey(executor="serial")
        for name, result in results.items():
            assert result.label == name
            assert result.point == {}  # the defaults dict, untouched

    def test_shared_pass_matches_serial(self):
        serial = zoo.survey(executor="serial")
        process = zoo.survey(executor="process")
        assert set(serial) == set(process)
        for name in serial:
            assert serial[name].value == process[name].value

    def test_survey_store_warm_pass_is_cached(self, tmp_path):
        store = ResultStore(tmp_path / "sv.sqlite")
        cold = zoo.survey(executor="serial", store=store)
        warm = zoo.survey(executor="process", store=store)
        assert all(not r.cached for r in cold.values())
        assert all(r.cached for r in warm.values())
        assert {n: r.value for n, r in warm.items()} == {
            n: r.value for n, r in cold.items()
        }

    def test_process_survey_banks_in_the_callers_store(self, tmp_path):
        # A store that cannot be pickled: it must never reach a worker.
        store = UnpicklableStore(tmp_path / "survey.sqlite")
        cold = zoo.survey(tag="synthetic", executor="process", store=store)
        warm = zoo.survey(tag="synthetic", executor="process", store=store)
        assert len(cold) == 2 and all(r.ok and not r.cached for r in cold.values())
        assert all(r.cached for r in warm.values())
        assert len(store) == 2
        store.close()
