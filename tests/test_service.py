"""Networked guarantee service (`repro.service`) tests — ISSUE 8.

Layer by layer:

* **wire**: framed-message round trips, frame-size guards, and the
  dual codec (store tagged-JSON first, pickle fallback for objects
  JSON would mangle), including full ``SweepResult`` round trips;
* **coordinator**: lease bookkeeping driven synchronously through
  :meth:`Coordinator.handle` with synthetic clocks — registration
  gating (protocol/salt), shard sizing, first-write-wins merges,
  reaping of dead workers and blown budgets, range bisection down to
  a quarantined point, kill directives;
* **fleet integration**: in-process workers (threads whose "die" is a
  stop, so chaos stays inside one interpreter) against a live
  ``CoordinatorServer`` — remote sweeps bit-identical to serial,
  silent worker death mid-sweep recovered by lease reassignment,
  hung leases expired and quarantined;
* **front-end**: route errors, store-backed warm hits that never
  touch the engine or fleet, 202-miss → job poll → banked → warm hit,
  in-flight dedup of identical queries, healthz degradation, and the
  asyncio HTTP server end to end;
* **satellites**: executor validation fails fast with the full list,
  Ctrl-C surfaces as :class:`SweepInterrupted` carrying partials which
  ``sweep_check`` banks to the store, CLI exit codes.

The one test that SIGKILLs a *real* worker subprocess mid-sweep lives
in ``scripts/service_smoke.py`` (run by CI); here worker death is
modelled in-process to keep the suite fast.
"""

import contextlib
import importlib
import json
import os
import socket
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import zoo
from repro.engine import (
    EXECUTORS,
    SmcConfig,
    SweepInterrupted,
    sweep,
    sweep_check,
)
from repro.engine.sweep import SweepResult
from repro.resilience import DeadlinePolicy, RetryPolicy
from repro.resilience.validate import ValidationWarning
from repro.service import (
    Coordinator,
    CoordinatorServer,
    Frontend,
    FrontendServer,
    Worker,
    WireError,
    free_port,
    parse_address,
)
from repro.service import wire
from repro.service.client import kill_worker, remote_sweep, service_stats
from repro.store import ResultStore
from repro.zoo.registry import ZooError

from helpers import UnpicklableStore

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


# ----------------------------------------------------------------------
# Module-level sweep functions (picklable by reference).
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _slow_inc(x):
    time.sleep(0.05)
    return x + 1


def _sleepy(x):
    if x == "hang":
        time.sleep(30.0)
    return x


def _interrupt_at_three(x):
    if x == 3:
        raise KeyboardInterrupt
    return x


# ----------------------------------------------------------------------
# In-process workers: chaos without leaving the interpreter.
# ----------------------------------------------------------------------

class _TameWorker(Worker):
    """A worker whose coordinator-ordered death stops the loop instead
    of ``os._exit`` (which would take the test process with it)."""

    def _die(self):
        self.stop()


class _CrashWorker(_TameWorker):
    """Dies *silently*: no deregistration, heartbeats just stop — the
    in-process footprint of a SIGKILL, recovered by the lease reaper."""

    def _deregister(self):
        pass


@contextlib.contextmanager
def _fleet(classes=(_TameWorker, _TameWorker), heartbeat=0.1, **coordinator_kwargs):
    """A live ``CoordinatorServer`` plus in-process worker threads."""
    server = CoordinatorServer(
        port=0, heartbeat=heartbeat, **coordinator_kwargs
    ).start()
    workers = [
        cls(server.address, poll=0.02, name=f"inproc-{i}")
        for i, cls in enumerate(classes)
    ]
    threads = [
        threading.Thread(target=w.run, daemon=True, name=f"fleet-worker-{i}")
        for i, w in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    deadline = time.time() + 10.0
    while time.time() < deadline:
        if all(w.worker_id is not None for w in workers):
            break
        time.sleep(0.01)
    try:
        yield server, workers
    finally:
        server.stop()  # orders every worker to exit on its next poll
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=2.0)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

class TestWire:
    def test_parse_address(self):
        assert parse_address("localhost:9100") == ("localhost", 9100)
        assert parse_address(":9100") == ("127.0.0.1", 9100)
        assert parse_address(("host", "7")) == ("host", 7)
        with pytest.raises(WireError, match="HOST:PORT"):
            parse_address("no-port-here")
        with pytest.raises(WireError, match="HOST:PORT"):
            parse_address("host:notaport")

    def test_framing_round_trip_and_eof(self):
        a, b = socket.socketpair()
        try:
            wire.send_message(a, {"type": "ping", "n": 1})
            assert wire.recv_message(b) == {"type": "ping", "n": 1}
            a.close()
            with pytest.raises(WireError, match="closed"):
                wire.recv_message(b)
        finally:
            b.close()

    def test_frame_size_guards(self, monkeypatch):
        from repro.service.wire import FrameTooLarge

        monkeypatch.setattr(wire, "MAX_FRAME", 16)
        a, b = socket.socketpair()
        try:
            with pytest.raises(FrameTooLarge, match="MAX_FRAME"):
                wire.send_message(a, {"pad": "x" * 64})
            # A lying length prefix must not trigger a huge allocation.
            a.sendall(wire._HEADER.pack(10_000, 0))
            with pytest.raises(FrameTooLarge, match="MAX_FRAME"):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_corrupt_frame_raises_typed_retryable_error(self):
        from repro.service.wire import FrameCorrupted

        a, b = socket.socketpair()
        try:
            data = bytearray(wire.frame({"type": "ping"}))
            data[-1] ^= 0xFF  # flip one payload byte
            a.sendall(bytes(data))
            with pytest.raises(FrameCorrupted, match="CRC32"):
                wire.recv_message(b)
            # FrameCorrupted is a transport error (retryable), never an
            # application rejection.
            assert issubclass(FrameCorrupted, ConnectionError)
        finally:
            a.close()
            b.close()

    def test_codec_prefers_store_encoding(self):
        for value in (None, True, 3, 0.1, "text", [1.5, 2.5], {"a": 1}):
            envelope = wire.encode(value)
            assert envelope["enc"] == "store", value
            assert wire.decode(envelope) == value

    def test_codec_pickle_fallback_preserves_types(self):
        # JSON would turn these into lists / string-keyed dicts — the
        # codec must fall back to pickle rather than silently mangle.
        for value in ((1, 2), {1: "x"}, [(0, {"n": 8})], {"k": (1, 2)}):
            envelope = wire.encode(value)
            assert envelope["enc"] == "pickle", value
            assert wire.decode(envelope) == value
        assert wire.decode(wire.encode(_square))(4) == 16
        with pytest.raises(WireError, match="unknown wire encoding"):
            wire.decode({"enc": "carrier-pigeon", "data": ""})

    def test_sweep_result_round_trip(self):
        warning = ValidationWarning(
            code="range", message="probability 1.2 above 1",
            value=1.2, clipped=1.0,
        )
        original = SweepResult(
            point=(3, {"snr_db": 8.0}),
            value=0.125,
            seconds=0.5,
            error=None,
            label="mimo-1xN",
            attempts=2,
            warnings=(warning,),
        )
        decoded = wire.decode_result(wire.encode_result(original))
        assert decoded == original
        failed = SweepResult(
            point={"n": 8}, value=None, seconds=0.1,
            error="ValueError: boom", traceback="  ...\nValueError: boom",
        )
        assert wire.decode_result(wire.encode_result(failed)) == failed


# ----------------------------------------------------------------------
# Coordinator bookkeeping (no sockets: drive handle() synchronously)
# ----------------------------------------------------------------------

def _register(coord, name="w"):
    reply = coord.handle(
        {
            "type": "register",
            "protocol": wire.PROTOCOL_VERSION,
            "salt": coord.salt,
            "name": name,
            "pid": os.getpid(),
            "host": "testhost",
        }
    )
    assert reply["type"] == "welcome"
    assert reply["epoch"] == coord.epoch
    return reply["worker"]


def _handle(coord, message):
    """Drive one worker-side message with the current epoch stamped,
    as a live (post-welcome) worker would send it."""
    return coord.handle({"epoch": coord.epoch, **message})


class TestCoordinator:
    def test_registration_gating(self):
        coord = Coordinator(salt="s1")
        bad_protocol = coord.handle(
            {"type": "register", "protocol": 999, "salt": "s1"}
        )
        assert bad_protocol["type"] == "error"
        assert "protocol mismatch" in bad_protocol["error"]
        bad_salt = coord.handle(
            {
                "type": "register",
                "protocol": wire.PROTOCOL_VERSION,
                "salt": "other",
            }
        )
        assert bad_salt["type"] == "error"
        assert "cache-compatible" in bad_salt["error"]
        assert coord.handle({"type": "???"})["type"] == "error"

    def test_lease_result_merge_first_write_wins(self):
        coord = Coordinator(salt="s")
        worker = _register(coord)
        job = coord.submit(
            {"enc": "x"}, [{"p": i} for i in range(4)], shard_size=2
        )
        shard = _handle(coord, {"type": "lease", "worker": worker})
        assert shard["type"] == "shard"
        assert (shard["start"], shard["stop"]) == (0, 2)
        assert shard["points"] == [{"p": 0}, {"p": 1}]
        post = {
            "type": "result", "worker": worker, "job": job,
            "lease": shard["lease"], "start": 0, "stop": 2,
            "results": ["first-0", "first-1"],
        }
        assert _handle(coord, post)["type"] == "ok"
        # A reassigned twin completing late must not clobber the merge.
        _handle(coord, {**post, "results": ["second-0", "second-1"]})
        snapshot = coord.collect(job)
        assert snapshot["results"]["0"] == "first-0"
        assert snapshot["status"] == "queued"  # second shard untouched
        shard2 = _handle(coord, {"type": "lease", "worker": worker})
        _handle(
            coord,
            {
                "type": "result", "worker": worker, "job": job,
                "lease": shard2["lease"], "start": 2, "stop": 4,
                "results": ["a", "b"],
            }
        )
        done = coord.collect(job)
        assert done["done"] and done["status"] == "done"
        assert done["completed"] == 4
        info = coord.workers[worker]
        assert info.shards_done == 3 and info.points_done == 6

    def test_shard_sizing(self):
        coord = Coordinator(salt="s")
        _register(coord)
        _register(coord)
        # ~4 shards per live worker by default.
        assert len(coord._shards(64, None)) == 8
        assert coord._shards(5, 2) == [(0, 2), (2, 4), (4, 5)]
        with pytest.raises(WireError, match="shard_size"):
            coord._shards(4, 0)

    def test_reap_bisects_and_quarantines(self):
        coord = Coordinator(salt="s", heartbeat=0.1, quarantine_strikes=2)
        worker = _register(coord)
        job_id = coord.submit({"enc": "x"}, [{"p": i} for i in range(4)], shard_size=4)
        lease = _handle(coord, {"type": "lease", "worker": worker})
        assert (lease["start"], lease["stop"]) == (0, 4)
        # Silence past the liveness cutoff: the range is bisected.
        assert coord.reap(now=time.time() + 60.0) == 1
        job = coord.jobs[job_id]
        assert job.pending == [(0, 2), (2, 4)]
        assert all(job.strikes[i] == 1 for i in range(4))
        # Walk a fresh worker through repeated deaths down to one point.
        for _ in range(8):
            if job.done:
                break
            w = _register(coord)
            granted = _handle(coord, {"type": "lease", "worker": w})
            if granted["type"] != "shard":
                break
            coord.reap(now=time.time() + 60.0)
        assert job.done
        assert set(job.quarantined) == {0, 1, 2, 3}
        record = job.quarantined[0]
        assert "WorkerLost" in record["error"]
        assert record["attempts"] >= 2

    def test_reap_expires_blown_budgets_of_live_workers(self):
        # liveness is huge: only the lease deadline can expire it.
        coord = Coordinator(salt="s", liveness=10_000.0, lease_grace=0.1)
        worker = _register(coord)
        job_id = coord.submit(
            {"enc": "x"}, [{"p": 0}, {"p": 1}], shard_size=2,
            point_budget=0.2,
        )
        _handle(coord, {"type": "lease", "worker": worker})
        assert coord.reap(now=time.time() + 0.1) == 0  # within budget
        assert coord.reap(now=time.time() + 60.0) == 1
        job = coord.jobs[job_id]
        assert job.pending == [(0, 1), (1, 2)]
        # Quarantine reason names the deadline, not a worker death.
        for _ in range(8):
            if job.done:
                break
            granted = _handle(coord, {"type": "lease", "worker": worker})
            if granted["type"] != "shard":
                break
            coord.reap(now=time.time() + 60.0)
        assert job.done
        assert all(
            q["error"].startswith("DeadlineExceeded")
            for q in job.quarantined.values()
        )

    def test_cancel_keeps_partials(self):
        coord = Coordinator(salt="s")
        worker = _register(coord)
        job = coord.submit({"enc": "x"}, [{"p": i} for i in range(4)], shard_size=1)
        shard = _handle(coord, {"type": "lease", "worker": worker})
        _handle(
            coord,
            {
                "type": "result", "worker": worker, "job": job,
                "lease": shard["lease"], "start": shard["start"],
                "stop": shard["stop"], "results": ["kept"],
            }
        )
        snapshot = coord.cancel(job)
        assert snapshot["status"] == "cancelled"
        assert snapshot["results"] == {"0": "kept"}
        assert _handle(coord, {"type": "lease", "worker": worker})["type"] == "idle"

    def test_kill_directive_and_unknown_worker(self):
        coord = Coordinator(salt="s")
        worker = _register(coord)
        assert coord.handle({"type": "kill", "worker": "any"}) == {
            "type": "ok", "worker": worker,
        }
        order = _handle(coord, {"type": "heartbeat", "worker": worker})
        assert order["type"] == "die"
        # No live worker left to kill now.
        assert coord.handle({"type": "kill", "worker": "any"})["type"] == "error"
        # A worker the coordinator has never seen is told to re-register
        # (it may simply predate a coordinator restart).
        lost = _handle(coord, {"type": "heartbeat", "worker": "w999"})
        assert lost["type"] == "reregister"
        assert "re-register" in lost["reason"]
        assert lost["epoch"] == coord.epoch

    def test_stats_shape(self):
        coord = Coordinator(salt="s")
        _register(coord, name="alpha")
        coord.submit({"enc": "x"}, [{"p": 0}])
        stats = coord.stats()
        assert stats["salt"] == "s"
        assert stats["workers_alive"] == 1
        assert stats["workers"][0]["name"] == "alpha"
        assert stats["jobs"] == {"queued": 1}
        assert stats["jobs_total"] == 1


# ----------------------------------------------------------------------
# Fleet integration: in-process workers against a live server
# ----------------------------------------------------------------------

class TestFleet:
    def test_remote_sweep_matches_serial(self):
        points = list(range(10))
        serial = sweep(_square, points, executor="serial")
        with _fleet() as (server, _workers):
            remote = sweep(
                _square, points,
                executor="remote", remote=server.address, shard_size=2,
            )
            stats = service_stats(server.address)
        assert [r.value for r in remote] == [r.value for r in serial]
        assert [r.point for r in remote] == points
        assert all(r.ok for r in remote)
        assert sum(w["points_done"] for w in stats["workers"]) == len(points)

    def test_remote_zoo_sweep_bit_identical(self):
        smc = SmcConfig(epsilon=0.2, delta=0.2, seed=5)
        kwargs = dict(
            axes={"n": [6, 8, 10, 12]}, formula="P=? [ F<=50 goal ]",
            backend="apmc", smc=smc,
        )
        serial = zoo.sweep("birth-death", executor="serial", **kwargs)
        with _fleet() as (server, _workers):
            remote = zoo.sweep(
                "birth-death", executor="remote", remote=server.address,
                shard_size=1, **kwargs,
            )
        assert [r.point for r in remote] == [r.point for r in serial]
        # Bit-identical, not approximately equal: same seeds, same
        # sample counts, same estimates, regardless of which worker ran
        # which lease.
        assert [(r.value.estimate, r.value.samples) for r in remote] == [
            (r.value.estimate, r.value.samples) for r in serial
        ]

    def test_worker_dies_mid_sweep_lease_reassigned(self):
        points = list(range(12))
        with _fleet(classes=(_CrashWorker, _TameWorker)) as (server, workers):
            victim = workers[0]
            killer = threading.Timer(
                0.15, kill_worker, args=(server.address, victim.worker_id)
            )
            killer.start()
            try:
                remote = sweep(
                    _slow_inc, points,
                    executor="remote", remote=server.address, shard_size=1,
                )
            finally:
                killer.cancel()
            deadline = time.time() + 5.0
            while time.time() < deadline and not victim._stop.is_set():
                time.sleep(0.02)  # die order lands on the victim's next poll
            assert victim._stop.is_set()  # the chaos kill actually landed
        assert [r.value for r in remote] == [x + 1 for x in points]
        assert all(r.ok for r in remote)

    def test_hung_lease_expires_and_quarantines(self):
        points = [0, 1, 2, 3, "hang"]
        with _fleet(lease_grace=0.1) as (server, _workers):
            remote = remote_sweep(
                _sleepy, points,
                connect=server.address, shard_size=1,
                deadline=DeadlinePolicy(timeout=0.3, grace=0.1),
            )
        assert [r.value for r in remote[:4]] == [0, 1, 2, 3]
        hung = remote[4]
        assert not hung.ok
        assert hung.error.startswith("DeadlineExceeded")
        assert hung.timed_out
        assert hung.attempts >= 2  # one strike per expired lease

    def test_lease_grace_counted_once_per_lease(self):
        # The lease budget is timeout x attempts x points + lease_grace:
        # the policy's own grace is the process pool's, not the fleet's.
        with _fleet(lease_grace=0.1, quarantine_strikes=1) as (server, _workers):
            start = time.monotonic()
            remote = remote_sweep(
                _sleepy, [0, "hang"],
                connect=server.address, shard_size=1,
                deadline=DeadlinePolicy(timeout=0.3, grace=5.0),
            )
            elapsed = time.monotonic() - start
        assert remote[0].value == 0
        assert remote[1].timed_out
        assert elapsed < 3.0

    def test_remote_survey_banks_in_the_callers_store(self, tmp_path):
        # Each family is one fleet job; the store never leaves this process.
        store = UnpicklableStore(tmp_path / "survey.sqlite")
        with _fleet() as (server, _workers):
            cold = zoo.survey(
                tag="synthetic", executor="remote", remote=server.address,
                store=store,
            )
            warm = zoo.survey(
                tag="synthetic", executor="remote", remote=server.address,
                store=store,
            )
        assert len(cold) == 2 and all(r.ok and not r.cached for r in cold.values())
        assert all(r.cached for r in warm.values())
        assert {n: r.value for n, r in warm.items()} == {
            n: r.value for n, r in cold.items()
        }
        assert len(store) == 2
        store.close()

    def test_retry_policy_applies_in_worker(self):
        injected = _FlakyOnce()
        with _fleet(classes=(_TameWorker,)) as (server, _workers):
            results = remote_sweep(
                injected, [1, 2],
                connect=server.address,
                retry=RetryPolicy(max_attempts=3, backoff=0.01),
            )
        assert [r.value for r in results] == [1, 2]
        assert results[0].attempts >= 1

    def test_remote_sweep_timeout_cancels(self):
        with _fleet(classes=()) as (server, _workers):  # no workers at all
            with pytest.raises(TimeoutError, match="incomplete"):
                remote_sweep(
                    _square, [1, 2, 3],
                    connect=server.address, timeout=0.3,
                )
            stats = service_stats(server.address)
        assert stats["jobs"].get("cancelled") == 1

    def test_remote_sweep_returns_when_cancelled_elsewhere(self):
        with _fleet(classes=()) as (server, _workers):  # no workers at all
            def cancel_soon():
                time.sleep(0.3)
                (job,) = list(server.coordinator.jobs)
                wire.request(server.address, {"type": "cancel", "job": job})

            canceller = threading.Thread(target=cancel_soon)
            canceller.start()
            start = time.monotonic()
            results = remote_sweep(
                _square, [1, 2], connect=server.address, timeout=3.0
            )
            elapsed = time.monotonic() - start
            canceller.join()
        assert elapsed < 1.0
        assert [r.ok for r in results] == [False, False]
        assert all(r.error.startswith("Cancelled:") for r in results)
        assert [r.point for r in results] == [1, 2]


class TestPush:
    """Idle workers and waiting clients park at the coordinator, so work
    and progress arrive as they happen, not one heartbeat or poll
    later.  A heartbeat of 5 s makes any leftover polling obvious."""

    @staticmethod
    def _idle():
        time.sleep(0.2)  # the registered worker's lease request finds no work

    def test_push_latency_does_not_depend_on_the_heartbeat(self):
        with _fleet(classes=(_TameWorker,), heartbeat=5.0) as (server, _workers):
            self._idle()
            for points in ([1, 2], [3, 4]):
                start = time.monotonic()
                results = remote_sweep(_square, points, connect=server.address)
                assert time.monotonic() - start < 1.0
                assert [r.value for r in results] == [p * p for p in points]

    def test_kill_reaches_a_parked_worker(self):
        with _fleet(classes=(_TameWorker,), heartbeat=5.0) as (server, workers):
            self._idle()
            start = time.monotonic()
            kill_worker(server.address)
            while not workers[0]._stop.is_set() and time.monotonic() - start < 5.0:
                time.sleep(0.01)
            assert workers[0]._stop.is_set()
            assert time.monotonic() - start < 1.0

    def test_stop_returns_with_a_parked_worker(self):
        server = CoordinatorServer(port=0, heartbeat=5.0).start()
        worker = _TameWorker(server.address, poll=0.02, name="parked")
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            self._idle()
        finally:
            start = time.monotonic()
            server.stop()
            stopped = time.monotonic() - start
            worker.stop()
            thread.join(timeout=5.0)
        assert stopped < 1.0
        assert not thread.is_alive()

    def test_timeout_fires_on_time_with_no_workers(self):
        with _fleet(classes=(), heartbeat=5.0) as (server, _workers):
            start = time.monotonic()
            with pytest.raises(TimeoutError, match="incomplete"):
                remote_sweep(_square, [1, 2], connect=server.address, timeout=0.3)
            assert time.monotonic() - start < 1.0

    def test_lease_and_collect_without_wait_answer_at_once(self):
        coord = Coordinator(salt="s", heartbeat=5.0)
        worker = _register(coord)
        start = time.monotonic()
        idle = _handle(coord, {"type": "lease", "worker": worker})
        assert idle == {"type": "idle", "poll": 5.0}
        job = coord.submit({"enc": "x"}, [{"p": 0}])
        snapshot = coord.handle({"type": "collect", "job": job})
        assert snapshot["completed"] == 0 and not snapshot["done"]
        assert time.monotonic() - start < 0.5

    def test_parked_lease_is_woken_by_submit(self):
        coord = Coordinator(salt="s", heartbeat=5.0)
        worker = _register(coord)
        box = {}
        parked = threading.Thread(
            target=lambda: box.update(
                reply=_handle(coord, {"type": "lease", "worker": worker, "wait": 5.0})
            )
        )
        parked.start()
        time.sleep(0.05)
        start = time.monotonic()
        coord.submit({"enc": "x"}, [{"p": 0}])
        parked.join(timeout=5.0)
        assert not parked.is_alive()
        assert time.monotonic() - start < 1.0
        assert box["reply"]["type"] == "shard"

    def test_parked_lease_ends_idle_with_no_poll(self):
        coord = Coordinator(salt="s", heartbeat=0.05)
        worker = _register(coord)
        start = time.monotonic()
        reply = _handle(coord, {"type": "lease", "worker": worker, "wait": 5.0})
        # Parked for min(wait, heartbeat), then asked back at once.
        assert reply == {"type": "idle", "poll": 0}
        assert 0.04 <= time.monotonic() - start < 1.0

    def test_collect_waits_for_progress_since_the_last_count(self):
        coord = Coordinator(salt="s", heartbeat=5.0)
        worker = _register(coord)
        job = coord.submit({"enc": "x"}, [{"p": 0}, {"p": 1}], shard_size=1)
        shard = _handle(coord, {"type": "lease", "worker": worker})
        timer = threading.Timer(
            0.1,
            lambda: _handle(
                coord,
                {"type": "result", "worker": worker, "job": job,
                 "lease": shard["lease"], "start": shard["start"],
                 "results": ["r0"]},
            ),
        )
        timer.start()
        start = time.monotonic()
        snapshot = coord.handle(
            {"type": "collect", "job": job, "wait": 5.0, "since": 0}
        )
        timer.join()
        assert snapshot["completed"] == 1 and not snapshot["done"]
        assert time.monotonic() - start < 1.0
        # Nothing more lands: the wait runs out and the snapshot is
        # returned unchanged.
        start = time.monotonic()
        snapshot = coord.handle(
            {"type": "collect", "job": job, "wait": 0.1, "since": 1}
        )
        assert snapshot["completed"] == 1
        assert 0.09 <= time.monotonic() - start < 1.0

    def test_no_wakeup_is_lost_under_contention(self):
        """More parked workers than cores, a tiny switch interval, many
        small jobs: a lost wakeup would cost a 5 s heartbeat."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _fleet(classes=(_TameWorker,) * 4, heartbeat=5.0) as (server, _):
                self._idle()
                start = time.monotonic()
                for batch in range(5):
                    points = list(range(batch * 8, batch * 8 + 8))
                    results = remote_sweep(
                        _square, points, connect=server.address, shard_size=1
                    )
                    assert [r.value for r in results] == [p * p for p in points]
                assert time.monotonic() - start < 4.0
        finally:
            sys.setswitchinterval(interval)

    def test_worker_gone_while_parked_gets_no_shard(self):
        server = CoordinatorServer(port=0, heartbeat=5.0).start()
        try:
            coord = server.coordinator
            worker = _register(coord)
            sock = socket.create_connection((server.host, server.port))
            wire.send_message(
                sock,
                {"type": "lease", "worker": worker, "epoch": coord.epoch,
                 "wait": 5.0},
            )
            time.sleep(0.1)
            sock.close()  # the parked worker dies
            time.sleep(0.1)
            job = coord.submit({"enc": "x"}, [{"p": 0}])
            time.sleep(0.1)
            assert coord.jobs[job].leases == {}
            assert coord.jobs[job].pending == [(0, 1)]
        finally:
            server.stop(shutdown_workers=False)

    def test_malformed_wait_is_an_error_reply(self):
        coord = Coordinator(salt="s")
        worker = _register(coord)
        reply = _handle(coord, {"type": "lease", "worker": worker, "wait": "soon"})
        assert reply["type"] == "error" and "wait" in reply["error"]


class _FlakyOnce:
    """Fails the first point attempt per value; picklable state-free
    retry probe (the failure marker travels in the exception type)."""

    _seen = set()

    def __call__(self, x):
        marker = (os.getpid(), x)
        if marker not in self._seen:
            self._seen.add(marker)
            raise OSError(f"transient glitch on {x}")
        return x


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------

def _comparable_job(fn):
    """A sweep function's keywords in a form ``==`` can compare."""
    keywords = dict(fn.keywords)
    for name in ("build", "key"):
        part = keywords.pop(name)
        keywords[name] = (part.func, part.args, part.keywords)
    return fn.func, keywords


class TestPointJob:
    """The job one check ships to the fleet, decoded as a worker sees it."""

    @staticmethod
    def _sweep_job(monkeypatch, points, **kwargs):
        """The decoded job an ``executor="remote"`` zoo sweep submits,
        and its point envelopes."""
        import repro.service.client as client

        submitted = []

        def fake_remote_sweep(fn, points, **_ignored):
            submitted.append((wire.encode(fn), [wire.encode(p) for p in points]))
            return [SweepResult(point=p, value=0.5, seconds=0.0) for p in points]

        monkeypatch.setattr(client, "remote_sweep", fake_remote_sweep)
        zoo.sweep(
            "birth-death", points=points, executor="remote",
            remote="127.0.0.1:9", **kwargs,
        )
        ((envelope, encoded),) = submitted
        return wire.decode(envelope), encoded

    def test_exact_sweep_ships_no_seed_streams(self, monkeypatch):
        job, encoded = self._sweep_job(monkeypatch, [{"n": n} for n in (4, 6, 8)])
        assert "seeds" not in job.keywords
        # The parsed tree travels with the job: no point re-parses it.
        assert str(job.keywords["formula"]) == "P=? [ F<=100 goal ]"
        assert not isinstance(job.keywords["formula"], str)
        # Bare parameter dicts cross the wire as the store's JSON.
        assert [envelope["enc"] for envelope in encoded] == ["store"] * 3

    def test_statistical_sweep_ships_its_store_key(self, monkeypatch):
        points = [{"n": n} for n in (4, 6)]
        smc = SmcConfig(epsilon=0.1, delta=0.1, seed=3)
        job, encoded = self._sweep_job(
            monkeypatch, points, backend="apmc", smc=smc
        )
        # No per-point seed list: each point draws from its store key.
        assert "seeds" not in job.keywords
        # The package's `sweep` function shadows the submodule.
        zoo_sweep = importlib.import_module("repro.zoo.sweep")
        plan = zoo_sweep.plan_sweep("birth-death", points, backend="apmc", smc=smc)
        assert [job.keywords["key"](point) for point in points] == [
            query[0] for query in plan.queries.values()
        ]
        assert [envelope["enc"] for envelope in encoded] == ["store"] * 2

    @pytest.mark.parametrize(
        "query, kwargs",
        [
            ("", {}),
            ("&formula=P%3D%3F%20%5B%20G%3C%3D20%20!goal%20%5D",
             {"formula": "P=? [ G<=20 !goal ]"}),
            ("&backend=apmc&epsilon=0.1&delta=0.1",
             {"backend": "apmc", "smc": SmcConfig(epsilon=0.1, delta=0.1)}),
        ],
    )
    def test_guarantee_miss_ships_the_sweep_job(self, monkeypatch, query, kwargs):
        coord = Coordinator(salt="s")
        status, body = Frontend(coord).route(
            "GET", f"/guarantee?family=birth-death&n=8{query}"
        )
        assert status == 202
        job = coord.jobs[body["job"]]
        swept, encoded = self._sweep_job(monkeypatch, [{"n": 8}], **kwargs)
        assert _comparable_job(wire.decode(job.fn)) == _comparable_job(swept)
        assert job.points == encoded


#: One guarantee per backend: its /guarantee query and zoo.sweep kwargs.
_SHARED_ROWS = {
    "exact": ("", {}),
    "apmc": (
        "&backend=apmc&epsilon=0.1&delta=0.1&seed=3",
        {"backend": "apmc", "smc": SmcConfig(epsilon=0.1, delta=0.1, seed=3)},
    ),
    "sprt": (
        "&backend=sprt&theta=0.5&seed=3",
        {"backend": "sprt", "theta": 0.5, "smc": SmcConfig(seed=3)},
    ),
}


class TestSharedRows:
    """A guarantee has one store row, whichever side banks it."""

    @staticmethod
    def _identity(row):
        return row.scenario, row.formula, row.backend, row.config, row.family

    @pytest.mark.parametrize("backend", sorted(_SHARED_ROWS))
    def test_rows_are_shared_both_ways(self, tmp_path, backend):
        from repro.service.frontend import _public_value

        query, kwargs = _SHARED_ROWS[backend]
        path = f"/guarantee?family=birth-death&n=8{query}"
        # A row banked by zoo.sweep is a /guarantee hit ...
        with ResultStore(tmp_path / "swept.sqlite") as store:
            (swept,) = zoo.sweep(
                "birth-death", points=[{"n": 8}], store=store, **kwargs
            )
            front = Frontend(Coordinator(salt="s"), store=store)
            status, hit = front.route("GET", path)
            assert status == 200 and hit["cached"]
            assert hit["value"] == _public_value(swept.value)
            (swept_row,) = store.query()
        # ... and a row banked by a /guarantee miss is a zoo.sweep hit.
        with ResultStore(tmp_path / "served.sqlite") as store:
            with _fleet(classes=(_TameWorker,)) as (server, _workers):
                front = Frontend(server.coordinator, store=store)
                status, miss = front.route("GET", path)
                assert status == 202
                deadline = time.time() + 30.0
                while time.time() < deadline and len(store) == 0:
                    time.sleep(0.05)  # banked on the job-done thread
            (served,) = zoo.sweep(
                "birth-death", points=[{"n": 8}], store=store, **kwargs
            )
            assert served.cached and served.value == swept.value
            (served_row,) = store.query()
        assert self._identity(served_row) == self._identity(swept_row)
        # A row another grid banked at index 2 serves what a cold
        # one-point sweep of the same query computes.
        with ResultStore(tmp_path / "grid.sqlite") as store:
            zoo.sweep(
                "mimo-1xN", axes={"snr_db": [4.0, 5.0, 6.0]},
                store=store, **kwargs,
            )
            front = Frontend(Coordinator(salt="s"), store=store)
            status, hit = front.route(
                "GET", f"/guarantee?family=mimo-1xN&snr_db=6.0{query}"
            )
        (cold,) = zoo.sweep("mimo-1xN", points=[{"snr_db": 6.0}], **kwargs)
        assert status == 200 and hit["cached"]
        assert hit["value"] == _public_value(cold.value)


class TestFrontend:
    def test_route_errors(self):
        front = Frontend(Coordinator(salt="s"))
        assert front.route("POST", "/guarantee")[0] == 400
        assert front.route("GET", "/nope")[0] == 404
        assert front.route("GET", "/jobs/job-999")[0] == 404
        status, body = front.route("GET", "/guarantee")
        assert status == 400 and "family" in body["error"]
        status, body = front.route("GET", "/guarantee?family=not-a-family")
        assert status == 400
        status, body = front.route(
            "GET", "/guarantee?family=birth-death&backend=psychic"
        )
        assert status == 400 and "psychic" in body["error"]
        status, body = front.route(
            "GET", "/guarantee?family=birth-death&backend=sprt"
        )
        assert status == 400 and "theta" in body["error"]

    @pytest.mark.parametrize(
        "query, needle",
        [
            ("epsilon=0", "epsilon"),
            ("delta=1.5", "delta"),
            ("seed=x", "seed"),
            ("backend=sprt&theta=abc", "abc"),
            ("backend=sprt&theta=1.5", "theta"),
            ("formula=garbage(((", "formula"),
            ("formula=" + "!(" * 200 + "goal" + ")" * 200, "nests deeper"),
            ("bogus=1", "valid: n, p_down, p_up"),
            ("n=abc", "'n'"),
            ("p_up=high", "'p_up'"),
        ],
    )
    def test_bad_guarantee_query_answers_400_without_a_job(self, query, needle):
        coord = Coordinator(salt="s")
        front = Frontend(coord)
        status, body = front.route(
            "GET", f"/guarantee?family=birth-death&n=8&{query}"
        )
        assert status == 400 and needle in body["error"]
        assert coord.jobs == {}
        assert front.misses == 0

    def test_bad_guarantee_query_answers_400_over_http(self):
        coord = Coordinator(salt="s")
        with FrontendServer(Frontend(coord), port=0) as server:
            base = f"http://{server.address}/guarantee?family=birth-death"
            for query in ("epsilon=0", "formula=garbage(((", "bogus=1"):
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(f"{base}&{query}", timeout=10)
                assert exc.value.code == 400
                assert "error" in json.load(exc.value)
        assert coord.jobs == {}

    @pytest.mark.parametrize(
        "query, needle",
        [
            ("bogus=1", "unknown parameter"),
            ("n=abc", "'n'"),
            ("formula=garbage(((", "bad formula"),
        ],
    )
    def test_bad_family_parameter_on_history_answers_400(self, query, needle):
        front = Frontend(Coordinator(salt="s"), store=object())  # 400 first
        status, body = front.route("GET", f"/history?family=birth-death&{query}")
        assert status == 400 and needle in body["error"]

    def test_route_that_raises_answers_500_over_http(self):
        front = Frontend(Coordinator(salt="s"))

        def broken(*_args):
            raise RuntimeError("store went away")

        front.healthz = broken  # a thread-pool route
        front.store = types.SimpleNamespace(get_many=broken)  # the loop-served read
        with FrontendServer(front, port=0) as server:
            for path in ("/healthz", "/guarantee?family=birth-death"):
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(
                        f"http://{server.address}{path}", timeout=10
                    )
                assert exc.value.code == 500
                assert "store went away" in json.load(exc.value)["error"]

    def test_store_hit_resolves_without_a_thread(self, tmp_path):
        with ResultStore(tmp_path / "loop.sqlite") as store:
            zoo.sweep("birth-death", points=[{"n": 8}], store=store)
            front = Frontend(Coordinator(salt="s"), store=store)
            hit = front.resolve("GET", "/guarantee?family=birth-death&n=8")
            assert hit[0] == 200 and hit[1]["cached"]
            # A miss and every other route are deferred to a thread.
            assert callable(front.resolve("GET", "/guarantee?family=birth-death&n=9"))
            assert callable(front.resolve("GET", "/healthz"))

    def test_compact_formula_spelling_hits_the_banked_row(self, tmp_path):
        with ResultStore(tmp_path / "canon.sqlite") as store:
            zoo.sweep(
                "birth-death", points=[{"n": 8}], formula="P=? [ F<=30 goal ]",
                store=store, executor="serial",
            )
            front = Frontend(Coordinator(salt="s"), store=store)
            compact = urllib.parse.quote("P=?[F<=30 goal]")
            status, body = front.route(
                "GET", f"/guarantee?family=birth-death&n=8&formula={compact}"
            )
        assert status == 200 and body["cached"]
        assert body["formula"] == "P=? [ F<=30 goal ]"

    def test_warm_hit_answers_while_another_writer_holds_the_store(self, tmp_path):
        import sqlite3

        path = tmp_path / "locked.sqlite"
        with ResultStore(path) as store:
            zoo.sweep("birth-death", points=[{"n": 8}], store=store)
        store = ResultStore(path, timeout=5.0)
        writer = sqlite3.connect(path)
        writer.execute("BEGIN IMMEDIATE")
        try:
            front = Frontend(Coordinator(salt="s"), store=store)
            with FrontendServer(front, port=0) as server:
                start = time.monotonic()
                with urllib.request.urlopen(
                    f"http://{server.address}/guarantee?family=birth-death&n=8",
                    timeout=10,
                ) as resp:
                    assert resp.status == 200
                    assert json.load(resp)["cached"]
                assert time.monotonic() - start < 1.0
        finally:
            writer.rollback()
            writer.close()
            store.close()

    def test_healthz_degrades_on_dead_worker(self):
        coord = Coordinator(salt="s", heartbeat=0.1)
        front = Frontend(coord)
        worker = _register(coord, name="mortal")
        status, body = front.healthz()
        assert (status, body["status"]) == (200, "ok")
        assert body["workers_alive"] == 1
        coord.workers[worker].last_seen -= 100.0  # silence: it died
        status, body = front.healthz()
        assert body["status"] == "degraded"
        assert body["workers_alive"] == 0
        assert body["dead"][0]["name"] == "mortal"

    def test_guarantee_miss_poll_bank_then_warm_hit(self, tmp_path):
        serial = zoo.sweep(
            "birth-death", points=[{"n": 8}], executor="serial"
        )[0]
        with ResultStore(tmp_path / "serve.sqlite") as store:
            with _fleet(classes=(_TameWorker,)) as (server, _workers):
                front = Frontend(server.coordinator, store=store)
                status, body = front.route(
                    "GET", "/guarantee?family=birth-death&n=8"
                )
                assert status == 202 and not body["cached"]
                job_id = body["job"]
                # An identical query racing the first shares its job.
                status2, body2 = front.route(
                    "GET", "/guarantee?family=birth-death&n=8"
                )
                if status2 == 202:  # may already have landed and banked
                    assert body2["job"] == job_id
                deadline = time.time() + 30.0
                while time.time() < deadline:
                    status, poll = front.route("GET", f"/jobs/{job_id}")
                    if poll["done"]:
                        break
                    time.sleep(0.05)
                assert poll["done"] and poll["results"][0]["ok"]
                assert poll["results"][0]["value"] == serial.value
                # Banked: the warm hit answers from the store without
                # touching the engine or enqueuing anything new.
                deadline = time.time() + 10.0
                while time.time() < deadline and len(store) == 0:
                    time.sleep(0.05)  # _bank runs on the job-done thread
                jobs_before = len(server.coordinator.jobs)
                status, warm = front.route(
                    "GET", "/guarantee?family=birth-death&n=8"
                )
                assert status == 200 and warm["cached"]
                assert warm["value"] == serial.value
                assert len(server.coordinator.jobs) == jobs_before
                assert front.hits == 1

    def test_rerequest_while_banking_shares_the_done_job(self, tmp_path):
        """A re-request after the job is done but before its value is
        banked shares that job instead of submitting a second one."""
        entered, release = threading.Event(), threading.Event()
        with ResultStore(tmp_path / "race.sqlite") as store:
            real_put = store.put

            def held_put(*args, **kwargs):
                entered.set()
                release.wait(30.0)
                return real_put(*args, **kwargs)

            store.put = held_put
            with _fleet(classes=(_TameWorker,)) as (server, _workers):
                front = Frontend(server.coordinator, store=store)
                query = "/guarantee?family=birth-death&n=8"
                status, body = front.route("GET", query)
                assert status == 202
                try:
                    assert entered.wait(30.0)  # done; the put is held
                    assert server.coordinator.jobs[body["job"]].done
                    jobs_before = len(server.coordinator.jobs)
                    status, again = front.route("GET", query)
                    assert (status, again["job"]) == (202, body["job"])
                    assert len(server.coordinator.jobs) == jobs_before
                finally:
                    release.set()
                deadline = time.time() + 10.0
                while time.time() < deadline and front._inflight:
                    time.sleep(0.01)
                status, warm = front.route("GET", query)
                assert status == 200 and warm["cached"]
                assert len(server.coordinator.jobs) == jobs_before

    def test_stats_payload_includes_store_and_coordinator(self, tmp_path):
        with ResultStore(tmp_path / "stats.sqlite") as store:
            front = Frontend(Coordinator(salt="s"), store=store)
            status, body = front.stats_payload()
        assert status == 200
        assert body["store"]["entries"] == 0
        assert body["coordinator"]["salt"] == "s"
        assert body["guarantee_hits"] == 0

    def test_http_server_end_to_end(self):
        coord = Coordinator(salt="s")
        with FrontendServer(Frontend(coord), port=0) as server:
            base = f"http://{server.address}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as resp:
                assert resp.status == 200
                assert json.load(resp)["status"] == "ok"
            with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
                assert json.load(resp)["coordinator"]["salt"] == "s"
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{base}/teapot", timeout=10)
            assert exc.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{base}/guarantee", timeout=10)
            assert exc.value.code == 400


# ----------------------------------------------------------------------
# Satellites: fast-fail validation, Ctrl-C semantics, CLI exit codes
# ----------------------------------------------------------------------

class TestExecutorValidation:
    def test_engine_sweep_lists_executors(self):
        with pytest.raises(ValueError, match="remote"):
            sweep(_square, [1], executor="bogus")

    def test_engine_sweep_check_fails_before_store_traffic(self):
        with pytest.raises(ValueError) as exc:
            sweep_check(
                lambda p: None, [{"n": 1}], "P=? [ F<=5 goal ]",
                executor="carrier-pigeon",
            )
        for name in EXECUTORS:
            assert name in str(exc.value)

    def test_zoo_sweep_and_survey_fail_fast(self):
        with pytest.raises(ZooError, match="remote"):
            zoo.sweep("birth-death", axes={"n": [8]}, executor="bogus")
        with pytest.raises(ZooError, match="remote"):
            zoo.survey(executor="bogus")

    def test_remote_needs_an_address(self, monkeypatch):
        monkeypatch.delenv("REPRO_COORDINATOR", raising=False)
        with pytest.raises(ValueError, match="REPRO_COORDINATOR"):
            sweep(_square, [1, 2], executor="remote")

    def test_cli_rejects_unknown_executor(self, capsys):
        from repro.zoo.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "birth-death", "-g", "n=8", "--executor", "bogus"])
        assert "remote" in capsys.readouterr().err

    def test_cli_remote_requires_connect(self, monkeypatch, capsys):
        from repro.zoo.cli import main

        monkeypatch.delenv("REPRO_COORDINATOR", raising=False)
        code = main(
            ["sweep", "birth-death", "-g", "n=8", "--executor", "remote"]
        )
        assert code == 2
        assert "--connect" in capsys.readouterr().err


class TestInterrupts:
    def test_serial_interrupt_carries_partials(self):
        with pytest.raises(SweepInterrupted) as exc:
            sweep(_interrupt_at_three, [0, 1, 2, 3, 4], executor="serial")
        assert [r.value for r in exc.value.partial] == [0, 1, 2]
        assert isinstance(exc.value, KeyboardInterrupt)  # still a ^C

    def test_sweep_check_banks_partials_on_interrupt(self, tmp_path, monkeypatch):
        # The package re-exports a `sweep` *function*, which shadows
        # the submodule as an attribute — resolve the module directly.
        engine_sweep_module = importlib.import_module("repro.engine.sweep")
        original = engine_sweep_module._check_point
        calls = {"n": 0}

        def interrupting(entry, **kwargs):
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            calls["n"] += 1
            return original(entry, **kwargs)

        axes = {"n": [6, 8, 10, 12]}
        with ResultStore(tmp_path / "ckpt.sqlite") as store:
            monkeypatch.setattr(
                engine_sweep_module, "_check_point", interrupting
            )
            with pytest.raises(SweepInterrupted) as exc:
                zoo.sweep(
                    "birth-death", axes=axes, store=store, executor="serial"
                )
            assert len(exc.value.partial) == 2
            # The two finished points were banked before the interrupt
            # propagated — the resumable-^C contract.
            assert len(store) == 2
            monkeypatch.setattr(engine_sweep_module, "_check_point", original)
            resumed = zoo.sweep(
                "birth-death", axes=axes, store=store, executor="serial"
            )
            assert all(r.ok for r in resumed)
            assert sum(r.cached for r in resumed) == 2
            assert len(store) == 4

    def test_process_sweep_banks_the_points_that_finished(
        self, tmp_path, monkeypatch
    ):
        engine_sweep_module = importlib.import_module("repro.engine.sweep")
        original = engine_sweep_module._wait_ready
        calls = {"n": 0}

        def interrupting(objects, timeout=None):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            # The first wait hears only from the worker holding grid
            # index 1, so index 1 finishes and index 0 does not.
            return original(objects[1:2], 60.0)

        kwargs = dict(
            axes={"n": [6, 8, 10, 12]}, executor="process",
            max_workers=2, shard_size=1,
        )
        with ResultStore(tmp_path / "ckpt.sqlite") as store:
            monkeypatch.setattr(engine_sweep_module, "_wait_ready", interrupting)
            with pytest.raises(SweepInterrupted) as exc:
                zoo.sweep("birth-death", store=store, **kwargs)
            assert [r.point for r in exc.value.partial] == [{"n": 8}]
            assert len(store) == 1
            monkeypatch.setattr(engine_sweep_module, "_wait_ready", original)
            resumed = zoo.sweep("birth-death", store=store, **kwargs)
            assert all(r.ok for r in resumed)
            assert [r.cached for r in resumed] == [False, True, False, False]
            assert len(store) == 4

    def test_cli_reports_interrupt_and_exits_130(self, monkeypatch, capsys):
        import repro.zoo.cli as cli

        def fake_sweep(*args, **kwargs):
            raise SweepInterrupted(
                [SweepResult(point={"n": 8}, value=1.0, seconds=0.0)]
            )

        monkeypatch.setattr(cli, "_sweep", fake_sweep)
        code = cli.main(
            ["sweep", "birth-death", "-g", "n=8", "--executor", "serial"]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--store" in err


def _alive(pid: int) -> bool:
    """Is ``pid`` a running (not exited, not zombie) process?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestServeShutdown:
    def test_sigterm_stops_serve_and_its_workers(self):
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        address = f"127.0.0.1:{free_port()}"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.zoo", "serve", "--port", "0",
             "--coordinator-port", address.split(":")[1], "--workers", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            pid = None
            deadline = time.time() + 60.0
            while pid is None and time.time() < deadline:
                try:
                    workers = service_stats(address)["workers"]
                except (OSError, WireError):
                    workers = []
                pid = next((w["pid"] for w in workers if w["alive"]), None)
                time.sleep(0.1)
            assert pid is not None, "serve --workers 1 never registered a worker"
            serve.send_signal(signal.SIGTERM)
            deadline = time.time() + 10.0
            while _alive(pid) and time.time() < deadline:
                time.sleep(0.05)
            assert not _alive(pid), "worker outlived a SIGTERMed serve"
            assert serve.wait(timeout=10.0) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
