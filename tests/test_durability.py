"""Durability of the guarantee service (`repro.service`) — ISSUE 10.

The coordinator may now die too.  Layer by layer:

* **journal**: submit/result/quarantine round trips, first-write-wins
  idempotency under double delivery, monotone boot epochs across
  reopen, replay skipping done/cancelled jobs, pruning;
* **epoch fencing**: results/heartbeats/leases stamped with a
  pre-restart epoch are answered ``reregister`` and never merged;
* **coordinator replay**: a second coordinator built on the same
  journal resumes exactly the missing grid ranges and finishes the
  sweep bit-identical, ignoring stale deliveries along the way;
* **chaos**: an in-process coordinator is stopped mid-sweep and a new
  incarnation started on the same port + journal — workers reconnect
  and re-register on their own, the client's retry budget rides
  through the outage, and the merged sweep equals the serial run with
  every grid index journalled exactly once;
* **store writes**: a remote ``zoo.sweep`` submitted to one
  incarnation and computed entirely by its replayed successor banks
  every point exactly once (zero duplicate store writes);
* **wire faults**: the injector's corrupt/truncate/disconnect/delay
  perturbations each surface as the right typed, retryable transport
  error on the receive side;
* **client retries**: transient transport failures back off and
  recover; exhausted budgets collapse into ``ServiceUnavailable``;
  application-level ``RemoteError`` is never retried;
* **front-end degradation**: the circuit breaker state machine, 503 +
  ``Retry-After`` on misses while open (warm hits still serve 200),
  429 load shedding past ``max_inflight``, and ``/healthz`` carrying
  breaker/epoch/journal state.

The variant that SIGKILLs a *real* ``repro-zoo serve`` process lives
in ``scripts/service_smoke.py`` (run by CI); here the crash is modelled
in-process to keep the suite fast and deterministic.
"""

import socket
import threading
import time
import types
import urllib.error
import urllib.request

import pytest

from repro import zoo
from repro.engine import sweep
from repro.resilience import CircuitBreaker, FaultInjector, RetryPolicy, WireFault
from repro.service import (
    Coordinator,
    CoordinatorServer,
    Frontend,
    FrontendServer,
    JobJournal,
    Worker,
    call_with_retry,
    free_port,
    remote_sweep,
)
from repro.service import wire
from repro.service.wire import (
    FrameCorrupted,
    RemoteError,
    ServiceUnavailable,
    WireError,
)
from repro.store import ResultStore

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


def _slow_double(x):
    time.sleep(0.08)
    return 2 * x


class _TameWorker(Worker):
    """Coordinator-ordered death stops the loop instead of ``os._exit``
    (which would take the test process with it)."""

    def _die(self):
        self.stop()


def _register(coord, name="w"):
    reply = coord.handle(
        {
            "type": "register",
            "protocol": wire.PROTOCOL_VERSION,
            "salt": coord.salt,
            "name": name,
            "pid": 1,
            "host": "testhost",
        }
    )
    assert reply["type"] == "welcome"
    return reply["worker"]


# ----------------------------------------------------------------------
# The journal on its own
# ----------------------------------------------------------------------

class TestJournal:
    def test_submit_result_replay_round_trip(self, tmp_path):
        with JobJournal(tmp_path / "j.sqlite") as journal:
            journal.record_submit(
                "job-1",
                fn={"enc": "pickle", "data": "xx"},
                retry={},
                points=[{"p": i} for i in range(5)],
                created=123.0,
                point_budget=2.5,
                shard_size=2,
                meta={"kind": "test"},
            )
            journal.record_results("job-1", [(0, {"v": 0}), (1, {"v": 1})])
            journal.record_results("job-1", [(3, {"v": 3})])
            journal.record_quarantine("job-1", 4, {"error": "boom", "attempts": 2})
            jobs = journal.replay()
        assert len(jobs) == 1
        job = jobs[0]
        assert job.id == "job-1"
        assert job.created == 123.0
        assert job.point_budget == 2.5
        assert job.shard_size == 2
        assert job.meta == {"kind": "test"}
        assert job.results == {0: {"v": 0}, 1: {"v": 1}, 3: {"v": 3}}
        assert job.quarantined == {4: {"error": "boom", "attempts": 2}}
        assert job.missing == [2]
        assert job.missing_ranges() == [(2, 3)]

    def test_double_delivery_is_idempotent_first_write_wins(self, tmp_path):
        with JobJournal(tmp_path / "j.sqlite") as journal:
            journal.record_submit(
                "job-1", fn={}, retry={}, points=[{}, {}],
                created=0.0, point_budget=None, shard_size=None, meta={},
            )
            journal.record_results("job-1", [(0, {"v": "first"})])
            # A reassigned lease completing late delivers the same index
            # again — the journal must keep the first write.
            journal.record_results("job-1", [(0, {"v": "second"})])
            journal.record_quarantine("job-1", 1, {"error": "a"})
            journal.record_quarantine("job-1", 1, {"error": "b"})
            [job] = journal.replay()
            assert job.results[0] == {"v": "first"}
            assert job.quarantined[1] == {"error": "a"}
            assert journal.stats()["results"] == 1

    def test_epoch_monotone_across_reopen(self, tmp_path):
        path = tmp_path / "j.sqlite"
        with JobJournal(path) as journal:
            assert journal.epoch == 0
            assert journal.bump_epoch() == 1
            assert journal.bump_epoch() == 2
        with JobJournal(path) as journal:
            assert journal.epoch == 2  # persisted, not reset
            assert journal.bump_epoch() == 3

    def test_replay_skips_done_and_cancelled(self, tmp_path):
        with JobJournal(tmp_path / "j.sqlite") as journal:
            for name in ("open", "done", "cancelled"):
                journal.record_submit(
                    f"job-{name}", fn={}, retry={}, points=[{}],
                    created=0.0, point_budget=None, shard_size=None, meta={},
                )
            journal.record_done("job-done")
            journal.record_cancelled("job-cancelled")
            assert [j.id for j in journal.replay()] == ["job-open"]
            assert journal.stats()["jobs_open"] == 1
            assert journal.prune() == 2
            assert journal.stats()["jobs"] == 1

    def test_missing_ranges_are_contiguous_runs(self, tmp_path):
        with JobJournal(tmp_path / "j.sqlite") as journal:
            journal.record_submit(
                "job-1", fn={}, retry={}, points=[{} for _ in range(8)],
                created=0.0, point_budget=None, shard_size=None, meta={},
            )
            journal.record_results("job-1", [(2, {}), (5, {})])
            [job] = journal.replay()
            assert job.missing_ranges() == [(0, 2), (3, 5), (6, 8)]


# ----------------------------------------------------------------------
# Epoch fencing at the coordinator
# ----------------------------------------------------------------------

class TestEpochFence:
    def test_stale_epoch_results_are_rejected_not_merged(self):
        coord = Coordinator(salt="s", epoch=7)
        worker = _register(coord)
        job = coord.submit({"enc": "x"}, [{"p": 0}, {"p": 1}], shard_size=2)
        shard = coord.handle({"type": "lease", "worker": worker, "epoch": 7})
        stale = coord.handle(
            {
                "type": "result", "worker": worker, "epoch": 6,
                "job": job, "lease": shard["lease"],
                "start": 0, "stop": 2, "results": ["old-0", "old-1"],
            }
        )
        assert stale["type"] == "reregister"
        assert "stale epoch" in stale["reason"]
        assert stale["epoch"] == 7
        assert coord.jobs[job].results == {}  # nothing of it was merged
        # The same payload under the live epoch merges normally.
        ok = coord.handle(
            {
                "type": "result", "worker": worker, "epoch": 7,
                "job": job, "lease": shard["lease"],
                "start": 0, "stop": 2, "results": ["new-0", "new-1"],
            }
        )
        assert ok["type"] == "ok"
        assert coord.jobs[job].results[0] == "new-0"

    def test_stale_heartbeat_and_lease_are_fenced(self):
        coord = Coordinator(salt="s", epoch=3)
        worker = _register(coord)
        for kind in ("heartbeat", "lease"):
            reply = coord.handle({"type": kind, "worker": worker, "epoch": 2})
            assert reply["type"] == "reregister", kind
        # Current epoch passes through to the ordinary handlers.
        assert coord.handle(
            {"type": "heartbeat", "worker": worker, "epoch": 3}
        )["type"] == "ok"

    def test_worker_rides_reregister_directive(self):
        with CoordinatorServer(port=0, heartbeat=0.1, salt=None) as server:
            worker = _TameWorker(server.address, poll=0.02)
            worker.register()
            first_id, first_epoch = worker.worker_id, worker.epoch
            assert first_epoch == server.coordinator.epoch
            # Simulate a restart: epoch moves on, worker table wiped.
            server.coordinator.epoch += 1
            server.coordinator.workers.clear()
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            deadline = time.time() + 10.0
            while time.time() < deadline and worker.registrations < 2:
                time.sleep(0.01)
            worker.stop()
            thread.join(timeout=5.0)
            assert worker.registrations >= 2
            assert worker.epoch == server.coordinator.epoch


# ----------------------------------------------------------------------
# Coordinator replay from the journal (no sockets)
# ----------------------------------------------------------------------

class TestReplay:
    def test_replay_resumes_missing_ranges_and_finishes(self, tmp_path):
        path = tmp_path / "journal.sqlite"
        first = Coordinator(salt="s", journal=path)
        worker = _register(first)
        job = first.submit(
            {"enc": "x"}, [{"p": i} for i in range(6)], shard_size=2
        )
        shard = first.handle(
            {"type": "lease", "worker": worker, "epoch": first.epoch}
        )
        first.handle(
            {
                "type": "result", "worker": worker, "epoch": first.epoch,
                "job": job, "lease": shard["lease"],
                "start": shard["start"], "stop": shard["stop"],
                "results": ["r0", "r1"],
            }
        )

        # The crash: a brand-new coordinator on the same journal file.
        second = Coordinator(salt="s", journal=path)
        assert second.epoch == first.epoch + 1
        replayed = second.jobs[job]
        assert replayed.results == {0: "r0", 1: "r1"}
        assert replayed.pending == [(2, 4), (4, 6)]  # resharded misses
        assert replayed.meta["replayed_epoch"] == second.epoch

        # A worker that slept through the restart cannot write into it.
        stale = second.handle(
            {
                "type": "result", "worker": worker, "epoch": first.epoch,
                "job": job, "lease": "lease-999",
                "start": 2, "stop": 4, "results": ["stale-2", "stale-3"],
            }
        )
        assert stale["type"] == "reregister"
        assert replayed.results == {0: "r0", 1: "r1"}

        # A fresh registration finishes exactly the missing ranges.
        fresh = _register(second)
        while True:
            granted = second.handle(
                {"type": "lease", "worker": fresh, "epoch": second.epoch}
            )
            if granted["type"] != "shard":
                break
            second.handle(
                {
                    "type": "result", "worker": fresh, "epoch": second.epoch,
                    "job": job, "lease": granted["lease"],
                    "start": granted["start"], "stop": granted["stop"],
                    "results": [
                        f"r{i}" for i in range(granted["start"], granted["stop"])
                    ],
                }
            )
        assert replayed.done
        assert replayed.results == {i: f"r{i}" for i in range(6)}

        # A third incarnation has nothing left to replay.
        third = Coordinator(salt="s", journal=path)
        assert third.jobs == {}
        assert third.epoch == second.epoch + 1

    def test_replayed_ids_do_not_collide_with_fresh_ones(self, tmp_path):
        path = tmp_path / "journal.sqlite"
        first = Coordinator(salt="s", journal=path)
        for _ in range(3):
            _register(first)  # burn counter: jobs land on higher suffixes
        job = first.submit({"enc": "x"}, [{"p": 0}])
        second = Coordinator(salt="s", journal=path)
        assert job in second.jobs
        assert second.submit({"enc": "y"}, [{"p": 0}]) != job

    def test_submit_rejected_while_shutting_down(self):
        coord = Coordinator(salt="s")
        coord._on_shutdown({})
        with pytest.raises(WireError, match="shutting down"):
            coord.submit({"enc": "x"}, [{"p": 0}])


# ----------------------------------------------------------------------
# Chaos: coordinator dies mid-sweep, a new incarnation takes over
# ----------------------------------------------------------------------

class TestCoordinatorCrash:
    def test_crash_mid_sweep_restart_resumes_bit_identical(self, tmp_path):
        journal = str(tmp_path / "journal.sqlite")
        port = free_port()
        address = f"127.0.0.1:{port}"
        points = list(range(24))
        serial = sweep(_slow_double, points, executor="serial")

        first = CoordinatorServer(
            port=port, heartbeat=0.1, journal=journal
        ).start()
        workers = [
            _TameWorker(address, poll=0.02, name=f"durable-{i}")
            for i in range(2)
        ]
        threads = [
            threading.Thread(target=w.run, daemon=True) for w in workers
        ]
        for thread in threads:
            thread.start()

        box = {}

        def client():
            box["results"] = remote_sweep(
                _slow_double, points, connect=address, shard_size=2,
            )

        runner = threading.Thread(target=client, daemon=True)
        second = None
        try:
            runner.start()
            # Let some shards land, then kill the coordinator abruptly
            # (no shutdown handshake — workers are NOT told to die).
            deadline = time.time() + 30.0
            while time.time() < deadline:
                stats = first.coordinator.stats()
                if (stats["journal"] or {}).get("results", 0) >= 4:
                    break
                time.sleep(0.02)
            merged_before = stats["journal"]["results"]
            assert 0 < merged_before < len(points), "crash must be mid-sweep"
            first.stop(shutdown_workers=False)

            second = CoordinatorServer(
                port=port, heartbeat=0.1, journal=journal
            ).start()
            assert second.coordinator.epoch == first.coordinator.epoch + 1
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "client never finished after restart"
        finally:
            for worker in workers:
                worker.stop()
            if second is not None:
                second.stop()
            elif runner.is_alive():
                first.stop()
            for thread in threads:
                thread.join(timeout=5.0)

        # Bit-identical to serial despite the restart...
        assert [r.value for r in box["results"]] == [r.value for r in serial]
        assert all(r.ok for r in box["results"])
        # ...the workers re-registered on their own...
        assert all(w.registrations >= 2 for w in workers)
        # ...and every grid index was journalled exactly once (first
        # write wins end to end — re-leased shards never double up).
        with JobJournal(journal) as jj:
            assert jj.stats()["results"] == len(points)
            assert jj.stats()["jobs_open"] == 0

    def test_replayed_job_banks_each_point_exactly_once(self, tmp_path):
        """Submit to one incarnation, compute entirely on its replayed
        successor: the store sees exactly one write per point."""
        journal = str(tmp_path / "journal.sqlite")
        port = free_port()
        address = f"127.0.0.1:{port}"
        axes = {"n": [6, 8, 10, 12]}
        serial = zoo.sweep("birth-death", axes=axes, executor="serial")

        puts = []
        store = ResultStore(tmp_path / "bank.sqlite")
        real_put = store.put

        def counting_put(scenario_id, formula, value, **kwargs):
            puts.append(repr(scenario_id))
            return real_put(scenario_id, formula, value, **kwargs)

        store.put = counting_put

        first = CoordinatorServer(
            port=port, heartbeat=0.1, journal=journal
        ).start()
        box = {}

        def client():
            box["results"] = zoo.sweep(
                "birth-death", axes=axes, executor="remote",
                remote=address, shard_size=1, store=store,
            )

        runner = threading.Thread(target=client, daemon=True)
        runner.start()
        # Wait until the submit is journalled, then crash: no worker
        # ever registered with the first incarnation, so the whole
        # sweep is computed by the replayed job.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if (first.coordinator.stats()["journal"] or {}).get("jobs_open", 0):
                break
            time.sleep(0.02)
        first.stop(shutdown_workers=False)

        second = CoordinatorServer(
            port=port, heartbeat=0.1, journal=journal
        ).start()
        worker = _TameWorker(address, poll=0.02, name="late")
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            runner.join(timeout=60.0)
            assert not runner.is_alive()
        finally:
            worker.stop()
            second.stop()
            thread.join(timeout=5.0)
            store.close()

        assert [r.value for r in box["results"]] == [r.value for r in serial]
        # Zero duplicate store writes: one put per distinct scenario.
        assert len(puts) == len(serial)
        assert len(set(puts)) == len(puts)


# ----------------------------------------------------------------------
# Wire-level fault injection
# ----------------------------------------------------------------------

class TestWireFaults:
    def test_wire_fault_validation(self):
        with pytest.raises(ValueError, match="unknown wire fault"):
            WireFault(kind="gremlin")
        with pytest.raises(ValueError, match="times"):
            WireFault(times=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            WireFault(kind="delay", delay_seconds=-1.0)

    def _pair(self):
        return socket.socketpair()

    def test_corrupted_frame_surfaces_as_frame_corrupted(self, tmp_path):
        injector = FaultInjector({}, tmp_path / "score")
        a, b = self._pair()
        try:
            assert injector.send_through(
                a, {"type": "ping"}, WireFault(kind="corrupt")
            )
            with pytest.raises(FrameCorrupted):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_surfaces_as_mid_frame_eof(self, tmp_path):
        injector = FaultInjector({}, tmp_path / "score")
        a, b = self._pair()
        try:
            assert injector.send_through(
                a, {"type": "ping", "pad": "x" * 64}, WireFault(kind="truncate")
            )
            with pytest.raises(WireError, match="mid-frame"):
                wire.recv_message(b)
        finally:
            b.close()

    def test_disconnect_surfaces_as_wire_error(self, tmp_path):
        injector = FaultInjector({}, tmp_path / "score")
        a, b = self._pair()
        try:
            assert injector.send_through(
                a, {"type": "ping"}, WireFault(kind="disconnect")
            )
            with pytest.raises(WireError):
                wire.recv_message(b)
        finally:
            b.close()

    def test_delay_passes_an_intact_frame(self, tmp_path):
        injector = FaultInjector({}, tmp_path / "score")
        a, b = self._pair()
        try:
            started = time.monotonic()
            injector.send_through(
                a,
                {"type": "ping"},
                WireFault(kind="delay", delay_seconds=0.1),
            )
            assert time.monotonic() - started >= 0.1
            assert wire.recv_message(b) == {"type": "ping"}
        finally:
            a.close()
            b.close()

    def test_times_budget_is_shared_across_injectors(self, tmp_path):
        fault = WireFault(kind="corrupt", times=1, key="flaky")
        # Two injector instances over the same scoreboard model two
        # processes: the second send must pass through untouched.
        first = FaultInjector({}, tmp_path / "score")
        second = FaultInjector({}, tmp_path / "score")
        a, b = self._pair()
        try:
            assert first.send_through(a, {"n": 1}, fault) is True
            with pytest.raises(FrameCorrupted):
                wire.recv_message(b)
            assert second.send_through(a, {"n": 2}, fault) is False
            assert wire.recv_message(b) == {"n": 2}
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Client retries
# ----------------------------------------------------------------------

class TestClientRetries:
    def test_exhausted_budget_raises_service_unavailable(self):
        dead = f"127.0.0.1:{free_port()}"  # nothing listens here
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        with pytest.raises(ServiceUnavailable, match="3 attempts") as exc:
            call_with_retry(dead, {"type": "stats"}, retry=policy)
        assert isinstance(exc.value.__cause__, OSError)

    def test_transient_refusal_is_ridden_out(self):
        port = free_port()
        address = f"127.0.0.1:{port}"
        server_box = {}

        def late_start():
            time.sleep(0.3)
            server_box["server"] = CoordinatorServer(port=port, salt="s").start()

        starter = threading.Thread(target=late_start, daemon=True)
        starter.start()
        try:
            reply = call_with_retry(
                address,
                {"type": "stats"},
                retry=RetryPolicy(max_attempts=10, backoff=0.1),
            )
            assert reply["type"] == "stats"
        finally:
            starter.join(timeout=5.0)
            if "server" in server_box:
                server_box["server"].stop()

    def test_remote_error_is_never_retried(self):
        with CoordinatorServer(port=0, salt="s") as server:
            with pytest.raises(RemoteError, match="unknown job"):
                call_with_retry(
                    server.address,
                    {"type": "collect", "job": "job-404"},
                    retry=RetryPolicy(max_attempts=5, backoff=5.0),
                )  # backoff=5s x 5 would blow the test timeout if retried

    def test_worker_reregister_budget_exhaustion(self):
        dead = f"127.0.0.1:{free_port()}"
        worker = Worker(
            dead, reconnect=RetryPolicy(max_attempts=2, backoff=0.0)
        )
        with pytest.raises(ServiceUnavailable, match="registration attempts"):
            worker.reregister()

    def test_worker_salt_mismatch_is_fatal_not_retried(self):
        with CoordinatorServer(port=0, salt="right") as server:
            worker = Worker(server.address, salt="wrong")
            with pytest.raises(RemoteError, match="cache-compatible"):
                worker.reregister()


# ----------------------------------------------------------------------
# Circuit breaker + front-end degradation
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_state_machine(self):
        clock = types.SimpleNamespace(now=0.0)
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=10.0, clock=lambda: clock.now
        )
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.now = 9.9
        assert not breaker.allow()  # still cooling down
        clock.now = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # exactly one probe slot
        assert not breaker.allow()   # a second caller is refused
        breaker.record_failure()     # the probe failed: re-open
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 20.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() and breaker.allow()  # closed is unlimited
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "closed"
        assert snapshot["trips"] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=-1.0)


class TestFrontendDegradation:
    def _tripped(self, **frontend_kwargs):
        """A frontend whose breaker is already open."""
        breaker = CircuitBreaker(failure_threshold=1, cooldown=60.0)
        breaker.record_failure()
        return Frontend(
            Coordinator(salt="s"), breaker=breaker, **frontend_kwargs
        )

    def test_miss_answers_503_with_retry_after_while_open(self):
        front = self._tripped()
        status, body = front.route("GET", "/guarantee?family=birth-death&n=8")
        assert status == 503
        assert "circuit breaker" in body["error"]
        assert 0 < body["retry_after"] <= 60.0
        assert front.shed == 1

    def test_warm_hit_still_serves_while_open(self):
        front = self._tripped()
        hit = types.SimpleNamespace(value=0.25, seconds=0.1, samples=100)
        front.store = types.SimpleNamespace(get_many=lambda queries: [hit])
        status, body = front.route("GET", "/guarantee?family=birth-death&n=8")
        assert status == 200
        assert body["cached"] and body["value"] == 0.25
        assert front.hits == 1 and front.shed == 0

    def test_submit_failure_trips_the_breaker(self):
        coord = Coordinator(salt="s")
        coord._on_shutdown({})  # every submit now raises
        front = Frontend(
            coord, breaker=CircuitBreaker(failure_threshold=1, cooldown=60.0)
        )
        status, body = front.route("GET", "/guarantee?family=birth-death&n=8")
        assert status == 503 and "shutting down" in body["error"]
        assert front.breaker.state == CircuitBreaker.OPEN
        # The next miss is refused by the open breaker without ever
        # touching the coordinator.
        status, _body = front.route("GET", "/guarantee?family=birth-death&n=9")
        assert status == 503
        assert front.shed == 2

    def test_inflight_bound_sheds_with_429(self):
        front = Frontend(Coordinator(salt="s"), max_inflight=1)
        status, _body = front.route("GET", "/guarantee?family=birth-death&n=8")
        assert status == 202  # no workers: the job stays in flight
        status, body = front.route("GET", "/guarantee?family=birth-death&n=9")
        assert status == 429
        assert body["retry_after"] == 1.0
        assert front.shed == 1
        # The *same* query shares the in-flight job instead of shedding.
        status, body = front.route("GET", "/guarantee?family=birth-death&n=8")
        assert status == 202

    def test_healthz_reports_breaker_epoch_and_journal(self, tmp_path):
        coord = Coordinator(
            salt="s", journal=tmp_path / "j.sqlite"
        )
        front = Frontend(coord)
        status, body = front.healthz()
        assert status == 200 and body["status"] == "ok"
        assert body["breaker"]["state"] == "closed"
        assert body["epoch"] == coord.epoch
        assert body["journal"]["path"].endswith("j.sqlite")
        front.breaker.record_failure()
        front.breaker.record_failure()
        front.breaker.record_failure()
        front.breaker.record_failure()
        front.breaker.record_failure()
        _status, body = front.healthz()
        assert body["status"] == "degraded"
        assert body["breaker"]["state"] == "open"

    def test_healthz_degrades_on_unfinished_jobs_without_workers(self):
        coord = Coordinator(salt="s")
        front = Frontend(coord)
        assert front.healthz()[1]["status"] == "ok"
        coord.submit({"enc": "x"}, [{"p": 0}])
        body = front.healthz()[1]
        assert body["status"] == "degraded"
        assert body["jobs_unfinished"] == 1

    def test_http_503_carries_retry_after_header(self):
        front = self._tripped()
        with FrontendServer(front, port=0) as server:
            url = f"http://{server.address}/guarantee?family=birth-death&n=8"
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(url, timeout=10)
            assert exc.value.code == 503
            assert int(exc.value.headers["Retry-After"]) >= 1
