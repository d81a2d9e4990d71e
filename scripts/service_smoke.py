#!/usr/bin/env python
"""CI smoke of the networked guarantee service (ISSUE 8 acceptance).

One honest end-to-end pass with *real worker processes*:

1. start a coordinator, an HTTP front-end, and two ``repro-zoo
   worker`` subprocesses;
2. run a 30-point remote sweep; once the first worker has completed a
   couple of shards, SIGKILL it mid-sweep;
3. assert the sweep still completes with results **bit-identical** to
   a serial run of the same seeded grid (the dead worker's leases were
   reassigned);
4. assert ``GET /healthz`` reports the fleet as degraded and names the
   dead worker, while ``GET /stats`` still serves;
5. exercise the serving path: a point the remote sweep banked is a
   warm ``GET /guarantee`` hit; a ``GET /guarantee`` miss returns 202
   with a pollable job, completes on the surviving worker, is banked
   to the store, and both the repeat query and a one-point
   ``zoo.sweep`` of it are warm hits;
6. exercise the history surfaces (ISSUE 9): the remote sweep banked
   its 30 points, so ``GET /dashboard`` returns 200 HTML naming the
   swept family and ``GET /history`` returns the banked trajectory;
   seed the store under two extra salts with a planted drift and
   assert ``repro-zoo history diff`` reports it and exits non-zero;
7. SIGTERM the surviving worker and assert it exits 0 (the graceful
   deregister path), then stop the servers — no orphans.

Then the durability phase (ISSUE 10) — this time the *coordinator*
is the victim:

8. start a journalled ``repro-zoo serve`` subprocess on fixed ports
   plus two reconnecting worker subprocesses, and SIGKILL the serve
   process once a few shards have been journalled mid-sweep;
9. restart the identical serve command on the same ports: with the
   workers SIGSTOPped, ``GET /healthz`` on the new incarnation reports
   ``degraded`` (replayed unfinished job, zero live workers) and a
   bumped epoch; after SIGCONT the workers re-register on their own
   and ``/healthz`` recovers to ``ok`` with no human intervention;
10. assert the client sweep — whose retry budget rode out the outage —
    completed bit-identical to serial, and the store banked exactly
    one row per point.

Then the push phase — work must reach an idle worker at once, not one
heartbeat later:

11. start ``repro-zoo serve --heartbeat 5 --workers 1 --store ...``;
    after one untimed miss (the worker's first shard pays its imports)
    two consecutive cold ``GET /guarantee`` misses must each reach
    ``done`` within 1 s, although the worker's heartbeat is 5 s;
12. SIGINT must stop serve and its worker within 3 s.

Run from the repository root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.engine import SmcConfig  # noqa: E402
from repro.service import (  # noqa: E402
    CoordinatorServer,
    Frontend,
    FrontendServer,
    free_port,
)
from repro.service.client import service_stats  # noqa: E402
from repro.store import ResultStore  # noqa: E402
from repro.zoo import sweep as zoo_sweep  # noqa: E402

GRID = {"snr_db": [float(snr) for snr in range(1, 31)]}  # 30 points
SMC = SmcConfig(epsilon=0.1, delta=0.1, seed=3)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _coordinator_crash_phase(env) -> None:
    """SIGKILL the coordinator mid-sweep, restart it on the same
    journal, and assert the fleet heals itself (ISSUE 10)."""
    tmp = tempfile.mkdtemp(prefix="service-smoke-crash-")
    journal = os.path.join(tmp, "journal.sqlite")
    store_path = os.path.join(tmp, "crash.sqlite")
    coord_port, http_port = free_port(), free_port()
    address = f"127.0.0.1:{coord_port}"
    serve_cmd = [
        sys.executable, "-m", "repro.zoo", "serve",
        "--coordinator-port", str(coord_port), "--port", str(http_port),
        "--workers", "0", "--journal", journal, "--store", store_path,
        "--heartbeat", "0.2",
    ]
    serve = subprocess.Popen(serve_cmd, env=env)
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.zoo", "worker",
             "--connect", address, "--name", f"crash-{i}",
             "--reconnect-attempts", "60"],
            env=env,
        )
        for i in range(2)
    ]
    serve2 = None
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if service_stats(address)["workers_alive"] >= 2:
                break
            time.sleep(0.2)
        stats = service_stats(address)
        assert stats["workers_alive"] == 2, f"crash fleet never came up: {stats}"
        epoch_before = stats["epoch"]
        print(f"journalled coordinator up (epoch {epoch_before}), 2 workers")

        grid = {"snr_db": [float(snr) for snr in range(1, 13)]}  # 12 points
        kwargs = dict(axes=grid, backend="apmc", smc=SMC)
        serial = zoo_sweep("mimo-1xN", executor="serial", **kwargs)
        store = ResultStore(store_path)
        box = {}

        def _client() -> None:
            box["results"] = zoo_sweep(
                "mimo-1xN", executor="remote", remote=address,
                shard_size=1, store=store, **kwargs,
            )

        runner = threading.Thread(target=_client, daemon=True)
        runner.start()

        # SIGKILL the serve process once a few shards are journalled.
        deadline = time.time() + 120.0
        while time.time() < deadline:
            merged = (service_stats(address)["journal"] or {}).get("results", 0)
            if merged >= 3:
                break
            time.sleep(0.05)
        assert 0 < merged < len(grid["snr_db"]), (
            f"needed a mid-sweep kill, journal had {merged} results"
        )
        serve.send_signal(signal.SIGKILL)
        assert serve.wait(timeout=10) == -signal.SIGKILL
        print(f"SIGKILLed coordinator mid-sweep ({merged} results journalled)")

        # Freeze the workers so the restarted service is observably
        # degraded before anyone re-registers.
        for proc in workers:
            proc.send_signal(signal.SIGSTOP)
        serve2 = subprocess.Popen(serve_cmd, env=env)
        deadline = time.time() + 60.0
        health = None
        while time.time() < deadline:
            try:
                _status, health = _get(f"http://127.0.0.1:{http_port}/healthz")
                break
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        assert health is not None, "restarted front-end never answered"
        assert health["status"] == "degraded", health
        assert health["jobs_unfinished"] >= 1, health
        assert health["epoch"] > epoch_before, health
        print(
            f"restart replayed the journal: healthz degraded, "
            f"epoch {epoch_before} -> {health['epoch']}"
        )

        for proc in workers:
            proc.send_signal(signal.SIGCONT)
        deadline = time.time() + 120.0
        while time.time() < deadline:
            _status, health = _get(f"http://127.0.0.1:{http_port}/healthz")
            if health["status"] == "ok" and health["workers_alive"] == 2:
                break
            time.sleep(0.2)
        assert health["status"] == "ok", health
        print("workers re-registered on their own: healthz back to ok")

        runner.join(timeout=120.0)
        assert not runner.is_alive(), "client sweep never finished after restart"
        remote_values = [
            (r.value.estimate, r.value.samples) for r in box["results"]
        ]
        serial_values = [(r.value.estimate, r.value.samples) for r in serial]
        assert all(r.ok for r in box["results"])
        assert remote_values == serial_values, "post-crash sweep NOT bit-identical"
        assert len(store) == len(grid["snr_db"]), (
            f"expected one banked row per point, store has {len(store)}"
        )
        store.close()
        print(
            f"sweep rode out the coordinator crash: bit-identical across "
            f"{len(grid['snr_db'])} points, {len(grid['snr_db'])} rows banked"
        )
    finally:
        for proc in workers:
            proc.send_signal(signal.SIGCONT)  # harmless if running
            proc.send_signal(signal.SIGTERM)
        for proc in workers:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
        for proc in (serve, serve2):
            if proc is not None and proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    print("coordinator crash phase OK: no orphans")


def _alive(pid: int) -> bool:
    """Running, and not a zombie (exited, not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


def _push_phase(env) -> None:
    """Cold misses finish in milliseconds with a 5 s heartbeat, and a
    SIGINT stops serve and its parked worker at once."""
    tmp = tempfile.mkdtemp(prefix="service-smoke-push-")
    coord_port, http_port = free_port(), free_port()
    address = f"127.0.0.1:{coord_port}"
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.zoo", "serve",
         "--coordinator-port", str(coord_port), "--port", str(http_port),
         "--heartbeat", "5", "--workers", "1",
         "--store", os.path.join(tmp, "push.sqlite")],
        env=env,
    )
    worker_pid = None
    try:
        deadline = time.time() + 60.0
        while worker_pid is None and time.time() < deadline:
            try:
                workers = service_stats(address)["workers"]
            except OSError:
                workers = []
            worker_pid = next((w["pid"] for w in workers if w["alive"]), None)
            time.sleep(0.1)
        assert worker_pid is not None, "serve --workers 1 never registered"
        base = f"http://127.0.0.1:{http_port}"
        for n in (9, 10, 11):
            start = time.monotonic()
            status, body = _get(f"{base}/guarantee?family=birth-death&n={n}")
            assert status == 202, body
            while True:
                _status, job = _get(base + body["poll"])
                elapsed = time.monotonic() - start
                if job["done"] or elapsed > 30.0:
                    break
                time.sleep(0.01)
            assert job["done"] and job["results"][0]["ok"], job
            if n > 9:  # n=9 warmed the worker's imports
                assert elapsed < 1.0, f"cold miss n={n} took {elapsed:.3f}s"
                print(f"cold miss n={n} done in {elapsed * 1e3:.1f} ms"
                      " with a 5 s heartbeat")
        start = time.monotonic()
        serve.send_signal(signal.SIGINT)
        assert serve.wait(timeout=3.0) == 0
        while _alive(worker_pid) and time.monotonic() - start < 3.0:
            time.sleep(0.02)
        assert not _alive(worker_pid), "worker outlived a SIGINTed serve"
        print(f"SIGINT stopped serve and its worker in"
              f" {(time.monotonic() - start) * 1e3:.0f} ms")
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait()
        if worker_pid is not None and _alive(worker_pid):
            os.kill(worker_pid, signal.SIGKILL)
    print("push phase OK")


def main() -> int:
    env = dict(os.environ)
    src_root = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"
    )
    env["PYTHONPATH"] = (
        os.path.abspath(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    )

    server = CoordinatorServer(port=0, heartbeat=0.2).start()
    print(f"coordinator on {server.address}")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.zoo", "worker",
             "--connect", server.address, "--name", f"smoke-{i}"],
            env=env,
        )
        for i in range(2)
    ]
    store_path = os.path.join(tempfile.mkdtemp(prefix="service-smoke-"), "smoke.sqlite")
    store = ResultStore(store_path)
    front = FrontendServer(
        Frontend(server.coordinator, store=store), port=0
    ).start_background()
    print(f"front-end on http://{front.address}")

    deadline = time.time() + 60.0
    while time.time() < deadline:
        if service_stats(server.address)["workers_alive"] >= 2:
            break
        time.sleep(0.2)
    stats = service_stats(server.address)
    assert stats["workers_alive"] == 2, f"fleet never came up: {stats}"
    print("2 workers registered")

    # SIGKILL the first worker once it has served at least 2 shards.
    victim = workers[0]
    killed = threading.Event()

    def _assassin() -> None:
        while not killed.is_set():
            for snapshot in service_stats(server.address)["workers"]:
                if snapshot["pid"] == victim.pid and snapshot["shards_done"] >= 2:
                    os.kill(victim.pid, signal.SIGKILL)
                    killed.set()
                    print(f"SIGKILLed worker pid={victim.pid} mid-sweep")
                    return
            time.sleep(0.02)

    threading.Thread(target=_assassin, daemon=True).start()

    kwargs = dict(axes=GRID, backend="apmc", smc=SMC)
    serial = zoo_sweep("mimo-1xN", executor="serial", **kwargs)
    # The remote sweep banks its points, feeding /history + /dashboard.
    remote = zoo_sweep(
        "mimo-1xN", executor="remote", remote=server.address,
        shard_size=1, store=store, **kwargs,
    )
    assert killed.wait(timeout=30), "worker was never killed mid-sweep"
    assert victim.wait(timeout=10) == -signal.SIGKILL

    serial_values = [(r.value.estimate, r.value.samples) for r in serial]
    remote_values = [(r.value.estimate, r.value.samples) for r in remote]
    assert all(r.ok for r in remote), [r.error for r in remote if not r.ok]
    assert remote_values == serial_values, "remote sweep NOT bit-identical"
    print(f"remote sweep bit-identical to serial across {len(GRID['snr_db'])} points")

    status, health = _get(f"http://{front.address}/healthz")
    assert status == 200, health
    assert health["status"] == "degraded", health
    assert any(d["pid"] == victim.pid for d in health["dead"]), health
    print(f"healthz reports the dead worker: {health['dead'][0]['name']}")
    status, stats_body = _get(f"http://{front.address}/stats")
    assert status == 200 and stats_body["coordinator"]["workers_alive"] == 1

    # Serving path: miss -> 202 + poll -> banked -> warm 200 hit.
    banked_before = len(store)
    assert banked_before >= len(GRID["snr_db"]), (
        f"remote sweep banked only {banked_before} rows"
    )
    # Rows are shared: the sweep's banked point is a /guarantee hit.
    status, shared = _get(
        f"http://{front.address}/guarantee?family=mimo-1xN&snr_db=1.0"
        "&backend=apmc&epsilon=0.1&delta=0.1&seed=3"
    )
    assert status == 200 and shared["cached"], shared
    assert shared["value"]["estimate"] == remote[0].value.estimate, shared
    print("a remote sweep's banked point is a warm /guarantee hit")
    query = "family=birth-death&n=12"
    status, body = _get(f"http://{front.address}/guarantee?{query}")
    assert status == 202 and not body["cached"], body
    poll_url = f"http://{front.address}{body['poll']}"
    deadline = time.time() + 60.0
    while time.time() < deadline:
        status, job = _get(poll_url)
        if job["done"]:
            break
        time.sleep(0.1)
    assert job["done"] and job["results"][0]["ok"], job
    deadline = time.time() + 15.0
    while time.time() < deadline and len(store) == banked_before:
        time.sleep(0.1)  # banking runs on the job-done callback thread
    status, warm = _get(f"http://{front.address}/guarantee?{query}")
    assert status == 200 and warm["cached"], warm
    assert warm["value"] == job["results"][0]["value"], (warm, job)
    print("guarantee miss -> job -> banked -> warm hit OK")
    # ... and the row a /guarantee miss banked is a zoo.sweep hit.
    (reswept,) = zoo_sweep("birth-death", points=[{"n": 12}], store=store)
    assert reswept.cached and reswept.value == warm["value"], reswept
    print("a /guarantee miss's banked row is a cached zoo.sweep point")

    # History surfaces: the 30 banked sweep points are visible as a
    # trajectory (one salt so far) and on the dashboard.
    status, hist = _get(
        f"http://{front.address}/history?family=mimo-1xN&snr_db=1.0&backend=apmc"
    )
    assert status == 200 and hist["count"] >= 1, hist
    assert hist["family"] == "mimo-1xN", hist
    assert hist["points"][0]["metric"] == serial[0].value.estimate, hist
    print(f"GET /history serves {hist['count']} banked point(s)")

    page_req = urllib.request.urlopen(
        f"http://{front.address}/dashboard", timeout=30
    )
    page = page_req.read().decode("utf-8")
    assert page_req.status == 200, page_req.status
    assert page_req.headers["Content-Type"].startswith("text/html"), (
        page_req.headers["Content-Type"]
    )
    assert "mimo-1xN" in page and "<svg" in page, page[:400]
    print("GET /dashboard returns HTML naming the swept family")

    # Cross-version gate: seed two salts with a planted drift and let
    # the CLI judge them — it must report the drift and exit non-zero.
    for salt, value in (("smoke-a", 0.5), ("smoke-b", 0.75)):
        with ResultStore(store_path, salt=salt) as seeded:
            seeded.put(
                ("smoke", ("planted",)), "P=? [ F ok ]", value,
                backend="exact", family="smoke-planted",
            )
    diff = subprocess.run(
        [sys.executable, "-m", "repro.zoo", "history", "diff",
         "smoke-a", "smoke-b", "--store", store_path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert diff.returncode == 1, (diff.returncode, diff.stdout, diff.stderr)
    assert "DRIFT" in diff.stdout, diff.stdout
    print("repro-zoo history diff reports the planted drift and exits 1")

    # Graceful shutdown: SIGTERM deregisters and exits 0 (the Ctrl-C
    # path), unlike a coordinator-ordered die which is a hard exit.
    workers[1].send_signal(signal.SIGTERM)
    assert workers[1].wait(timeout=15) == 0, "surviving worker did not exit cleanly"
    front.stop()
    server.stop()
    store.close()
    print("clean shutdown, no orphaned workers")

    _coordinator_crash_phase(env)
    _push_phase(env)
    print("SERVICE SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
