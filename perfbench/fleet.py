"""The ``service`` workload: a ``repro-zoo serve`` fleet and one client.

``serve --port 0 --workers 1`` runs as a subprocess in its own process
group; its ephemeral ports are read from its stdout.  One closed-loop
client (stdlib HTTP, one connection at a time) repeats a fixed cycle:

1. a cold ``GET /guarantee`` miss on an unseen ``mimo-1xN`` point: a
   202, then polls of ``/jobs/<id>`` until done, with one warm
   ``GET /guarantee`` hit on a point banked before timing ahead of each
   poll (so warm hits are spread over the run, not timed in a burst);
2. a 100-point ``executor="remote"`` sweep of cheap ``birth-death``
   points;
3. the next request for the cold point, which must now be a warm hit.
   It waits until after the remote sweep because ``serve`` banks a
   finished job's value on a separate thread after ``/jobs/<id>``
   already reports it done, so a request made at once can still miss.

The fixed order keeps the single worker's idle-poll phase the same in
every cycle, so lease waits repeat.  The fleet is stopped like a Ctrl-C
in a terminal: SIGINT to the whole process group (``serve`` installs
no SIGTERM handler, so SIGTERM would orphan its worker).  A worker
still alive after teardown counts as a failure.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional
from urllib.parse import urlencode

import numpy as np

import repro.zoo
from repro.service.client import service_stats
from repro.store import ResultStore
from hostspeed import HostSpeed
from workloads import Tally, stratified

REMOTE_POINTS = 100
POLL_SECONDS = 0.01
LAUNCHES = 3


def get(port: int, path: str) -> tuple:
    """One GET on a fresh connection; returns ``(status, json body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def guarantee_path(point: Dict[str, Any]) -> str:
    return "/guarantee?" + urlencode({"family": "mimo-1xN", **point})


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


class Fleet:
    """One ``repro-zoo serve`` process group: front-end, coordinator and
    one local worker."""

    def __init__(self, root: str, work: str, tag: str, template: str) -> None:
        self.store = os.path.join(work, f"store-{tag}.sqlite")
        shutil.copyfile(template, self.store)
        self.journal = os.path.join(work, f"journal-{tag}.sqlite")
        self.log = os.path.join(work, f"serve-{tag}.log")
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.worker_pid: Optional[int] = None
        self.coordinator = ""
        self.port = 0

    def launch(self, probe: str, deadline: float = 60.0) -> float:
        """Start the fleet; seconds until the worker is registered and
        the warm ``probe`` request is answered."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.zoo", "serve", "--port", "0",
                 "--workers", "1", "--store", self.store,
                 "--journal", self.journal],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while not (self.coordinator and self.port):
            self._check_running(start, deadline)
            with open(self.log) as log:
                for line in log:
                    if line.startswith("coordinator listening on "):
                        self.coordinator = line.split()[-1]
                    elif line.startswith("http front-end on "):
                        self.port = int(line.split()[3].rsplit(":", 1)[1])
            time.sleep(0.005)
        while True:
            self._check_running(start, deadline)
            workers = service_stats(self.coordinator)["workers"]
            alive = [w for w in workers if w["alive"]]
            if alive:
                self.worker_pid = int(alive[0]["pid"])
                break
            time.sleep(0.005)
        status, _body = get(self.port, probe)
        if status != 200:
            raise RuntimeError(f"first warm hit answered {status}")
        return time.perf_counter() - start

    def _check_running(self, start: float, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"serve exited early; see {self.log}")
        if time.perf_counter() - start > deadline:
            raise RuntimeError(f"serve not ready after {deadline}s")

    def stop(self) -> int:
        """SIGINT the process group; returns the number of leaked
        worker processes (killed here so nothing outlives the run)."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        leaked = 0
        if self.worker_pid is not None:
            until = time.monotonic() + 5.0
            while _alive(self.worker_pid) and time.monotonic() < until:
                time.sleep(0.02)
            if _alive(self.worker_pid):
                leaked = 1
                os.kill(self.worker_pid, signal.SIGKILL)
                while _alive(self.worker_pid):
                    time.sleep(0.02)
        self.proc = None
        return leaked


class ServiceWorkload:
    """Inputs, references and the client loop of the ``service`` run."""

    def __init__(self, seed: int, root: str, work: str, seconds: float,
                 *, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 7])
        self.root, self.work = root, work
        banked_per_rx = 2 if smoke else 12
        # Enough unseen points for 1 s cycles (a cycle takes ~2 s on a
        # 2-vCPU VM), so a faster service does not run out of them.
        cold_count = 3 if smoke else 2 * int(seconds) + 4
        self.remote_points = [
            {"n": 16, "p_up": p_up, "p_down": 0.2}
            for p_up in stratified(rng, 0.2, 0.45, 10 if smoke else REMOTE_POINTS, 1e-4)
        ]
        # One SNR pool for num_rx=2, so no cold point was ever banked.
        snr_rx2 = stratified(rng, 2.0, 14.0, banked_per_rx + cold_count)
        self.banked = [
            {"num_rx": 1, "snr_db": snr}
            for snr in stratified(rng, 2.0, 14.0, banked_per_rx)
        ] + [{"num_rx": 2, "snr_db": snr} for snr in snr_rx2[:banked_per_rx]]
        # One size class for cold misses, so their p50 is one population.
        self.cold = [{"num_rx": 2, "snr_db": snr} for snr in snr_rx2[banked_per_rx:]]
        self.template = os.path.join(work, "banked.sqlite")
        self.cold_used = 0  # shared by every client: each point is cold once

    def prepare(self) -> None:
        """Bank the warm fixtures and compute serial references (untimed)."""
        store = ResultStore(self.template)
        try:
            banked = repro.zoo.sweep("mimo-1xN", points=self.banked,
                                     store=store, executor="serial")
        finally:
            store.close()
        self.banked_values = [r.value for r in banked]
        self.cold_refs = [
            r.value for r in repro.zoo.sweep("mimo-1xN", points=self.cold,
                                             executor="serial")
        ]
        self.remote_refs = [
            r.value for r in repro.zoo.sweep(
                "birth-death", points=self.remote_points, reduce=False,
                executor="serial")
        ]

    def setup(self, launches: int = LAUNCHES) -> tuple:
        """Launch the fleet ``launches`` times (keeping the last);
        returns ``(fleet, [setup seconds], leaked)``."""
        times, leaked = [], 0
        probe = guarantee_path(self.banked[0])
        for tag in range(launches):
            fleet = Fleet(self.root, self.work, str(tag), self.template)
            try:
                times.append(fleet.launch(probe))
            except BaseException:
                fleet.stop()
                raise
            if tag < launches - 1:
                leaked += fleet.stop()
        return fleet, times, leaked


class Client:
    """The closed-loop client; every latency it measures is kept.

    Warm hits are computation, so each is also kept scaled by the host
    speed factor measured at the start of its cycle; cold misses and
    remote sweeps are lease and poll waits, kept as measured."""

    def __init__(self, workload: ServiceWorkload, fleet: Fleet, tally: Tally,
                 host: HostSpeed, tracer: Any = None) -> None:
        self.w, self.fleet, self.tally, self.tracer = workload, fleet, tally, tracer
        self.host = host
        self._factor = 1.0
        self.warm_raw: List[float] = []
        self.warm_seconds: List[float] = []  # scaled to the reference speed
        self.cold_seconds: List[float] = []
        self.lease_wait: List[float] = []
        self.compute: List[float] = []
        self.polls: List[int] = []
        self.remote_rates: List[float] = []
        self.remote_overhead: List[float] = []
        self.cycle_walls: List[float] = []
        self.running_unseen = 0  # cold misses whose running state no poll saw
        self._next_warm = 0

    def _get(self, span: str, path: str) -> tuple:
        if self.tracer is None:
            return get(self.fleet.port, path)
        return self.tracer.span(span, get, self.fleet.port, path)

    def cycle(self) -> bool:
        """One fixed cycle; False once the cold points are used up."""
        if self.w.cold_used >= len(self.w.cold):
            return False
        self._factor = self.host.factor()
        start = time.perf_counter()
        index = self.w.cold_used
        self.w.cold_used += 1
        self._cold_miss(self.w.cold[index], self.w.cold_refs[index])
        self._remote_sweep()
        self._warm_hit(self.w.cold[index], self.w.cold_refs[index], "cold_then_warm")
        self.cycle_walls.append(time.perf_counter() - start)
        return True

    def _next_banked_hit(self) -> None:
        i = self._next_warm % len(self.w.banked)
        self._next_warm += 1
        self._warm_hit(self.w.banked[i], self.w.banked_values[i], "warm_hit")

    def _warm_hit(self, point, ref, check: str) -> None:
        start = time.perf_counter()
        status, body = self._get("http.warm", guarantee_path(point))
        elapsed = time.perf_counter() - start
        ok = status == 200 and body.get("cached") and body.get("value") == ref
        self.tally.record(check, bool(ok), wrong=status == 200)
        if check == "warm_hit" and status == 200:
            self.warm_raw.append(elapsed)
            self.warm_seconds.append(elapsed / self._factor)

    def _cold_miss(self, point, ref) -> None:
        start = time.perf_counter()
        status, body = self._get("http.miss", guarantee_path(point))
        accepted = time.perf_counter()
        if status != 202:  # a hit would mean the point was not unseen
            self.tally.record("cold_vs_serial", False, wrong=status == 200)
            return
        running = None
        polls = 0
        while True:
            due = time.perf_counter() + POLL_SECONDS
            self._next_banked_hit()
            time.sleep(max(0.0, due - time.perf_counter()))
            status, job = self._get("http.poll", body["poll"])
            polls += 1
            now = time.perf_counter()
            if status != 200 or job.get("done"):
                break
            if job.get("status") == "running" and running is None:
                running = now
            if now - start > 120.0:
                break
        done = time.perf_counter()
        finished = status == 200 and bool(job.get("done"))
        first = (job.get("results") or [{}])[0] if finished else {}
        ok = finished and first.get("ok") and first.get("value") == ref
        self.tally.record("cold_vs_serial", bool(ok), wrong=finished)
        if not ok:
            return
        self.cold_seconds.append(done - start)
        self.polls.append(polls)
        if running is None:  # the point ran between two polls
            self.running_unseen += 1
            return
        self.lease_wait.append(running - accepted)
        self.compute.append(done - running)

    def _remote_sweep(self) -> None:
        start = time.perf_counter()
        results = repro.zoo.sweep(
            "birth-death", points=self.w.remote_points, reduce=False,
            executor="remote", remote=self.fleet.coordinator,
        )
        wall = time.perf_counter() - start
        for result, ref in zip(results, self.w.remote_refs):
            self.tally.record("remote_vs_serial", result.ok and result.value == ref,
                              wrong=result.ok)
        if all(r.ok for r in results):
            self.remote_rates.append(len(results) / wall)
            self.remote_overhead.append(wall - sum(r.seconds for r in results))

    def probe_store(self) -> List[float]:
        """Seconds per ``ResultStore.get`` on the service's banked rows,
        read from the store file the running ``serve`` uses."""
        store = ResultStore(self.fleet.store)
        seconds = []
        try:
            for row in store.query(family="mimo-1xN"):
                start = time.perf_counter()
                hit = store.get(row.scenario, row.formula, row.backend, row.config)
                seconds.append(time.perf_counter() - start)
                self.tally.record("store_probe", hit is not None and hit.value == row.value,
                                  wrong=hit is not None)
        finally:
            store.close()
        return seconds
