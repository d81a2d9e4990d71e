"""The repository benchmark: end-to-end metrics, or per-layer metrics
from a traced run, for one workload.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see ``BENCHMARK.json`` for why each exists): ``sweep-small``,
``solve-large`` and ``sweep-smc`` (:mod:`workloads`) and ``service``
(:mod:`fleet`).  The seed picks parameter values only; sizes are fixed.
Every output is checked against an oracle computed before timing.

End-to-end metrics (``--trace 0``), printed for every workload:

``setup_s``
    Launch to ready, median of several launches.  Sweeps: a fresh
    interpreter's import plus one warm-up point.  ``service``: ``serve``
    launch until its worker is registered and a first warm hit answers.
``points_per_s``
    Grid points completed / sweep wall time.  Sweeps: the wall of a pass
    assembled from each sweep call's median over passes.  ``service``:
    the median over its 100-point remote sweeps.
``cold_miss_ms_p50``
    Answering one point not seen before.  Sweeps: the median over the
    grid's points of each point's median seconds over the passes (every
    point a store miss).  ``service``: first ``GET /guarantee`` until
    ``/jobs/<id>`` reports done.
``warm_hit_ms_p50``
    Answering one banked point.  Sweeps: the whole grid run again
    against the pass's banked store (a ``--store`` resume), per point.
    ``service``: ``GET /guarantee`` round trip.  The p90 is printed
    beside it with its sample count.
``peak_rss_mb``
    Highest peak RSS of the benchmark process and every process it
    started (pool workers, set-up probes, ``serve`` and its worker).

Timings that computation dominates (every sweep timing, and the
service's warm hits) are scaled to a reference host speed, measured
by a fixed kernel just before each unit of work (:mod:`hostspeed`);
the unscaled figures are printed beside them.

Failures (errors, 429/503 refusals, wrong values, leaked workers) are
counted against operations attempted in the result's ``failed`` and
``attempted`` fields rather than as a metric, since the healthy value
is 0; the report prints them per oracle check.

``--trace 1`` runs untraced passes for half the time and traced passes
(:mod:`layers` wraps each layer's entry points) for the other half, and
prints the per-layer metrics instead.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sweep-small", "solve-large", "sweep-smc", "service")
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "cold_miss_ms_p50": "ms",
    "warm_hit_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def timed_loop(seconds: float, step) -> list:
    """Run ``step()`` until ``seconds`` have passed (at least once)."""
    out = []
    start = time.perf_counter()
    while True:
        item = step()
        if item is None:
            break
        out.append(item)
        if time.perf_counter() - start >= seconds:
            break
    return out


def probe_setup(name: str, seed: int, work: str, tag: int) -> float:
    store = os.path.join(work, f"probe-{tag}.sqlite")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), store],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line != "ready":
        raise RuntimeError(f"set-up probe of {name} failed: {line!r}")
    return elapsed


def run_sweeps(name, seed, seconds, trace, work, *, smoke=False):
    import workloads
    from hostspeed import HostSpeed
    from layers import install, layer_metrics, self_time_ranking
    from spans import Tracer

    jobs = workloads.JOBS[name](seed, smoke=smoke)
    tally = workloads.Tally()
    setup = [probe_setup(name, seed, work, tag)
             for tag in range(1 if smoke else SETUP_PROBES)]
    workloads.compute_refs(name, jobs)
    store = os.path.join(work, "pass.sqlite")
    workloads.warm_up(jobs, store)
    lines = [f"{name} seed {seed}: {sum(len(j.points) for j in jobs)} points per pass"]

    host = HostSpeed()

    def step():
        return workloads.run_pass(jobs, store, tally, host)

    if not trace:
        passes = timed_loop(seconds, step)
        warm = [s for p in passes for s in p.warm_seconds]
        points = passes[0].points
        metrics = {
            "setup_s": statistics.median(setup),
            "points_per_s": points / workloads.median_pass_wall(passes),
            "cold_miss_ms_p50": workloads.median_point_seconds(passes) * 1e3,
            "warm_hit_ms_p50": statistics.median(warm) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        lines += [
            f"{len(passes)} passes; samples: setup {len(setup)},"
            f" cold {points} points x {len(passes)} passes, warm {len(warm)} resumes;"
            f" warm_hit_ms_p90 = {workloads.percentile(warm, 90) * 1e3:.4g} ms",
            f"{host.summary()}; as measured, points_per_s ="
            f" {points / workloads.median_pass_wall(passes, raw=True):.4g}",
        ]
        return tally, metrics, lines

    untraced = timed_loop(seconds / 2, step)
    with Tracer() as tracer:
        install(tracer)
        traced = timed_loop(seconds / 2, step)
    pool_wall = sum(p.pool_wall for p in traced)
    extra = {
        "pool_busy_ratio": (
            sum(p.pool_busy for p in traced) / (workloads.POOL_WORKERS * pool_wall)
            if pool_wall else 0.0
        ),
        "overhead_ratio": (
            workloads.median_pass_wall(traced) / workloads.median_pass_wall(untraced)
        ),
    }
    metrics = layer_metrics(tracer.spans, len(traced), extra)
    lines.append(f"{len(untraced)} untraced and {len(traced)} traced passes,"
                 f" {len(tracer.spans)} spans")
    lines += [f"  self time {seconds_:.4f} s/pass  {span}"
              for seconds_, span in self_time_ranking(tracer.spans, len(traced))]
    return tally, metrics, lines


def run_service(name, seed, seconds, trace, work, *, smoke=False):
    import fleet as fleet_mod
    from hostspeed import HostSpeed
    from layers import install, layer_metrics, self_time_ranking
    from spans import Tracer
    from workloads import Tally, median_or_zero, percentile

    workload = fleet_mod.ServiceWorkload(seed, ROOT, work, seconds, smoke=smoke)
    workload.prepare()
    tally = Tally()
    fleet, setup, leaked = workload.setup(1 if smoke else fleet_mod.LAUNCHES)
    lines = [f"service seed {seed}: serve --workers 1, {len(workload.remote_points)}"
             "-point remote sweeps, one warm hit per cold-miss poll"]
    host = HostSpeed()
    try:
        fleet_mod.Client(workload, fleet, tally, host).cycle()  # untimed warm-up
        if not trace:
            client = fleet_mod.Client(workload, fleet, tally, host)
            timed_loop(seconds, lambda: client.cycle() or None)
        else:
            untraced = fleet_mod.Client(workload, fleet, tally, host)
            timed_loop(seconds / 2, lambda: untraced.cycle() or None)
            with Tracer() as tracer:
                install(tracer)
                client = fleet_mod.Client(workload, fleet, tally, host, tracer)
                timed_loop(seconds / 2, lambda: client.cycle() or None)
            store_get = client.probe_store()
    finally:
        leaked += fleet.stop()
    tally.leaked(leaked)
    lines.append(f"{len(client.cycle_walls)} cycles; samples: setup {len(setup)},"
                 f" cold {len(client.cold_seconds)}, warm {len(client.warm_seconds)},"
                 f" remote sweeps {len(client.remote_rates)}; leaked workers {leaked};"
                 f" {client.running_unseen} cold misses ran between two polls"
                 f" (left out of lease wait and compute)")
    median = median_or_zero
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "points_per_s": median(client.remote_rates),
            "cold_miss_ms_p50": median(client.cold_seconds) * 1e3,
            "warm_hit_ms_p50": median(client.warm_seconds) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        lines += [
            f"warm_hit_ms_p90 = {percentile(client.warm_seconds, 90) * 1e3:.4g} ms",
            f"{host.summary()}; as measured, warm_hit_ms_p50 ="
            f" {median(client.warm_raw) * 1e3:.4g}",
        ]
        return tally, metrics, lines
    cycles = len(client.cycle_walls)
    extra = {
        "polls_per_miss": sum(client.polls) / max(1, len(client.polls)),
        "lease_wait_ms_p50": median(client.lease_wait) * 1e3,
        "compute_ms_p50": median(client.compute) * 1e3,
        "remote_overhead_s": sum(client.remote_overhead) / max(1, len(client.remote_overhead)),
        "remote_sweeps": len(client.remote_rates),
        "overhead_ratio": (
            median(client.cycle_walls) / median(untraced.cycle_walls)
            if untraced.cycle_walls else 0.0
        ),
        "store_get_ms_p50": median(store_get) * 1e3,
    }
    metrics = layer_metrics(tracer.spans, cycles, extra)
    lines.append(f"traced cold_miss_ms_p50 = {median(client.cold_seconds) * 1e3:.2f} ms")
    lines += [f"  self time {seconds_:.4f} s/cycle  {span}"
              for seconds_, span in self_time_ranking(tracer.spans, cycles)]
    return tally, metrics, lines


def run(name, seed, seconds, trace, work, *, smoke=False):
    runner = run_service if name == "service" else run_sweeps
    return runner(name, seed, seconds, trace, work, smoke=smoke)


def report(tally, metrics, units, lines) -> dict:
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    checks = " ".join(
        f"{k}={v}" + (f" (failed {tally.misses[k]})" if k in tally.misses else "")
        for k, v in sorted(tally.checks.items())
    )
    print(f"oracle checks run: {checks}")
    print(f"failed_ratio = {tally.failed / max(1, tally.attempted):.6g}"
          f" ({tally.failed} of {tally.attempted} operations;"
          f" {tally.wrong} wrong values)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def smoke(work: str) -> int:
    """Every workload at toy size through the same code paths, traced
    and untraced, plus the self-time arithmetic check."""
    from layers import EXPECTED_SPANS, PER_LAYER
    from spans import check_self_time_arithmetic

    check_self_time_arithmetic()
    print("trace self-check: ok")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bad = [
        f"BENCHMARK.json {key} != metrics printed"
        for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER))
        if {m["name"]: m["unit"] for m in declared[key]} != units
    ]
    for name in WORKLOADS:
        for trace in (0, 1):
            tally, metrics, lines = run(name, 1, 0.0, trace, work, smoke=True)
            units = PER_LAYER if trace else END_TO_END
            result = report(tally, metrics, units, lines)
            if not result["correct"] or set(metrics) != set(units):
                bad.append(f"{name} trace={trace}")
            if trace:
                bad += [f"{name}: no spans behind {metric}"
                        for metric in EXPECTED_SPANS[name] if not metrics[metric] > 0]
    print("smoke:", "FAILED " + ", ".join(bad) if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size, then exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # A parent that ignores SIGINT (a background job of a non-interactive
    # shell) passes that on through exec, and ``serve`` could then not be
    # stopped like a Ctrl-C.  A handler here is reset to the default in
    # every child instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    try:
        if args.smoke:
            return smoke(work)
        from layers import PER_LAYER

        tally, metrics, lines = run(args.workload, args.seed, args.seconds,
                                    args.trace, work)
        result = report(tally, metrics, PER_LAYER if args.trace else END_TO_END, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
