"""Which entry points the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers are named after modules.  Every name is wrapped where its
caller looks it up: ``zoo.sweep._build_point`` calls the ``build`` bound
in ``repro.zoo.sweep``, ``zoo.pipeline`` binds ``lump`` at import,
``engine.sweep`` binds ``validate_guarantee`` at import and imports
``repro.pctl.check`` / ``repro.smc.smc_*`` from their packages per call.

Per-layer figures are per traced pass (counts and seconds summed over
the traced passes, divided by their number); ``*_p50`` figures are
medians over every recorded span or sample.  Seconds are as measured,
not scaled to the reference host speed.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from typing import Dict, Iterable, List

import repro.pctl
import repro.service.client
import repro.smc
import repro.zoo
from repro.dtmc.chain import DTMC
from repro.engine.core import Engine
from repro.store.result_store import ResultStore
from spans import Span, Tracer, self_times

#: Every per-layer metric, in the order printed (BENCHMARK.json lists
#: the same names).
PER_LAYER = {
    "zoo.build.calls": "count",
    "zoo.build.self_s": "s",
    "zoo.sweep.self_s": "s",
    "reductions.lump.calls": "count",
    "reductions.lump.s": "s",
    "reductions.lump.useful_ratio": "ratio",
    "reductions.lump.state_ratio": "ratio",
    "pctl.check.calls": "count",
    "pctl.check.self_s": "s",
    "engine.solve.calls": "count",
    "engine.solve.s": "s",
    "engine.prob01.s": "s",
    "engine.bsccs.s": "s",
    "engine.long_run.self_s": "s",
    "dtmc.restricted_to.s": "s",
    "fanout.pool_busy_ratio": "ratio",
    "smc.calls": "count",
    "smc.s": "s",
    "smc.samples": "count",
    "smc.samples_per_s": "samples/s",
    "resilience.validate.calls": "count",
    "resilience.validate.s": "s",
    "store.put.calls": "count",
    "store.put.s": "s",
    "store.get_many.calls": "count",
    "store.get_many.s": "s",
    "store.get_ms_p50": "ms",
    "service.http_miss_ms_p50": "ms",
    "service.http_poll_ms_p50": "ms",
    "service.polls_per_miss": "count",
    "service.lease_wait_ms_p50": "ms",
    "service.compute_ms_p50": "ms",
    "service.rpc_ms_p50": "ms",
    "service.rpc.submit_ms_p50": "ms",
    "service.rpc.collect_ms_p50": "ms",
    "service.collects_per_sweep": "count",
    "service.remote_overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def _lump_counts(args, kwargs, result) -> Dict[str, int]:
    return {"states_in": args[0].num_states, "states_out": result.chain.num_states}


def _samples(args, kwargs, result) -> Dict[str, int]:
    return {"samples": result.samples}


def _message_type(args, kwargs, result) -> Dict[str, str]:
    message = args[1] if len(args) > 1 else kwargs.get("message", {})
    return {"type": str(message.get("type"))}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (undone when the tracer exits);
    raises ``AttributeError`` if one is gone."""
    zoo_sweep = sys.modules["repro.zoo.sweep"]
    engine_sweep = sys.modules["repro.engine.sweep"]
    pipeline = sys.modules["repro.zoo.pipeline"]
    wrap = tracer.wrap
    wrap(repro.zoo, "sweep", "zoo.sweep")
    wrap(zoo_sweep, "build", "zoo.build")
    wrap(pipeline, "lump", "reductions.lump", count=_lump_counts)
    wrap(repro.pctl, "check", "pctl.check")
    wrap(Engine, "solve_subsystem", "engine.solve")
    wrap(Engine, "prob01", "engine.prob01")
    wrap(Engine, "bottom_sccs", "engine.bsccs")
    wrap(Engine, "long_run_distribution", "engine.long_run")
    wrap(DTMC, "restricted_to", "dtmc.restricted_to")
    wrap(repro.smc, "smc_estimate", "smc", count=_samples)
    wrap(repro.smc, "smc_decide", "smc", count=_samples)
    wrap(engine_sweep, "validate_guarantee", "resilience.validate")
    wrap(ResultStore, "get", "store.get")
    wrap(ResultStore, "get_many", "store.get_many")
    wrap(ResultStore, "put", "store.put")
    wrap(repro.service.client, "call_with_retry", "service.rpc", count=_message_type)
    # The sweep fabric's per-point runner opens one op id per point, and
    # its pool shard runner carries the worker's spans home.  Both are
    # private: a refactor that renames them makes this raise, and one
    # that bypasses them leaves pool-worker spans out of the trace,
    # which the smoke run's span check catches.
    wrap(engine_sweep, "_check_point", "", new_op=True)
    tracer.ship_from_workers(engine_sweep, "_run_shard")


#: Per traced workload, the layers whose spans must be in the trace
#: (sweep-small's come from pool workers); checked by the smoke run.
EXPECTED_SPANS = {
    "sweep-small": ("zoo.build.calls", "reductions.lump.calls", "pctl.check.calls",
                    "store.put.calls"),
    "solve-large": ("engine.solve.calls", "dtmc.restricted_to.s", "engine.long_run.self_s"),
    "sweep-smc": ("smc.calls", "smc.samples"),
    "service": ("service.rpc_ms_p50", "service.http_miss_ms_p50",
                "service.http_poll_ms_p50"),
}


def _ms_p50(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(spans: List[Span], passes: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a traced run's spans.  ``extra`` carries
    figures measured by the workload itself (pool busy time, lease
    waits, the overhead ratio); absent layers read 0."""
    passes = max(1, passes)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name[name]) / passes

    def total(name):
        return sum(s.end - s.start for s in by_name[name]) / passes

    def self_s(name):
        return sum(selfs[s.sid] for s in by_name[name]) / passes

    lumps = [s.counts for s in by_name["reductions.lump"] if s.counts]
    states_in = sum(c["states_in"] for c in lumps)
    smc_samples = sum(s.counts["samples"] for s in by_name["smc"] if s.counts)
    smc_seconds = sum(s.end - s.start for s in by_name["smc"])
    rpc = by_name["service.rpc"]

    def rpc_p50(kind=None):
        return _ms_p50(
            s.end - s.start for s in rpc
            if kind is None or (s.counts or {}).get("type") == kind
        )

    sweeps = by_name["zoo.sweep"]
    sweep_wall = sum(s.end - s.start for s in sweeps)
    collects = sum(1 for s in rpc if (s.counts or {}).get("type") == "collect")
    remote_sweeps = extra.get("remote_sweeps", 0)
    metrics = {
        "zoo.build.calls": calls("zoo.build"),
        "zoo.build.self_s": self_s("zoo.build"),
        "zoo.sweep.self_s": self_s("zoo.sweep"),
        "reductions.lump.calls": calls("reductions.lump"),
        "reductions.lump.s": total("reductions.lump"),
        "reductions.lump.useful_ratio": (
            sum(c["states_out"] < c["states_in"] for c in lumps) / len(lumps)
            if lumps else 0.0
        ),
        "reductions.lump.state_ratio": (
            sum(c["states_out"] for c in lumps) / states_in if states_in else 0.0
        ),
        "pctl.check.calls": calls("pctl.check"),
        "pctl.check.self_s": self_s("pctl.check"),
        "engine.solve.calls": calls("engine.solve"),
        "engine.solve.s": total("engine.solve"),
        "engine.prob01.s": total("engine.prob01"),
        "engine.bsccs.s": total("engine.bsccs"),
        "engine.long_run.self_s": self_s("engine.long_run"),
        "dtmc.restricted_to.s": total("dtmc.restricted_to"),
        "fanout.pool_busy_ratio": extra.get("pool_busy_ratio", 0.0),
        "smc.calls": calls("smc"),
        "smc.s": smc_seconds / passes,
        "smc.samples": smc_samples / passes,
        "smc.samples_per_s": smc_samples / smc_seconds if smc_seconds else 0.0,
        "resilience.validate.calls": calls("resilience.validate"),
        "resilience.validate.s": total("resilience.validate"),
        "store.put.calls": calls("store.put"),
        "store.put.s": total("store.put"),
        "store.get_many.calls": calls("store.get_many"),
        "store.get_many.s": total("store.get_many"),
        "store.get_ms_p50": extra.get("store_get_ms_p50", 0.0),
        "service.http_miss_ms_p50": _ms_p50(s.end - s.start for s in by_name["http.miss"]),
        "service.http_poll_ms_p50": _ms_p50(s.end - s.start for s in by_name["http.poll"]),
        "service.polls_per_miss": extra.get("polls_per_miss", 0.0),
        "service.lease_wait_ms_p50": extra.get("lease_wait_ms_p50", 0.0),
        "service.compute_ms_p50": extra.get("compute_ms_p50", 0.0),
        "service.rpc_ms_p50": rpc_p50(),
        "service.rpc.submit_ms_p50": rpc_p50("submit"),
        "service.rpc.collect_ms_p50": rpc_p50("collect"),
        "service.collects_per_sweep": collects / remote_sweeps if remote_sweeps else 0.0,
        "service.remote_overhead_s": extra.get("remote_overhead_s", 0.0),
        "trace.overhead_ratio": extra.get("overhead_ratio", 0.0),
        "trace.coverage_ratio": (
            1.0 - sum(selfs[s.sid] for s in sweeps) / sweep_wall if sweep_wall else 0.0
        ),
    }
    return metrics


def self_time_ranking(spans: List[Span], passes: int) -> List[tuple]:
    """(self seconds per pass, span name), largest first, for the
    human-readable report."""
    selfs = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span.name] += selfs[span.sid]
    return sorted(((v / max(1, passes), k) for k, v in by_name.items()), reverse=True)
