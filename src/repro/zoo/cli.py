"""Command-line interface: ``python -m repro.zoo`` / ``repro-zoo``.

Subcommands::

    repro-zoo list [--tag mimo]
    repro-zoo build mimo-1xN -p num_rx=2 -p snr_db=6.0 --verify
    repro-zoo sweep mimo-1xN -g snr_db=4,6,8 --backend apmc
    repro-zoo sweep mimo-1xN -g snr_db=4,6,8 --store results.sqlite
    repro-zoo sweep mimo-1xN -g snr_db=4,6,8 --retries 2 --point-timeout 60
    repro-zoo sweep mimo-1xN -g snr_db=4,6,8 --store results.sqlite --resume
    repro-zoo survey --backend exact [--store results.sqlite]
    repro-zoo store stats --store results.sqlite
    repro-zoo store query --store results.sqlite --family mimo-1xN
    repro-zoo store clear --store results.sqlite [--family ...]
    repro-zoo history list --store results.sqlite
    repro-zoo history show mimo-1xN --store results.sqlite
    repro-zoo history diff SALT_A SALT_B --store results.sqlite
    repro-zoo serve --port 8080 --store results.sqlite --workers 2
    repro-zoo serve --port 8080 --journal journal.sqlite --store results.sqlite
    repro-zoo worker --connect HOST:9100 --reconnect-attempts 20
    repro-zoo sweep mimo-1xN -g snr_db=4,6,8 --executor remote --connect HOST:9100

``-p/--param`` sets one scenario parameter (``key=value``, value parsed
as a Python literal when possible); ``-g/--grid`` names one sweep axis
(``key=v1,v2,...``).  ``--store PATH`` read-through caches sweep and
survey results in a persistent sqlite guarantee store — warm repeats
are reported as cache hits; the ``store`` subcommands inspect and
maintain such a file.

``--retries``/``--backoff``/``--point-timeout`` arm the fault-tolerant
fabric (:mod:`repro.resilience`): transient point failures are retried
with exponential backoff and hung points are killed at the deadline,
both quarantined into the result table instead of sinking the sweep.
``--resume`` re-runs an interrupted sweep against its ``--store``
checkpoint, recomputing only the missing points; the sweep report
printed after every run shows the cached/recomputed split.

``history`` reads the survey-history axis of a store (see
:mod:`repro.history`): ``list`` shows every salt (code version) that
ever banked into the file, ``show`` prints a family's guarantee
trajectories across those versions with drift/regression verdicts,
and ``diff`` classifies two salts' rows as unchanged / drifted /
appeared / vanished — exiting non-zero when anything drifted beyond
the tolerance, so CI can gate on it.

``serve`` runs the networked guarantee service (coordinator + HTTP
front-end + optional local workers); ``worker`` joins a running
coordinator from any host; ``--executor remote --connect HOST:PORT``
runs a sweep on that fleet instead of local pools.  A Ctrl-C during
any sweep shuts the executor down cleanly (no orphaned workers), banks
finished points to ``--store``, and exits 130 with a resume hint.

``serve --journal PATH`` makes the coordinator durable: jobs and
merged results persist to a sqlite journal, and a restarted ``serve``
pointed at the same journal replays open jobs and resumes in-flight
sweeps.  Workers ride through the restart (``--reconnect-attempts``
bounds their backoff loop), and the front-end degrades instead of
failing while the coordinator is down: warm ``--store`` hits keep
serving, misses get 503 + ``Retry-After`` once the circuit breaker
(``--breaker-threshold`` / ``--breaker-cooldown``) opens, and the
``--max-inflight`` bound sheds excess misses with 429.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import os
import sys
from typing import Any, Dict, Iterable, List, Optional

from ..engine import EXECUTORS, SmcConfig, SweepInterrupted
from ..experiments.report import format_table
from ..pctl import PctlSyntaxError
from ..resilience import RetryPolicy, SweepReport
from . import pipeline, registry
from .sweep import survey as _survey
from .sweep import sweep as _sweep

__all__ = ["main"]


def _literal(text: str) -> Any:
    """Parse a CLI value: Python literal when possible, else string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(pairs: Optional[Iterable[str]]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key.strip()] = _literal(value.strip())
    return params


def _parse_axes(pairs: Optional[Iterable[str]]) -> Dict[str, List[Any]]:
    axes: Dict[str, List[Any]] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"expected key=v1,v2,..., got {pair!r}")
        key, _, values = pair.partition("=")
        axes[key.strip()] = [_literal(v.strip()) for v in values.split(",") if v.strip()]
    return axes


def _render_value(value: Any) -> str:
    """Compact rendering of exact / APMC / SPRT sweep values."""
    if hasattr(value, "estimate"):  # ApmcResult
        return f"{value.estimate:.6g} ±{value.epsilon} ({value.samples} samples)"
    if hasattr(value, "accept"):  # SprtResult
        verdict = ">=" if value.accept else "<"
        return f"P {verdict} {value.theta} ({value.samples} samples)"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_list(args: argparse.Namespace) -> int:
    families = registry.list_models(tag=args.tag)
    if not families:
        print("no families registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    rows = [
        [
            fam.name,
            ",".join(fam.tags),
            fam.default_property,
            " ".join(f"{k}={v}" for k, v in sorted(fam.defaults.items())),
        ]
        for fam in families
    ]
    print(format_table(["family", "tags", "default property", "defaults"], rows))
    print(f"{len(families)} families registered")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    scenario = pipeline.build(
        args.family,
        _parse_params(args.param),
        reduce=not args.no_reduce,
        verify=args.verify,
        keep_full=args.keep_full,
    )
    print(scenario.describe())
    if args.check:
        from ..pctl import check

        formula = (
            args.formula
            or scenario.default_property
            or registry.get_model(args.family).default_property
        )
        value = check(scenario.chain, formula).value
        print(f"{formula}  =  {_render_value(float(value))}")
    return 0


@contextlib.contextmanager
def _open_store(args: argparse.Namespace):
    """The ``--store`` named on the command line (``None`` without
    one), closed on exit so its buffered hit counts are written."""
    if getattr(args, "store", None) is None:
        yield None
        return
    from ..store import ResultStore

    with ResultStore(args.store) as store:
        yield store


def _parse_policies(args: argparse.Namespace):
    """Build (retry, deadline) policies from the resilience flags."""
    retry = None
    if getattr(args, "retries", 0):
        retry = RetryPolicy(
            max_attempts=args.retries + 1, backoff=args.backoff
        )
    return retry, getattr(args, "point_timeout", None)


def _missing_coordinator(args: argparse.Namespace) -> bool:
    """True (after printing the error) when ``--executor remote`` has
    no coordinator address to connect to."""
    missing = args.executor == "remote" and not (
        args.connect or os.environ.get("REPRO_COORDINATOR")
    )
    if missing:
        print(
            "error: --executor remote requires --connect HOST:PORT"
            " (or $REPRO_COORDINATOR)",
            file=sys.stderr,
        )
    return missing


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.backend == "sprt" and args.theta is None:
        print("error: --backend sprt requires --theta", file=sys.stderr)
        return 2
    if args.resume and args.store is None:
        print("error: --resume requires --store PATH", file=sys.stderr)
        return 2
    if _missing_coordinator(args):
        return 2
    axes = _parse_axes(args.grid)
    smc = SmcConfig(
        epsilon=args.epsilon, delta=args.delta, seed=args.seed
    )
    retry, deadline = _parse_policies(args)
    with _open_store(args) as store:
        results = _sweep(
            args.family,
            axes=axes or None,
            points=[{}] if not axes else None,
            formula=args.formula,
            base_params=_parse_params(args.param),
            backend=args.backend,
            theta=args.theta,
            smc=smc,
            executor=args.executor,
            shard_size=args.shard_size,
            remote=args.connect,
            store=store,
            retry=retry,
            deadline=deadline,
        )
    rows = []
    failures = 0
    hits = 0
    for result in results:
        point = " ".join(f"{k}={v}" for k, v in sorted(result.point.items())) or "<defaults>"
        hits += result.cached
        if result.ok:
            rendered = _render_value(result.value)
            if result.warnings:
                rendered += f"  !! {len(result.warnings)} warning(s)"
            rows.append([point, rendered, f"{result.seconds:.3f}"])
        else:
            failures += 1
            rows.append([point, f"ERROR {result.error}", f"{result.seconds:.3f}"])
    print(format_table(["point", "value", "seconds"], rows))
    store_note = f", {hits} cache hits" if store is not None else ""
    print(
        f"{len(results)} points, {failures} failed{store_note}"
        f" (backend={args.backend}, formula="
        f"{args.formula or registry.get_model(args.family).default_property!r})"
    )
    print(SweepReport.from_results(results).describe())
    return 1 if failures else 0


def _cmd_survey(args: argparse.Namespace) -> int:
    if _missing_coordinator(args):
        return 2
    retry, deadline = _parse_policies(args)
    with _open_store(args) as store:
        results = _survey(
            tag=args.tag, backend=args.backend, executor=args.executor,
            remote=args.connect, store=store, retry=retry, deadline=deadline,
        )
    rows = []
    failures = 0
    hits = 0
    for name, result in sorted(results.items()):
        hits += result.cached
        if result.ok:
            rows.append([name, _render_value(result.value), f"{result.seconds:.3f}"])
        else:
            failures += 1
            rows.append([name, f"ERROR {result.error}", f"{result.seconds:.3f}"])
    print(format_table(["family", "default property value", "seconds"], rows))
    store_note = f", {hits} cache hits" if store is not None else ""
    print(
        f"{len(results)} families, {failures} failed{store_note}"
        f" (backend={args.backend})"
    )
    return 1 if failures else 0


def _cmd_store(args: argparse.Namespace) -> int:
    from ..store import ResultStore

    with ResultStore(args.store) as store:
        return _store_command(args, store)


def _store_command(args: argparse.Namespace, store: Any) -> int:
    if args.store_command == "stats":
        print(store.stats().describe())
        return 0
    if args.store_command == "query":
        rows = []
        for row in store.query(
            family=args.family, backend=args.backend,
            formula=args.formula, limit=args.limit,
        ):
            rows.append([
                row.family or "-",
                row.formula,
                row.backend,
                _render_value(row.value),
                f"{row.seconds:.3f}",
                str(row.hits),
            ])
        print(format_table(
            ["family", "formula", "backend", "value", "seconds", "hits"], rows
        ))
        print(f"{len(rows)} rows (of {len(store)} stored)")
        return 0
    # clear
    removed = store.invalidate(
        family=args.family, backend=args.backend, formula=args.formula
    )
    print(f"invalidated {removed} cached result(s) in {args.store}")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from ..store import ResultStore

    with ResultStore(args.store) as store:
        return _history_command(args, store)


def _history_command(args: argparse.Namespace, store: Any) -> int:
    if args.history_command == "list":
        stats = store.stats()
        if not stats.salts:
            print(f"no banked results in {args.store}")
            return 0
        rows = [[salt or "''", str(count)] for salt, count in stats.salts.items()]
        print(format_table(["salt (code version)", "rows"], rows))
        print(
            f"{len(stats.salts)} version(s), {stats.entries} row(s) total,"
            f" schema v{stats.schema_version}"
        )
        return 0
    if args.history_command == "show":
        from ..history import trend_report

        report = trend_report(
            store, args.family, formula=args.formula,
            backend=args.backend, tolerance=args.tolerance,
        )
        if not report.series:
            print(f"no banked results for family {args.family!r} in {args.store}")
            return 1
        print(report.describe())
        return 0
    # diff
    diff = store.compare(
        args.salt_a, args.salt_b,
        tolerance=args.tolerance, family=args.family,
    )
    print(diff.describe())
    return 1 if diff.has_drift else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from ..service import run_worker
    from ..service.worker import DEFAULT_RECONNECT

    reconnect = None
    if args.reconnect_attempts > 0:
        reconnect = dataclasses.replace(
            DEFAULT_RECONNECT, max_attempts=args.reconnect_attempts
        )
    print(f"worker joining coordinator at {args.connect}", flush=True)
    return run_worker(
        args.connect,
        name=args.name,
        poll=args.poll,
        max_shards=args.max_shards,
        reconnect=reconnect,
    )


def _spawn_local_workers(address: str, count: int) -> List[Any]:
    """Worker subprocesses for ``serve --workers N`` (same interpreter,
    ``src`` on the path even when the package is not installed)."""
    import subprocess

    env = dict(os.environ)
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.zoo", "worker", "--connect", address],
            env=env,
        )
        for _ in range(count)
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        return _serve(args, store)


def _serve(args: argparse.Namespace, store: Any) -> int:
    import signal
    import time

    from ..resilience import CircuitBreaker
    from ..service import CoordinatorServer, Frontend, FrontendServer

    server = CoordinatorServer(
        host=args.host, port=args.coordinator_port,
        heartbeat=args.heartbeat,
        journal=args.journal,
    ).start()
    workers = _spawn_local_workers(server.address, args.workers)
    front = FrontendServer(
        Frontend(
            server.coordinator,
            store=store,
            breaker=CircuitBreaker(
                failure_threshold=args.breaker_threshold,
                cooldown=args.breaker_cooldown,
            ),
            max_inflight=args.max_inflight,
        ),
        host=args.host, port=args.port,
    ).start_background()
    print(f"coordinator listening on {server.address}", flush=True)
    print(
        f"http front-end on http://{front.address}"
        f"  (GET /guarantee /jobs/<id> /healthz /stats)",
        flush=True,
    )
    if workers:
        print(f"{len(workers)} local worker(s) started", flush=True)
    if store is not None:
        print(f"serving guarantees from store {args.store}", flush=True)
    if args.journal:
        print(
            f"journaling jobs to {args.journal}"
            f" (boot epoch {server.coordinator.epoch})",
            flush=True,
        )

    def _terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt  # SIGTERM shuts down exactly like Ctrl-C

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread (embedded serve)
        pass
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        front.stop()
        server.stop()  # orders every worker to exit on its next poll
        for proc in workers:
            try:
                proc.wait(timeout=10)
            except Exception:  # noqa: BLE001 - last resort, no orphans
                proc.terminate()
    return 0


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry each failing point up to N extra times (default 0)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.0, metavar="SECONDS",
        help="base exponential-backoff delay between retries (default 0)",
    )
    parser.add_argument(
        "--point-timeout", type=float, metavar="SECONDS",
        help="wall-clock deadline per point; overruns are quarantined",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-zoo",
        description="Scenario model zoo: list, build and sweep chain families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the registered families")
    p_list.add_argument("--tag", help="filter by tag (mimo, viterbi, synthetic)")
    p_list.set_defaults(fn=_cmd_list)

    p_build = sub.add_parser("build", help="build one scenario with provenance")
    p_build.add_argument("family")
    p_build.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="override one family parameter (repeatable)",
    )
    p_build.add_argument(
        "--verify", action="store_true",
        help="build the full model too and verify bisimilarity",
    )
    p_build.add_argument(
        "--keep-full", action="store_true",
        help="also build the full (unreduced) model",
    )
    p_build.add_argument(
        "--no-reduce", action="store_true", help="check the full model"
    )
    p_build.add_argument(
        "--check", action="store_true",
        help="also model-check a property on the built chain",
    )
    p_build.add_argument(
        "--formula", help="property for --check (default: family's)"
    )
    p_build.set_defaults(fn=_cmd_build)

    p_sweep = sub.add_parser("sweep", help="check a property across a grid")
    p_sweep.add_argument("family")
    p_sweep.add_argument(
        "-g", "--grid", action="append", metavar="KEY=V1,V2,...",
        help="one sweep axis (repeatable; Cartesian product)",
    )
    p_sweep.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="fixed parameter applied to every point (repeatable)",
    )
    p_sweep.add_argument("--formula", help="pCTL property (default: family's)")
    p_sweep.add_argument(
        "--backend", choices=("exact", "apmc", "sprt"), default="exact"
    )
    p_sweep.add_argument(
        "--theta", type=float, help="threshold for backend=sprt"
    )
    p_sweep.add_argument("--epsilon", type=float, default=0.01)
    p_sweep.add_argument("--delta", type=float, default=0.05)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--executor", choices=EXECUTORS, default="serial",
        help="serial runs points in order here; process and remote lease"
             " shards to forked workers or a fleet (default: %(default)s)",
    )
    p_sweep.add_argument(
        "--shard-size", type=int, metavar="N",
        help="points per shard (executor=process / remote)",
    )
    p_sweep.add_argument(
        "--connect", metavar="HOST:PORT",
        help="coordinator address for --executor remote",
    )
    p_sweep.add_argument(
        "--store", metavar="PATH",
        help="read-through cache sweep results in this sqlite guarantee store",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from --store, recomputing"
             " only the points the checkpoint is missing",
    )
    _add_resilience_flags(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_survey = sub.add_parser(
        "survey", help="build+check every family at its defaults"
    )
    p_survey.add_argument("--tag", help="filter by tag")
    p_survey.add_argument(
        "--backend", choices=("exact", "apmc", "sprt"), default="exact"
    )
    p_survey.add_argument(
        "--executor", choices=EXECUTORS, default="serial",
        help="remote sends each family to the fleet as one job; serial and"
             " process check them here (default: %(default)s)",
    )
    p_survey.add_argument(
        "--connect", metavar="HOST:PORT",
        help="coordinator address for --executor remote",
    )
    p_survey.add_argument(
        "--store", metavar="PATH",
        help="read-through cache survey results in this sqlite guarantee store",
    )
    _add_resilience_flags(p_survey)
    p_survey.set_defaults(fn=_cmd_survey)

    p_worker = sub.add_parser(
        "worker", help="join a guarantee-service coordinator as a sweep worker"
    )
    p_worker.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="coordinator address to register with",
    )
    p_worker.add_argument("--name", help="worker name for /stats (default host:pid)")
    p_worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="delay before retrying a lease request the coordinator did"
             " not answer (idle workers wait at the coordinator instead)",
    )
    p_worker.add_argument(
        "--max-shards", type=int, metavar="N",
        help="exit after serving N shards (default: run until stopped)",
    )
    p_worker.add_argument(
        "--reconnect-attempts", type=int, default=10, metavar="N",
        help="reconnect/re-register attempts before giving up on an"
             " unreachable coordinator; 0 disables reconnection"
             " (default 10)",
    )
    p_worker.set_defaults(fn=_cmd_worker)

    p_serve = sub.add_parser(
        "serve", help="run the guarantee service (coordinator + HTTP front-end)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="HTTP front-end port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--coordinator-port", type=int, default=0, metavar="PORT",
        help="worker-facing coordinator port (default: ephemeral)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="also start N local worker processes",
    )
    p_serve.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="SECONDS",
        help="worker heartbeat interval (liveness cutoff is 3x this)",
    )
    p_serve.add_argument(
        "--store", metavar="PATH",
        help="serve /guarantee hits from (and bank misses to) this store",
    )
    p_serve.add_argument(
        "--journal", metavar="PATH",
        help="persist jobs/results to this sqlite journal; a restarted"
             " coordinator replays it and resumes in-flight sweeps",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="bound on distinct in-flight /guarantee jobs; excess"
             " misses are shed with 429 (default 64)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive coordinator failures that open the"
             " front-end's circuit breaker (default 5)",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="SECONDS",
        help="seconds the open breaker waits before probing the"
             " coordinator again (default 5)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_store = sub.add_parser(
        "store", help="inspect / maintain a persistent guarantee store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("stats", "aggregate counters of one store file"),
        ("query", "list cached results, newest first"),
        ("clear", "invalidate cached results (all, or filtered)"),
    ):
        p = store_sub.add_parser(name, help=help_text)
        p.add_argument(
            "--store", metavar="PATH", required=True,
            help="path of the sqlite guarantee store",
        )
        if name != "stats":
            p.add_argument("--family", help="filter by zoo family")
            p.add_argument(
                "--backend", choices=("exact", "apmc", "sprt"),
                help="filter by checking backend",
            )
            p.add_argument("--formula", help="filter by pCTL property")
        if name == "query":
            p.add_argument("--limit", type=int, help="show at most N rows")
        p.set_defaults(fn=_cmd_store)

    p_history = sub.add_parser(
        "history",
        help="guarantee trends across the code versions banked in a store",
    )
    history_sub = p_history.add_subparsers(dest="history_command", required=True)

    h_list = history_sub.add_parser(
        "list", help="show every salt (code version) in a store, with row counts"
    )
    h_show = history_sub.add_parser(
        "show", help="print one family's guarantee trajectories across versions"
    )
    h_show.add_argument("family", help="zoo family to report on")
    h_show.add_argument("--formula", help="narrow to one pCTL property")
    h_show.add_argument(
        "--backend", choices=("exact", "apmc", "sprt"),
        help="narrow to one checking backend",
    )
    h_diff = history_sub.add_parser(
        "diff",
        help="classify two versions' rows as unchanged/drifted/appeared/"
             "vanished; exits 1 on drift beyond tolerance",
    )
    h_diff.add_argument("salt_a", help="baseline salt (see `history list`)")
    h_diff.add_argument("salt_b", help="candidate salt to compare against")
    h_diff.add_argument("--family", help="narrow the diff to one zoo family")
    from ..store import DRIFT_TOLERANCE

    for p in (h_list, h_show, h_diff):
        p.add_argument(
            "--store", metavar="PATH", required=True,
            help="path of the sqlite guarantee store",
        )
        if p is not h_list:
            p.add_argument(
                "--tolerance", type=float, default=DRIFT_TOLERANCE,
                metavar="REL",
                help="relative drift below this is 'unchanged'"
                     f" (default {DRIFT_TOLERANCE:g})",
            )
        p.set_defaults(fn=_cmd_history)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (registry.ZooError, PctlSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepInterrupted as interrupt:
        banked = sum(1 for r in interrupt.partial if r.ok)
        hint = (
            " (banked to --store; re-run with --resume to finish)"
            if getattr(args, "store", None)
            else " (pass --store PATH next time to make interrupts resumable)"
        )
        print(
            f"interrupted: {banked} finished point(s) out of the grid"
            f"{hint}",
            file=sys.stderr,
        )
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
