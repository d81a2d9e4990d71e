"""Async HTTP front-end: guarantees served straight from the store.

``repro-zoo serve`` runs this: a stdlib-only :mod:`asyncio` HTTP
server (hand-rolled GET parsing — no new dependencies) in front of the
:class:`~repro.service.Coordinator` and an optional
:class:`~repro.store.ResultStore`.  Four endpoints:

``GET /guarantee?family=...&formula=...&<param>=<value>``
    The serving path.  The query names a zoo scenario exactly as
    ``zoo.sweep`` would (family + parameter overrides + checking
    backend) and is planned by the same code, so the store is
    consulted under *the same* versioned cache key a local sweep
    uses.  A hit answers ``200`` immediately —
    without touching the engine, and on the event loop itself: the
    lookup is a pure read (one ``SELECT``), so it costs no thread
    handoff.  A miss is enqueued as a single-point
    sweep job on the worker fleet and answered ``202`` with a
    ``/jobs/<id>`` polling URL; when the job lands, the result is
    banked, so the next query for that guarantee is a warm hit.
``GET /jobs/<id>``
    Job status and (decoded) results.
``GET /healthz``
    Liveness: ``ok`` when every registered worker heartbeats,
    ``degraded`` when some died, with the per-worker verdicts.
``GET /stats``
    Store stats + coordinator worker/job stats in one payload.
``GET /history?family=...&<param>=<value>``
    Survey history: the banked trajectory of one guarantee across
    code versions (store salts), straight from the store — the JSON
    twin of the dashboard (see :mod:`repro.history`).
``GET /dashboard``
    Self-contained HTML dashboard (inline SVG sparklines, no JS):
    per-family guarantee trends plus the ``/stats`` + ``/healthz``
    snapshot.

A ``/guarantee`` is a one-point ``zoo.sweep`` split where the fleet
runs.  The query is planned by :func:`~repro.zoo.sweep.plan_sweep`, the
sweep's own first half, so its checks, store key and point job are the
ones a sweep makes.  A plan with no miss is a hit; a miss submits the
plan's job, and the job-done callback finishes the plan, banking the
value exactly as a sweep banks it.  The value is bit-identical to a
serial ``zoo.sweep`` of the same single-point grid.

Graceful degradation: every coordinator submit goes through a
:class:`~repro.resilience.CircuitBreaker`.  When the coordinator is
down (or shutting down) the breaker opens — warm store hits keep
answering ``200``, but misses answer ``503`` with a ``Retry-After``
hint instead of stacking failures on a dead dependency.  A bounded
in-flight job table (``max_inflight``) sheds excess misses with
``429``; ``/healthz`` reports the breaker state, the coordinator's
boot epoch, and its journal, so a probe can watch a restarted
coordinator go degraded -> ok.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..engine.config import SmcConfig
from ..engine.sweep import CheckPlan
from ..pctl.parser import PctlSyntaxError
from ..resilience.policies import CircuitBreaker
from .coordinator import Coordinator, Job
from .wire import decode_result

__all__ = ["Frontend", "FrontendServer", "ROUTES"]

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``/guarantee`` query keys that are service knobs, not family params.
_RESERVED = (
    "family", "formula", "backend", "theta",
    "epsilon", "delta", "seed", "reduce", "tolerance",
)

#: Machine-readable route reference — the single source of truth the
#: generated section of ``docs/http-api.md`` is rendered from
#: (``scripts/gen_cli_docs.py``); keep in sync with :meth:`Frontend.route`.
ROUTES = [
    {
        "path": "/guarantee",
        "query": "family (required), formula, backend, theta, epsilon,"
                 " delta, seed, reduce, plus any family parameter",
        "statuses": {
            200: "warm store hit, value served without touching the engine",
            202: "miss enqueued as a single-point job; poll /jobs/<id>",
            400: "unknown family/backend, a parameter the family does"
                 " not have (the error lists the valid ones), a text value"
                 " for a numeric family parameter, a bad"
                 " theta/epsilon/delta/seed (not a number, or"
                 " theta/epsilon/delta outside (0, 1)), a formula that does"
                 " not parse, or sprt without theta",
            429: "in-flight job table full; retry after Retry-After",
            503: "circuit breaker open (coordinator down); warm hits"
                 " still answer 200, retry after Retry-After",
        },
        "summary": "Serve one guarantee from the store, or compute it"
                   " on the worker fleet and bank it.",
    },
    {
        "path": "/jobs/<id>",
        "query": "none",
        "statuses": {
            200: "job snapshot: status, per-point results, quarantines",
            404: "unknown job id",
        },
        "summary": "Poll a /guarantee miss (or any coordinator job).",
    },
    {
        "path": "/healthz",
        "query": "none",
        "statuses": {
            200: "status 'ok' or 'degraded' (dead workers, open circuit"
                 " breaker, or unfinished jobs with no live worker), with"
                 " per-worker verdicts, breaker state, coordinator boot"
                 " epoch, and journal stats",
        },
        "summary": "Fleet liveness probe.",
    },
    {
        "path": "/stats",
        "query": "none",
        "statuses": {
            200: "store stats + coordinator worker/job stats + hit/miss"
                 " counters",
        },
        "summary": "One aggregate service snapshot.",
    },
    {
        "path": "/history",
        "query": "family (required), formula, backend, reduce, plus any"
                 " family parameter",
        "statuses": {
            200: "the guarantee's banked trajectory across salts, in"
                 " insertion order",
            400: "unknown family/backend, a bad family parameter, or a"
                 " formula that does not parse",
            503: "front-end running without a result store",
        },
        "summary": "Survey history of one guarantee across code"
                   " versions (store salts), as JSON.",
    },
    {
        "path": "/dashboard",
        "query": "tolerance (relative drift tolerance, default 1e-6)",
        "statuses": {
            200: "self-contained HTML dashboard (inline SVG sparklines)",
            400: "tolerance is not a float",
        },
        "summary": "Per-family guarantee trend dashboard plus the"
                   " /stats and /healthz snapshot.",
    },
]


def _public_value(value: Any) -> Any:
    """A JSON-shaped rendering of one check value for HTTP bodies."""
    if is_dataclass(value) and not isinstance(value, type):
        return json.loads(json.dumps(asdict(value), default=repr))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _finite(obj: Any) -> Any:
    """``obj`` with each non-finite float replaced by its ``str``
    (``"nan"``, ``"inf"``, ``"-inf"``): RFC 8259 JSON has no token for
    them, and a reward such as ``R=? [ F goal ]`` is legitimately
    ``inf``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(item) for item in obj]
    return obj


class _BadRequest(ValueError):
    """Routed straight to a 400 response."""


def _number(params: Dict[str, str], name: str, kind: type, default: Any) -> Any:
    """One numeric query parameter, or :class:`_BadRequest`."""
    if name not in params:
        return default
    try:
        return kind(params[name])
    except ValueError:
        raise _BadRequest(
            f"{name} must be {'an integer' if kind is int else 'a number'},"
            f" got {params[name]!r}"
        ) from None


class _Degraded(RuntimeError):
    """Coordinator unavailable (breaker open): 503 + Retry-After."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _Overloaded(RuntimeError):
    """In-flight job table full: 429 + Retry-After."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class Frontend:
    """Route handling, separated from the socket plumbing for tests.

    Parameters
    ----------
    coordinator:
        The lease coordinator misses are enqueued on.
    store:
        Optional :class:`~repro.store.ResultStore`; without one every
        ``/guarantee`` is a miss and nothing is banked.
    breaker:
        The :class:`~repro.resilience.CircuitBreaker` around
        coordinator submits; open means misses answer ``503`` (warm
        hits still serve) until the cooldown's half-open probe
        succeeds.
    max_inflight:
        Bound on distinct in-flight ``/guarantee`` jobs; excess misses
        are shed with ``429`` instead of flooding the fleet.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        store: Any = None,
        *,
        breaker: Optional[CircuitBreaker] = None,
        max_inflight: int = 64,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.coordinator = coordinator
        self.store = store
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.max_inflight = max_inflight
        self.started = time.time()
        self.hits = 0
        self.misses = 0
        self.shed = 0  # misses answered 429/503 instead of enqueued
        # In-flight /guarantee jobs by store key, so identical queries
        # racing each other share one job instead of one each.
        self._inflight: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- /guarantee --------------------------------------------------------

    def _plan(self, params: Dict[str, str], store: Any) -> CheckPlan:
        """One query as a one-point :func:`~repro.zoo.sweep.plan_sweep`
        against ``store``: only the HTTP work (numbers, point values,
        reserved keys) is done here, and what the zoo rejects is a 400."""
        from ..zoo.registry import parse_param
        from ..zoo.sweep import plan_sweep

        family = params.get("family")
        if not family:
            raise _BadRequest("missing required query parameter 'family'")
        theta = _number(params, "theta", float, None)
        point = {
            key: parse_param(value)
            for key, value in params.items()
            if key not in _RESERVED
        }
        try:
            return plan_sweep(
                family,
                [point],
                params.get("formula") or None,
                reduce=parse_param(params.get("reduce", "True")) not in (False, 0, "false"),
                backend=params.get("backend", "exact"),
                theta=theta,
                smc=SmcConfig(
                    epsilon=_number(params, "epsilon", float, 0.01),
                    delta=_number(params, "delta", float, 0.05),
                    seed=_number(params, "seed", int, 0),
                ),
                store=store,
            )
        except PctlSyntaxError as exc:
            raise _BadRequest(f"bad formula: {exc}") from None
        except ValueError as exc:  # ZooError, a bad backend or config
            raise _BadRequest(str(exc)) from None

    def _enqueue_guarantee(self, plan: CheckPlan, body: Dict[str, Any]) -> str:
        """Submit the plan's job on the ``(0, point)`` entry, as
        ``zoo.sweep`` would run it; returns the job id.  The in-flight
        table is keyed by the plan's store query.

        Degradation surface: a query already in flight shares its job
        unconditionally; a *new* job first has to pass the circuit
        breaker (:class:`_Degraded` -> 503 when open) and the
        ``max_inflight`` bound (:class:`_Overloaded` -> 429), and a
        submit failure (coordinator shutting down / gone) records a
        breaker failure before surfacing as :class:`_Degraded`.
        """
        from .wire import encode

        key = json.dumps(plan.queries[0], sort_keys=True, default=repr)
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                # A done job stays in flight until its value is banked,
                # so a re-request in that window shares it too.
                job = self.coordinator.jobs.get(inflight)
                if job is not None and not job.cancelled:
                    return inflight
            if not self.breaker.allow():
                snapshot = self.breaker.snapshot()
                remaining = snapshot.get("cooldown_remaining")
                raise _Degraded(
                    "coordinator unavailable (circuit breaker"
                    f" {snapshot['state']}); warm hits still serve",
                    retry_after=float(remaining or self.breaker.cooldown),
                )
            if len(self._inflight) >= self.max_inflight:
                raise _Overloaded(
                    f"{len(self._inflight)} guarantee jobs already in"
                    f" flight (max_inflight={self.max_inflight})",
                    retry_after=1.0,
                )
            try:
                job_id = self.coordinator.submit(
                    encode(plan.job),
                    [encode((0, body["point"]))],
                    meta={
                        "kind": "guarantee",
                        "family": body["family"],
                        "formula": body["formula"],
                        "backend": body["backend"],
                    },
                    on_done=functools.partial(self._bank, plan=plan, key=key),
                )
            except Exception as exc:  # noqa: BLE001 - any submit failure
                self.breaker.record_failure()
                raise _Degraded(
                    f"coordinator rejected the job: {exc}",
                    retry_after=self.breaker.cooldown,
                ) from exc
            self.breaker.record_success()
            self._inflight[key] = job_id
            return job_id

    def _bank(self, job: Job, *, plan: CheckPlan, key: str) -> None:
        """Job-done callback: finish the plan with the job's result, so
        the value is banked exactly as a sweep banks it, then retire
        the in-flight entry (a re-request sees either the job or the
        banked value, never a gap between them)."""
        try:
            if job.results:
                plan.finish([decode_result(job.results[0])])
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def lookup(self, params: Dict[str, str]) -> Any:
        """The ``/guarantee`` lookup step: plan the one-point check.

        Returns ``(200, body)`` when the plan has no miss, or the miss
        step as a zero-argument callable answering 202/429/503; raises
        :class:`_BadRequest` for a bad query.  A pure read (one
        ``SELECT``), so the server runs it on its event loop; only the
        miss step goes to a thread.
        """
        plan = self._plan(params, self.store)
        body = {
            "family": params["family"],
            "formula": plan.formula,
            "backend": plan.backend,
            "point": plan.points[0],
        }
        if plan.misses:
            return functools.partial(self._miss, plan, body)
        (hit,) = plan.cached.values()
        self.hits += 1
        body.update(
            value=_public_value(hit.value),
            cached=True,
            seconds=hit.seconds,
            samples=int(getattr(hit.value, "samples", 0) or 0),
        )
        return 200, body

    def _miss(
        self, plan: CheckPlan, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """The ``/guarantee`` miss step: enqueue the point as a job."""
        self.misses += 1
        try:
            job_id = self._enqueue_guarantee(plan, body)
        except (_Degraded, _Overloaded) as exc:
            self.shed += 1
            body.update(
                cached=False,
                error=str(exc),
                retry_after=round(exc.retry_after, 3),
            )
            return (503 if isinstance(exc, _Degraded) else 429), body
        body.update(cached=False, job=job_id, poll=f"/jobs/{job_id}")
        return 202, body

    # -- /history & /dashboard ---------------------------------------------

    def history(self, params: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        """Survey history of one guarantee across salts, as JSON.

        The query names a scenario exactly as ``/guarantee`` does; the
        response is every banked value of that ``(scenario, formula,
        backend)`` identity across *all* salts (code versions) in
        insertion order, each point carrying its salt, config
        fingerprint, provenance and the warnings validation finds in
        its value for the formula.  Purely a store read — never
        touches the engine or the fleet.
        """
        if self.store is None:
            return 503, {
                "error": "no result store configured"
                " (run `repro-zoo serve --store PATH`)"
            }
        if params.get("backend") == "sprt":
            # A history spans every config of the guarantee, so any
            # valid threshold plans the same scenario and formula.
            params = {"theta": "0.5", **params}
        plan = self._plan(params, None)
        scenario, formula, backend, _config = plan.queries[0]
        points = self.store.history(scenario, formula, backend)
        return 200, {
            "family": params["family"],
            "formula": formula,
            "backend": backend,
            "point": plan.points[0],
            "count": len(points),
            "salts": list(dict.fromkeys(p.salt for p in points)),
            "points": [
                {
                    "salt": p.salt,
                    "value": _public_value(p.value),
                    "metric": p.metric,
                    "seconds": p.seconds,
                    "samples": p.samples,
                    "created": p.created,
                    "config": p.config,
                    "warnings": [_public_value(w) for w in p.warnings],
                }
                for p in points
            ],
        }

    def dashboard(self, params: Dict[str, str]) -> Tuple[int, str]:
        """The self-contained HTML trend dashboard (see :mod:`repro.history`)."""
        from ..history import render_dashboard, trend_reports
        from ..store.history import DRIFT_TOLERANCE

        try:
            tolerance = float(params.get("tolerance", DRIFT_TOLERANCE))
        except ValueError:
            raise _BadRequest("tolerance must be a float") from None
        reports = (
            trend_reports(self.store, tolerance=tolerance)
            if self.store is not None
            else []
        )
        _, stats = self.stats_payload()
        _, health = self.healthz()
        return 200, render_dashboard(reports, stats=stats, health=health)

    # -- /jobs/<id> --------------------------------------------------------

    def job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        from .wire import WireError

        try:
            snapshot = self.coordinator.collect(job_id)
        except WireError:
            return 404, {"error": f"unknown job {job_id!r}"}
        results = []
        for text in sorted(snapshot["results"], key=int):
            result = decode_result(snapshot["results"][text])
            results.append(
                {
                    "index": int(text),
                    "ok": result.ok,
                    "error": result.error,
                    "value": _public_value(result.value),
                    "seconds": result.seconds,
                    "attempts": result.attempts,
                }
            )
        for text in sorted(snapshot["quarantined"], key=int):
            record = snapshot["quarantined"][text]
            results.append(
                {
                    "index": int(text),
                    "ok": False,
                    "error": record.get("error"),
                    "value": None,
                    "attempts": record.get("attempts", 1),
                }
            )
        return 200, {
            "job": snapshot["job"],
            "status": snapshot["status"],
            "done": snapshot["done"],
            "total": snapshot["total"],
            "completed": snapshot["completed"],
            "meta": snapshot["meta"],
            "results": sorted(results, key=lambda r: r["index"]),
        }

    # -- /healthz & /stats -------------------------------------------------

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        stats = self.coordinator.stats()
        workers = stats["workers"]
        dead = [w for w in workers if not w["alive"]]
        breaker = self.breaker.snapshot()
        jobs = stats["jobs"]
        unfinished = jobs.get("queued", 0) + jobs.get("running", 0)
        # Degraded when anything needs attention: a worker stopped
        # heartbeating, the breaker is not closed (coordinator down or
        # still probing), or jobs wait with nobody to run them.
        degraded = bool(
            dead
            or breaker["state"] != CircuitBreaker.CLOSED
            or (unfinished and stats["workers_alive"] == 0)
        )
        return 200, {
            "status": "degraded" if degraded else "ok",
            "workers": len(workers),
            "workers_alive": stats["workers_alive"],
            "dead": dead,
            "jobs_unfinished": unfinished,
            "breaker": breaker,
            "epoch": stats["epoch"],
            "journal": stats["journal"],
        }

    def stats_payload(self) -> Tuple[int, Dict[str, Any]]:
        store_stats = None
        if self.store is not None:
            stats = self.store.stats()
            store_stats = {
                "path": stats.path,
                "salt": stats.salt,
                "entries": stats.entries,
                "families": stats.families,
                "backends": stats.backends,
                "compute_seconds": stats.compute_seconds,
                "total_hits": stats.total_hits,
                "db_bytes": stats.db_bytes,
            }
        return 200, {
            "uptime": round(time.time() - self.started, 3),
            "guarantee_hits": self.hits,
            "guarantee_misses": self.misses,
            "guarantee_shed": self.shed,
            "breaker": self.breaker.snapshot(),
            "store": store_stats,
            "coordinator": self.coordinator.stats(),
        }

    # -- routing -----------------------------------------------------------

    def route(self, method: str, target: str) -> Tuple[int, Any]:
        """Dispatch one request line; pure function of frontend state.

        Returns ``(status, payload)`` where the payload is a dict
        (serialized as JSON) for every route except ``/dashboard``,
        which returns the rendered HTML page as a string.
        """
        response = self.resolve(method, target)
        return response() if callable(response) else response

    def resolve(self, method: str, target: str) -> Any:
        """The pure-read part of :meth:`route`.

        Answers a bad request and a ``/guarantee`` store hit as
        ``(status, payload)``; everything else (a miss, every other
        route) comes back as a zero-argument callable that produces
        the response and may block.
        """
        if method != "GET":
            return 400, {"error": f"only GET is served, not {method}"}
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        params = dict(parse_qsl(parts.query, keep_blank_values=True))
        if path == "/guarantee":
            try:
                return self.lookup(params)
            except _BadRequest as exc:
                return 400, {"error": str(exc)}
        return functools.partial(self._dispatch, path, params)

    def _dispatch(self, path: str, params: Dict[str, str]) -> Tuple[int, Any]:
        try:
            if path == "/healthz":
                return self.healthz()
            if path == "/stats":
                return self.stats_payload()
            if path == "/history":
                return self.history(params)
            if path == "/dashboard":
                return self.dashboard(params)
            if path.startswith("/jobs/"):
                return self.job(path[len("/jobs/"):])
        except _BadRequest as exc:
            return 400, {"error": str(exc)}
        return 404, {"error": f"no route for {path!r}"}


class FrontendServer:
    """The asyncio HTTP server around a :class:`Frontend`.

    A ``/guarantee`` store hit is answered on the event loop itself
    (:meth:`Frontend.resolve`: parse, key, one ``SELECT``), with no
    thread handoff; a miss and every other route run in the default
    thread-pool executor, so coordinator calls and sqlite writes never
    stall the loop.  An exception a route raises answers 500 with its
    text.  ``serve_forever`` blocks the calling thread (the CLI);
    ``start_background`` runs the loop in a daemon thread and returns
    once the socket is listening (tests, embedded serving).
    """

    def __init__(
        self,
        frontend: Frontend,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self.frontend = frontend
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopping = threading.Event()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # The whole request head in one read; GET bodies are ignored.
            request = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10.0)
            try:
                method, target, _ = request.decode("latin-1").split(None, 2)
            except ValueError:
                method, target = "", "/"
            loop = asyncio.get_running_loop()
            try:
                response = self.frontend.resolve(method, target)
                if callable(response):
                    response = await loop.run_in_executor(None, response)
                status, payload = response
            except Exception as exc:  # noqa: BLE001 - answer, never drop
                loop.call_exception_handler(
                    {"message": f"route {target!r} raised", "exception": exc}
                )
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            # Routes answer dict payloads (JSON) or ready-rendered
            # text payloads (the HTML dashboard).
            if isinstance(payload, str):
                body = payload.encode("utf-8")
                content_type = "text/html; charset=utf-8"
            else:
                body = json.dumps(
                    _finite(payload), indent=2, default=repr, allow_nan=False
                ).encode("utf-8")
                content_type = "application/json; charset=utf-8"
            extra = ""
            if (
                status in (429, 503)
                and isinstance(payload, dict)
                and payload.get("retry_after") is not None
            ):
                seconds = max(1, int(-(-float(payload["retry_after"]) // 1)))
                extra = f"Retry-After: {seconds}\r\n"
            head = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve(self) -> None:
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            while not self._stopping.is_set():
                await asyncio.sleep(0.05)

    def serve_forever(self) -> None:
        """Run the server on this thread until interrupted."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass

    def start_background(self) -> "FrontendServer":
        def _run() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._serve())
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=_run, daemon=True, name="frontend-http"
        )
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("frontend failed to start listening")
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "FrontendServer":
        return self.start_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
