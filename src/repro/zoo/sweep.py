"""Zoo-wide sweeps: fan a family's parameter grid through the engine.

:func:`sweep` is the scenario-grid entry point the registry enables:
name a family, name the axes, and the grid is checked as
:func:`repro.engine.sweep_check` checks it, with any of its backends —
``"exact"`` (the cached solver engine), ``"apmc"`` (Hoeffding
estimates) or ``"sprt"`` (threshold decisions).  Every point builds
through the shared reduction pipeline, so large grids automatically
check quotients instead of full models — except where an exact check
is too short to pay for lumping (see :func:`repro.zoo.build`).

Pass ``store=`` (a :class:`repro.store.ResultStore`) and the sweep is
read-through cached: points are keyed by the *fully merged*
:class:`~repro.zoo.pipeline.ScenarioSpec` identity (family + defaults
+ base params + point + the ``reduce`` flag), so a warm repeat of the
same grid — or any overlapping grid — is served from the store instead
of re-solved.  :func:`plan_sweep` is the one place that key is made:
:func:`sweep` is that plan plus its run, and the service's
``/guarantee`` route is the same plan of one point, so a row banked by
either side is a warm hit for the other.  ``executor="process"``
leases shards of the grid to forked workers and ``executor="remote"``
to the worker fleet (see :func:`repro.engine.sweep`); the merged
results are bit-identical to the serial path because a point's value
depends only on its store query (scenario key, formula, backend,
config), never on its grid position or worker.

:func:`survey` is the zoo-wide smoke sweep: every registered family at
its defaults against its own default property — the "does the whole
zoo still build and check" pass the CI benchmark job tracks.  Each
family is one one-point :func:`sweep`, so store traffic stays in the
calling process.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..engine import SmcConfig, SweepResult
from ..engine import grid as engine_grid
from ..engine.sweep import CheckPlan, validate_backend, validate_executor
from ..pctl import StateFormula, parse_formula
from .pipeline import ScenarioSpec, build
from .registry import ZooError, get_model, list_models

__all__ = ["sweep", "survey", "plan_sweep", "point_builder"]


def _build_point(
    point: Mapping[str, Any],
    *,
    family: str,
    base_params: Optional[Mapping[str, Any]],
    reduce: bool,
    formula: Optional[StateFormula] = None,
):
    """Build one grid point's chain (module-level for picklability)."""
    params = dict(base_params or {})
    params.update(point)
    return build(family, params, reduce=reduce, formula=formula).chain


def point_builder(
    family: str,
    base_params: Optional[Mapping[str, Any]],
    *,
    reduce: bool,
    backend: str,
    tree: StateFormula,
) -> functools.partial:
    """The ``build(point)`` of one grid: a picklable partial over
    :func:`_build_point`.

    Only an exact check of reduced chains hands the pipeline the parsed
    formula ``tree``, so a short step-bounded check skips lumping.
    Statistical points keep sampling the quotient (their per-seed
    estimates depend on the chain they walk), and a ``reduce=False``
    job is the same as one built without a formula.
    """
    keywords = dict(
        family=family,
        base_params=dict(base_params) if base_params else None,
        reduce=reduce,
    )
    if reduce and backend == "exact":
        keywords["formula"] = tree
    return functools.partial(_build_point, **keywords)


def _point_store_key(
    point: Mapping[str, Any],
    *,
    family: str,
    base_params: Optional[Mapping[str, Any]],
    reduce: bool,
):
    """Scenario identity of one grid point for the result store.

    Built from the *merged* parameters (family defaults overlaid with
    ``base_params`` and the point), so ``points=[{}]`` and the same
    parameters spelled out explicitly address the same cached row.
    The ``reduce`` flag is part of the identity: full-model and
    quotient checks are cached separately.
    """
    params = dict(base_params or {})
    params.update(point)
    merged = get_model(family).merged_params(params)
    spec = ScenarioSpec(family=family, params=merged)
    return ["zoo", spec.key(), ["reduce", bool(reduce)]]


def plan_sweep(
    family: str,
    points: Sequence[Mapping[str, Any]],
    formula=None,
    *,
    base_params: Optional[Mapping[str, Any]] = None,
    reduce: bool = True,
    backend: str = "exact",
    theta: Optional[float] = None,
    smc: Optional[SmcConfig] = None,
    solver=None,
    store=None,
) -> CheckPlan:
    """The first half of :func:`sweep`: the
    :class:`~repro.engine.sweep.CheckPlan` of ``points`` against
    ``store``, with :func:`point_builder` as its build and the merged
    parameters of :func:`_point_store_key` as its scenario key.

    Keying merges each point's parameters, so an unknown family,
    backend or parameter, text for a numeric parameter, a bad
    threshold or formula all raise before any store read, build or
    fork.  The service plans its ``/guarantee`` and ``/history``
    queries here too, so a row has one key.
    """
    fam = get_model(family)
    validate_backend(backend, theta, ZooError)
    tree = parse_formula(fam.default_property if formula is None else formula)
    base = dict(base_params) if base_params else None
    return CheckPlan(
        point_builder(family, base, reduce=reduce, backend=backend, tree=tree),
        points,
        tree,
        backend=backend,
        theta=theta,
        smc=smc,
        solver=solver,
        store=store,
        store_key=functools.partial(
            _point_store_key, family=family, base_params=base, reduce=reduce
        ),
        store_extra={"family": family},
    )


def sweep(
    family: str,
    axes: Optional[Mapping[str, Iterable[Any]]] = None,
    formula: Optional[str] = None,
    *,
    points: Optional[Sequence[Mapping[str, Any]]] = None,
    base_params: Optional[Mapping[str, Any]] = None,
    reduce: bool = True,
    backend: str = "exact",
    theta: Optional[float] = None,
    smc: Optional[SmcConfig] = None,
    solver=None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    on_error: str = "capture",
    shard_size: Optional[int] = None,
    remote: Optional[str] = None,
    store=None,
    retry=None,
    deadline=None,
) -> List[SweepResult]:
    """Check ``formula`` across a parameter grid of one family.

    Parameters
    ----------
    family:
        Registered family name.
    axes:
        Named parameter axes, e.g. ``{"snr_db": [4, 6, 8]}``; their
        Cartesian product (via :func:`repro.engine.grid`) is the sweep.
        Alternatively pass explicit ``points`` (a list of parameter
        dicts).
    formula:
        pCTL property; defaults to the family's ``default_property``.
        Checked, keyed and banked under its canonical text, so any
        spelling of one property hits the same store row.
    base_params:
        Overrides applied to *every* point (the grid's fixed plane).
    reduce:
        Build reduced chains (default) or full ones.  With the exact
        backend, a family that lumps its full chain skips lumping for a
        short step-bounded ``formula`` and checks the full chain, which
        costs less (:func:`repro.zoo.build`); the value is the same.
    backend / theta / smc / solver:
        Passed through to :func:`repro.engine.sweep_check` — see its
        docs for the exact/apmc/sprt semantics and per-point seeding.
    executor / max_workers / on_error / shard_size:
        Passed through to the underlying sweep runner;
        ``executor="process"`` leases shards of ``shard_size`` points
        to forked worker processes and ``executor="remote"`` ships them
        to a guarantee-service worker fleet (see :mod:`repro.service`).
    remote:
        Coordinator address (``"HOST:PORT"``) for
        ``executor="remote"``; falls back to ``$REPRO_COORDINATOR``.
    store:
        Optional :class:`repro.store.ResultStore` — hits are served
        from it (``SweepResult.cached``) and misses banked back.
    retry / deadline:
        Fault-tolerance policies (:class:`repro.engine.RetryPolicy` /
        :class:`repro.engine.DeadlinePolicy`, or a bare attempt count /
        timeout in seconds) applied per point; see
        :mod:`repro.resilience`.

    Every successful value passes through
    :func:`repro.resilience.validate_guarantee`, which attaches
    ``SweepResult.warnings``.  Returns the ordered
    :class:`~repro.engine.SweepResult` list; each result's ``point`` is
    the per-point parameter dict.  It is :func:`plan_sweep` and its run.
    """
    validate_executor(executor, ZooError)
    if (axes is None) == (points is None):
        raise ValueError("pass exactly one of axes= or points=")
    if points is None:
        points = engine_grid(**{k: list(v) for k, v in axes.items()})
    plan = plan_sweep(
        family, points, formula,
        base_params=base_params, reduce=reduce, backend=backend,
        theta=theta, smc=smc, solver=solver, store=store,
    )
    return plan.run(
        executor=executor, max_workers=max_workers, on_error=on_error,
        shard_size=shard_size, retry=retry, deadline=deadline, remote=remote,
    )


def survey(
    *,
    tag: Optional[str] = None,
    backend: str = "exact",
    smc: Optional[SmcConfig] = None,
    executor: str = "serial",
    remote: Optional[str] = None,
    store=None,
    retry=None,
    deadline=None,
) -> Dict[str, SweepResult]:
    """Check every registered family at its defaults.

    One point per family, each against its own ``default_property``
    with the chosen backend: a one-point :func:`sweep` per family, so
    every cell gets the value a standalone sweep of that family gets,
    and only this process touches ``store``.
    On ``executor="remote"`` each family is one fleet job; on the
    other executors a one-point sweep runs in-process.  Returns
    ``{family name: SweepResult}``; each result keeps its
    parameter-dict ``point`` untouched and carries the family name in
    the dedicated ``label`` field.  Check failures are captured per
    family, never raised — a zoo-wide health check rather than an
    experiment.  ``store`` read-through caches every cell;
    ``retry``/``deadline`` apply per family exactly as in
    :func:`sweep`.
    """
    validate_executor(executor, ZooError)
    results: Dict[str, SweepResult] = {}
    for fam in list_models(tag=tag):
        (result,) = sweep(
            fam.name,
            points=[{}],
            formula=fam.default_property,
            backend=backend,
            theta=0.5 if backend == "sprt" else None,
            smc=smc,
            executor=executor,
            remote=remote,
            store=store,
            retry=retry,
            deadline=deadline,
        )
        result.label = fam.name
        results[fam.name] = result
    return results
