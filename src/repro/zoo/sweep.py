"""Zoo-wide sweeps: fan a family's parameter grid through the engine.

:func:`sweep` is the scenario-grid entry point the registry enables:
name a family, name the axes, and the grid fans through
:func:`repro.engine.sweep_check` with any of its checking backends —
``"exact"`` (the cached solver engine), ``"apmc"`` (Hoeffding
estimates) or ``"sprt"`` (threshold decisions).  Every point builds
through the shared reduction pipeline, so large grids automatically
check quotients instead of full models.

Pass ``store=`` (a :class:`repro.store.ResultStore`) and the sweep is
read-through cached: points are keyed by the *fully merged*
:class:`~repro.zoo.pipeline.ScenarioSpec` identity (family + defaults
+ base params + point + the ``reduce`` flag), so a warm repeat of the
same grid — or any overlapping grid — is served from the store instead
of re-solved.  ``executor="process"`` shards the grid across a
process pool (see :func:`repro.engine.sweep`); the merged results are
bit-identical to the serial path because per-point seed streams are
spawned by grid index.

:func:`survey` is the zoo-wide smoke sweep: every registered family at
its defaults against its own default property — the "does the whole
zoo still build and check" pass the CI benchmark job tracks.  The
families fan through *one* shared executor pass (thread or sharded
process pool), not a sequential per-family loop.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..engine import SmcConfig, SweepResult
from ..engine import grid as engine_grid
from ..engine import sweep as engine_sweep
from ..engine import sweep_check
from ..engine.sweep import validate_executor
from .pipeline import ScenarioSpec, build
from .registry import ZooError, get_model, list_models

__all__ = ["sweep", "survey"]


def _build_point(
    point: Mapping[str, Any],
    *,
    family: str,
    base_params: Optional[Mapping[str, Any]],
    reduce: bool,
):
    """Build one grid point's chain (module-level for picklability)."""
    params = dict(base_params or {})
    params.update(point)
    return build(family, params, reduce=reduce).chain


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
    executor: str = "thread",
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
        Build reduced chains (default) or full ones.
    backend / theta / smc / solver:
        Passed through to :func:`repro.engine.sweep_check` — see its
        docs for the exact/apmc/sprt semantics and per-point seeding.
    executor / max_workers / on_error / shard_size:
        Passed through to the underlying sweep runner;
        ``executor="process"`` fans shards of ``shard_size`` points
        across a process pool and ``executor="remote"`` ships them to
        a guarantee-service worker fleet (see :mod:`repro.service`).
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
    the per-point parameter dict.
    """
    fam = get_model(family)  # fail fast on unknown names
    validate_executor(executor, ZooError)
    if (axes is None) == (points is None):
        raise ValueError("pass exactly one of axes= or points=")
    if points is None:
        points = engine_grid(**{k: list(v) for k, v in axes.items()})
    if formula is None:
        formula = fam.default_property
    builder = functools.partial(
        _build_point,
        family=family,
        base_params=dict(base_params) if base_params else None,
        reduce=reduce,
    )
    store_key = None
    if store is not None:
        store_key = functools.partial(
            _point_store_key,
            family=family,
            base_params=dict(base_params) if base_params else None,
            reduce=reduce,
        )
    return sweep_check(
        builder,
        list(points),
        formula,
        backend=backend,
        theta=theta,
        smc=smc,
        solver=solver,
        executor=executor,
        max_workers=max_workers,
        on_error=on_error,
        shard_size=shard_size,
        remote=remote,
        store=store,
        store_key=store_key,
        store_extra={"family": family} if store is not None else None,
        retry=retry,
        deadline=deadline,
    )


def _survey_family(
    name: str,
    *,
    backend: str,
    smc: Optional[SmcConfig],
    store,
    retry=None,
    deadline=None,
) -> SweepResult:
    """One survey cell: a family checked at its defaults.

    Module-level (and built exclusively from picklable pieces) so the
    survey can fan families across a process pool; each family spawns
    its own seed stream from ``smc.seed`` exactly as a standalone
    one-point :func:`sweep` would, so survey results are independent of
    how the families are scheduled.
    """
    fam = get_model(name)
    return sweep(
        name,
        points=[{}],
        formula=fam.default_property,
        backend=backend,
        theta=0.5 if backend == "sprt" else None,
        smc=smc,
        executor="serial",
        on_error="capture",
        store=store,
        retry=retry,
        deadline=deadline,
    )[0]


def survey(
    *,
    tag: Optional[str] = None,
    backend: str = "exact",
    smc: Optional[SmcConfig] = None,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    remote: Optional[str] = None,
    store=None,
    retry=None,
    deadline=None,
) -> Dict[str, SweepResult]:
    """Check every registered family at its defaults.

    One point per family, each against its own ``default_property``
    with the chosen backend, all fanned through a single shared
    executor pass.  Returns ``{family name: SweepResult}``; each
    result keeps its parameter-dict ``point`` untouched and carries
    the family name in the dedicated ``label`` field.  Failures are
    captured per family, never raised — a zoo-wide health check rather
    than an experiment.  ``store`` read-through caches every cell;
    ``retry``/``deadline`` apply per family exactly as in
    :func:`sweep`.
    """
    validate_executor(executor, ZooError)
    families = list_models(tag=tag)
    runner = functools.partial(
        _survey_family, backend=backend, smc=smc, store=store,
        retry=retry, deadline=deadline,
    )
    outcomes = engine_sweep(
        runner,
        [fam.name for fam in families],
        executor=executor,
        max_workers=max_workers,
        on_error="capture",
        remote=remote,
    )
    results: Dict[str, SweepResult] = {}
    for fam, outcome in zip(families, outcomes):
        if outcome.ok:
            result = outcome.value  # the family's own captured SweepResult
        else:  # the worker itself failed (build error, pickling, ...)
            result = SweepResult(
                point={}, value=None, seconds=outcome.seconds,
                error=outcome.error,
            )
        result.label = fam.name
        results[fam.name] = result
    return results
