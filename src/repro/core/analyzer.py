"""High-level analyzer: statistical guarantees for one RTL model.

This is the library's front door — the paper's full methodology behind
one object:

>>> from repro.core.analyzer import PerformanceAnalyzer
>>> analyzer = PerformanceAnalyzer.for_viterbi()      # doctest: +SKIP
>>> analyzer.best_case(300).value                     # doctest: +SKIP
>>> analyzer.ber().value                              # doctest: +SKIP

An analyzer wraps a DTMC, checks metric specs or raw pCTL strings, and
records per-check provenance (property, model size, wall-clock time) in
:class:`Guarantee` records — the "quick, rigorous, high-confidence"
numbers the paper promises, with the evidence attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..dtmc import DTMC, assert_ergodic, reachability_iterations
from ..engine import Engine, SmcConfig, SolverConfig, check_value, default_engine
from ..pctl import parse_formula
from ..resilience.validate import (
    ValidationWarning,
    formula_kind,
    numeric_value,
    validate_guarantee,
)
from .metrics import (
    MetricSpec,
    average_case_error,
    best_case_error,
    convergence_rate,
    steady_state_ber,
    worst_case_error,
)

__all__ = ["Guarantee", "PerformanceAnalyzer"]


@dataclass(frozen=True)
class Guarantee:
    """One verified performance figure with its provenance.

    Exact checks carry no sampling error: the value is exact for the
    model up to linear-algebra round-off, which is what the paper means
    by a statistical *guarantee*.  Statistical checks
    (:meth:`PerformanceAnalyzer.check` with ``backend="apmc"`` or
    ``"sprt"``) instead carry an explicit ``(epsilon, delta)``-style
    guarantee; they are marked by a nonzero ``samples`` count.

    ``backend`` and ``cache_hits`` record how the number was obtained:
    the engine's solver method (or ``"apmc"``/``"sprt"`` for
    statistical runs), how many cached results (factorizations,
    Prob0/Prob1 sets, alias tables, long-run structure) this check
    reused instead of recomputing, and — for statistical runs — how
    many sampled paths ``samples`` the verdict consumed.

    ``stationary`` says how the check's steady-state solves ran, from
    the engine-stats delta: e.g. ``"1 iterated (88 its)"`` when a
    certified iterate answered, ``"1 factorised (32 its)"`` when the
    chain was factorised, and ``""`` when the check made none.

    ``warnings`` holds the :class:`~repro.resilience.ValidationWarning`
    records of the guarantee-validation gate (NaN/Inf, probability
    range): an empty tuple means the value passed every applicable
    check; a non-empty one flags a number that should not be trusted
    blindly.  Violations never raise — a million automated checks must
    degrade to flagged results, not crashed pipelines.
    """

    metric: str
    property_string: str
    value: float
    model_states: int
    model_transitions: int
    check_seconds: float
    backend: str = "lu"
    cache_hits: int = 0
    samples: int = 0
    warnings: Tuple[ValidationWarning, ...] = ()
    stationary: str = ""

    @property
    def is_exact(self) -> bool:
        """Exhaustive result (no sampled paths involved)?"""
        return self.samples == 0

    @property
    def is_valid(self) -> bool:
        """Did the value pass the validation gate warning-free?"""
        return not self.warnings

    def __str__(self) -> str:
        sampled = "" if self.is_exact else f", {self.samples} samples"
        if self.stationary:
            sampled += f"; stationary {self.stationary}"
        flagged = (
            "" if not self.warnings
            else "  !! " + "; ".join(str(w) for w in self.warnings)
        )
        return (
            f"{self.metric} = {self.value:.6g}   "
            f"[{self.property_string}; {self.model_states} states,"
            f" {self.check_seconds:.2f}s; {self.backend}"
            f" engine, {self.cache_hits} cache hits{sampled}]{flagged}"
        )


def _stationary_path(before: Dict[str, float], after: Dict[str, float]) -> str:
    """How the stationary solves between two engine-stats snapshots ran."""

    def delta(name: str) -> float:
        return after[f"stationary_{name}"] - before[f"stationary_{name}"]

    kinds = [f"{delta(kind)} {kind}" for kind in ("iterated", "factorised") if delta(kind)]
    return f"{' + '.join(kinds)} ({delta('iterations')} its)" if kinds else ""


class PerformanceAnalyzer:
    """Checks the paper's performance metrics against one DTMC.

    Construct directly from a chain, or use the case-study factories
    :meth:`for_viterbi`, :meth:`for_viterbi_worst_case`,
    :meth:`for_viterbi_convergence` and :meth:`for_mimo_detector`,
    which build the (reduced, by default) models of Sections IV-A-C.

    All metric checks run through one :class:`repro.engine.Engine`
    (selectable via ``engine``/``solver``), so a batch of metrics pays
    for its factorizations and graph precomputations once; see
    :meth:`check_many`.
    """

    def __init__(
        self,
        chain: DTMC,
        name: str = "model",
        *,
        engine: Optional[Engine] = None,
        solver: Union[SolverConfig, str, None] = None,
    ) -> None:
        self.chain = chain
        self.name = name
        self.engine = default_engine(solver, engine)
        self.history: List[Guarantee] = []

    # ------------------------------------------------------------------
    # Factories for the paper's case studies
    # ------------------------------------------------------------------
    @classmethod
    def for_viterbi(
        cls, config=None, reduced: bool = True, *, solver=None
    ) -> "PerformanceAnalyzer":
        """Viterbi error model (Section IV-A); reduced ``M_R`` by default."""
        from ..viterbi import build_full_model, build_reduced_model

        build = build_reduced_model if reduced else build_full_model
        result = build(config)
        kind = "reduced" if reduced else "full"
        return cls(result.chain, name=f"viterbi-{kind}", solver=solver)

    @classmethod
    def for_viterbi_worst_case(cls, config=None, *, solver=None) -> "PerformanceAnalyzer":
        """Viterbi model with the P3 error counter."""
        from ..viterbi import build_error_count_model

        return cls(
            build_error_count_model(config).chain,
            name="viterbi-errcnt",
            solver=solver,
        )

    @classmethod
    def for_viterbi_convergence(cls, config=None, *, solver=None) -> "PerformanceAnalyzer":
        """Traceback-convergence model (Section IV-C)."""
        from ..viterbi import build_convergence_model

        return cls(
            build_convergence_model(config).chain,
            name="viterbi-conv",
            solver=solver,
        )

    @classmethod
    def for_mimo_detector(
        cls,
        config=None,
        reduced: bool = True,
        branch_cutoff: float = 0.0,
        *,
        solver=None,
    ) -> "PerformanceAnalyzer":
        """MIMO ML detector model (Section IV-B); symmetry-reduced by
        default."""
        from ..mimo import build_detector_model

        result = build_detector_model(
            config, reduced=reduced, branch_cutoff=branch_cutoff
        )
        kind = "reduced" if reduced else "full"
        return cls(result.chain, name=f"mimo-{kind}", solver=solver)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def check(
        self,
        metric: Union[MetricSpec, str],
        *,
        backend: str = "exact",
        theta: Optional[float] = None,
        smc: Optional[SmcConfig] = None,
    ) -> Guarantee:
        """Check a metric spec or a raw pCTL property string.

        ``backend`` is one of :data:`repro.engine.CHECK_BACKENDS`, run
        through :func:`repro.engine.check_value` with this analyzer's
        engine.  ``"exact"`` (default) solves the model.  ``"apmc"``
        estimates a bounded path metric instead (``value`` is the
        estimate, within ``smc.epsilon`` with confidence
        ``1 - smc.delta``); ``"sprt"`` decides ``P >= theta`` (``value``
        is 1.0 on accept, 0.0 on reject).  Statistical checks draw from
        ``smc.seed`` and share the chain's alias tables through the
        engine; the returned :class:`Guarantee` records the sampled
        paths drawn.
        """
        if isinstance(metric, MetricSpec):
            name, prop = metric.name, metric.property_string
        else:
            name, prop = "pCTL", str(metric)
        # Parsed once: the check and the range validation share the tree.
        tree = parse_formula(prop)
        config = SmcConfig.coerce(smc)
        hits_before = self.engine.stats.cache_hits
        before = self.engine.stats.snapshot()
        start = time.perf_counter()
        result = check_value(
            self.chain,
            tree,
            backend,
            theta=theta,
            smc=config,
            engine=self.engine,
            seed=config.seed,
        )
        elapsed = time.perf_counter() - start
        value = numeric_value(result)
        guarantee = Guarantee(
            metric=name,
            property_string=prop,
            value=value,
            model_states=self.chain.num_states,
            model_transitions=self.chain.num_transitions,
            check_seconds=elapsed,
            backend=self.engine.config.method if backend == "exact" else backend,
            cache_hits=self.engine.stats.cache_hits - hits_before,
            samples=getattr(result, "samples", 0),
            warnings=validate_guarantee(value, kind=formula_kind(tree)),
            stationary=_stationary_path(before, self.engine.stats.snapshot()),
        )
        self.history.append(guarantee)
        return guarantee

    def check_many(
        self, metrics: Iterable[Union[MetricSpec, str]]
    ) -> List[Guarantee]:
        """Check a batch of metrics with one set of factorizations.

        All metrics run against this analyzer's shared engine, so the
        chain's LU factorization, Prob0/Prob1 precomputations and
        long-run structure are computed at most once per
        ``(chain, target-set)`` and reused — the batched counterpart of
        calling :meth:`check` in a loop with a fresh analyzer each
        time.  Each returned :class:`Guarantee` records the backend and
        how many cached results it reused.
        """
        return [self.check(metric) for metric in metrics]

    def best_case(self, horizon: int, flag: str = "flag") -> Guarantee:
        """P1 at the given horizon."""
        return self.check(best_case_error(horizon, flag))

    def average_case(self, horizon: int, reward: Optional[str] = None) -> Guarantee:
        """P2 at the given horizon."""
        return self.check(average_case_error(horizon, reward))

    def worst_case(
        self, horizon: int, threshold: int = 1, counter: str = "errcnt"
    ) -> Guarantee:
        """P3 at the given horizon (needs an error-counter model)."""
        return self.check(worst_case_error(horizon, threshold, counter))

    def ber(self, flag: str = "flag") -> Guarantee:
        """Steady-state BER (``S=? [ flag ]``)."""
        return self.check(steady_state_ber(flag))

    def convergence(self, horizon: int, reward: str = "nonconv") -> Guarantee:
        """C1 at the given horizon (needs the convergence model)."""
        return self.check(convergence_rate(horizon, reward))

    # ------------------------------------------------------------------
    # Model diagnostics (the paper's steady-state precondition)
    # ------------------------------------------------------------------
    def reachability_iterations(self) -> int:
        """The paper's RI fixpoint for this chain."""
        return reachability_iterations(self.chain)

    def steady_state_preconditions(self) -> Dict[str, bool]:
        """Check the paper's Section-III conditions for steady state."""
        irreducible, aperiodic = assert_ergodic(self.chain)
        return {"irreducible": irreducible, "aperiodic": aperiodic}

    def summary(self) -> str:
        """Human-readable record of everything checked so far."""
        lines = [f"PerformanceAnalyzer({self.name}): {self.chain!r}"]
        lines.extend(f"  {g}" for g in self.history)
        return "\n".join(lines)
