"""The shared build pipeline: ``ScenarioSpec -> build -> reduce -> engine``.

Every family in the zoo builds through this one function, so every
scenario — MIMO, Viterbi, or synthetic — comes back as a
:class:`BuiltScenario` with the same provenance: which family and
parameters produced it, how large the full and reduced state spaces
are, which reduction produced the checked chain, how long building and
reducing took, and (optionally) a machine-checked bisimilarity verdict.

Reduction strategies, in the order the pipeline tries them:

``"symmetry"`` / ``"abstraction"``
    The family builds its quotient *directly* (on-the-fly symmetry
    canonicalization for the MIMO detectors, the c/w abstraction for
    the Viterbi decoder) — the paper's reductions, where the full model
    never needs to materialize.
``"lumping"``
    No direct quotient is known: the pipeline builds the full chain and
    runs the coarsest strongly-lumpable partition refinement of
    :func:`repro.core.reductions.lump` over the family's ``respect``
    labels — reduction discovered, not designed.
``"none"``
    The model is already as small as its property needs.

With ``verify=True`` the full model is built alongside the quotient and
:func:`repro.core.reductions.are_bisimilar` must return equivalence —
the paper's soundness proof, run mechanically per scenario.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..core.reductions import are_bisimilar, lump
from ..dtmc.builder import ExplorationResult
from ..dtmc.chain import DTMC
from ..engine import Engine
from .registry import ZooError, get_model

__all__ = [
    "ScenarioSpec",
    "FamilyBuild",
    "BuiltScenario",
    "ReductionSoundnessError",
    "REDUCTIONS",
    "build",
]

#: Reduction strategies a family may declare.
REDUCTIONS = ("symmetry", "abstraction", "lumping", "none")

#: Full models at or below this state count are considered buildable
#: when a family needs one only for counting (families may still refuse
#: to provide ``build_full`` at any size).  Raised from 50k after the
#: sparse-algebra rewrite of the reduction layer: the coarsest-lumping
#: fallback (refine + verify + quotient) now handles 10^5+-state chains
#: in seconds, so half-million-state full models are worth building.
FULL_BUILD_LIMIT = 500_000


class ReductionSoundnessError(ZooError):
    """Raised when ``verify=True`` finds full and reduced not bisimilar."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-resolved scenario: family name + complete parameters."""

    family: str
    params: Mapping[str, Any]

    def key(self) -> Tuple:
        """Hashable identity (for memoization and result stores)."""
        return (self.family, tuple(sorted(self.params.items())))

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


@dataclass
class FamilyBuild:
    """What a family's builder hands the pipeline.

    Attributes
    ----------
    build_reduced:
        Zero-argument callable constructing the directly-reduced chain,
        or ``None`` when the family has no built-in reduction (the
        pipeline falls back to coarsest lumping of the full chain).
    build_full:
        Zero-argument callable constructing the full (unreduced) chain,
        or ``None`` when it is too large to materialize.
    full_state_count:
        Exact state count of the full model when it is *not* built
        (e.g. the 1x4 detector's product support); ignored when
        ``build_full`` runs.
    reduction:
        One of :data:`REDUCTIONS`; ``"lumping"`` may also be reached by
        fallback when ``build_reduced`` is ``None``.
    respect:
        Labels the reduction preserves — the vocabulary bisimilarity is
        judged over and the lumping fallback refines against.
    """

    build_reduced: Optional[Callable[[], ExplorationResult]] = None
    build_full: Optional[Callable[[], ExplorationResult]] = None
    full_state_count: Optional[int] = None
    reduction: str = "none"
    respect: Tuple[str, ...] = ("flag",)

    def __post_init__(self) -> None:
        if self.reduction not in REDUCTIONS:
            raise ZooError(
                f"unknown reduction {self.reduction!r};"
                f" choose from {', '.join(REDUCTIONS)}"
            )
        if self.build_reduced is None and self.build_full is None:
            raise ZooError("family must provide build_reduced or build_full")


@dataclass
class BuiltScenario:
    """One scenario built through the pipeline, with provenance.

    ``chain`` is the chain properties should be checked on (the reduced
    one whenever a reduction ran).  ``full_chain`` is populated when
    the full model was built (``keep_full=True``, ``verify=True``, or
    the lumping fallback).
    """

    spec: ScenarioSpec
    chain: DTMC
    reduction: str
    reduced_states: int
    full_states: Optional[int]
    build_seconds: float
    reduce_seconds: float
    verified: Optional[bool] = None
    full_chain: Optional[DTMC] = None
    respect: Tuple[str, ...] = ("flag",)
    default_property: str = ""
    #: Free-form provenance; the lumping fallback records its partition
    #: refinement here (``refine_rounds``, ``refine_splitters``,
    #: ``refine_initial_blocks``, ``refine_seed_blocks``,
    #: ``refine_final_blocks``).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def params(self) -> Mapping[str, Any]:
        return self.spec.params

    @property
    def reduction_factor(self) -> Optional[float]:
        """``full / reduced`` state count, when the full size is known."""
        if self.full_states is None or self.reduced_states == 0:
            return None
        return self.full_states / self.reduced_states

    def describe(self) -> str:
        """One-line provenance summary (CLI / log format)."""
        factor = self.reduction_factor
        factor_s = f" ({factor:.1f}x)" if factor is not None else ""
        full_s = "?" if self.full_states is None else str(self.full_states)
        verified_s = "" if self.verified is None else f" verified={self.verified}"
        refine_s = ""
        if "refine_rounds" in self.extra:
            refine_s = (
                f" refine({self.extra['refine_rounds']} rounds,"
                f" {self.extra['refine_splitters']} splitters)"
            )
        return (
            f"{self.spec.describe()}: {full_s} -> {self.reduced_states}"
            f" states{factor_s} via {self.reduction}"
            f" [build {self.build_seconds:.3f}s,"
            f" reduce {self.reduce_seconds:.3f}s]{verified_s}{refine_s}"
        )


def build(
    family: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    reduce: bool = True,
    verify: bool = False,
    keep_full: bool = False,
    engine: Optional[Engine] = None,
) -> BuiltScenario:
    """Build one scenario of ``family`` through the shared pipeline.

    Parameters
    ----------
    family:
        A registered family name (see :func:`repro.zoo.list_models`).
    params:
        Overrides merged over the family's defaults; unknown keys
        raise.
    reduce:
        Build/derive the reduced chain (default).  ``reduce=False``
        checks the full model — only possible when the family can
        materialize it.
    verify:
        Also build the full model and require
        :func:`~repro.core.reductions.are_bisimilar` over the family's
        ``respect`` labels; failure raises
        :class:`ReductionSoundnessError`.
    keep_full:
        Keep the full chain on the result even when verification is
        off (e.g. to check both, as Table I does).
    engine:
        When given, the scenario's chain is registered with the engine
        so subsequent property checks share its caches.
    """
    fam = get_model(family)
    merged = fam.merged_params(params)
    spec = ScenarioSpec(family=fam.name, params=merged)
    fb = fam.builder(merged)
    if not isinstance(fb, FamilyBuild):
        raise ZooError(
            f"builder of family {fam.name!r} must return a FamilyBuild,"
            f" got {type(fb).__name__}"
        )

    want_full = (
        not reduce
        or verify
        or keep_full
        or fb.build_reduced is None  # lumping fallback needs the full chain
    )
    if want_full and fb.build_full is None:
        need = "verify/keep_full" if reduce else "reduce=False"
        raise ZooError(
            f"family {fam.name!r} cannot build its full model at"
            f" {spec.describe()} (needed for {need});"
            f" exact full size: {fb.full_state_count}"
        )

    build_start = time.perf_counter()
    full_result: Optional[ExplorationResult] = None
    if want_full:
        full_result = fb.build_full()

    reduction = fb.reduction
    reduced_result: Optional[ExplorationResult] = None
    reduce_seconds = 0.0
    extra: Dict[str, Any] = {}
    if reduce:
        if fb.build_reduced is not None:
            t0 = time.perf_counter()
            reduced_result = fb.build_reduced()
            reduce_seconds = time.perf_counter() - t0
        elif reduction != "none":
            # Fallback: coarsest lumping of the full chain.
            t0 = time.perf_counter()
            quotient = lump(full_result.chain, respect=list(fb.respect))
            reduce_seconds = time.perf_counter() - t0
            reduction = "lumping"
            chain = quotient.chain
            if quotient.refinement is not None:
                stats = quotient.refinement
                extra.update(
                    refine_rounds=stats.rounds,
                    refine_splitters=stats.splitters,
                    refine_initial_blocks=stats.initial_blocks,
                    refine_seed_blocks=stats.seed_blocks,
                    refine_final_blocks=stats.final_blocks,
                )
        else:
            reduce_seconds = 0.0
    build_seconds = time.perf_counter() - build_start - reduce_seconds

    if reduce and reduced_result is not None:
        chain = reduced_result.chain
        reduced_states = reduced_result.num_states
    elif reduce and fb.build_reduced is None and reduction == "lumping":
        reduced_states = chain.num_states
    else:
        # reduce=False, or reduction == "none": check the full chain.
        chain = full_result.chain
        reduced_states = full_result.num_states
        if not reduce:
            reduction = "none"

    full_states = (
        full_result.num_states if full_result is not None else fb.full_state_count
    )

    verified: Optional[bool] = None
    if verify:
        result = are_bisimilar(
            full_result.chain, chain, respect=list(fb.respect)
        )
        if not result.equivalent:
            raise ReductionSoundnessError(
                f"reduced chain of {spec.describe()} is NOT bisimilar to"
                f" the full chain over {fb.respect}: {result.witness}"
            )
        verified = True

    if engine is not None:
        engine.register(chain)
        if full_result is not None and (keep_full or verify):
            engine.register(full_result.chain)

    return BuiltScenario(
        spec=spec,
        chain=chain,
        reduction=reduction if reduce else "none",
        reduced_states=reduced_states,
        full_states=full_states,
        build_seconds=build_seconds,
        reduce_seconds=reduce_seconds,
        verified=verified,
        full_chain=full_result.chain if full_result is not None else None,
        respect=fb.respect,
        default_property=fam.default_property,
        extra=extra,
    )
