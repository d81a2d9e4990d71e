"""Statistical model checking of DTMC models.

Connects the path sampler (:mod:`repro.dtmc.simulate`) to the SMC
algorithms: a bounded pCTL path property becomes a Bernoulli trial
("does a sampled path satisfy it?"), which APMC estimates with a
Hoeffding guarantee and the SPRT decides against a threshold.

This is the Younes/Hérault-style methodology the paper's related work
([13]) applies to analog circuits — implemented here so the exact and
the statistical verdicts can be compared on the same models (the test
suite does exactly that).

Two trial compilers are provided.  :func:`make_path_trial` is the
scalar form: one sampled path per call, evaluated after the fact by
:func:`path_satisfies`.  :func:`make_batch_trial` compiles the same
formula into a :class:`BatchTrial` that *fuses* property evaluation
into a vectorized walk: all walkers advance together one time step per
numpy call, each walker retires as soon as its verdict is decided, and
the walk stops early once every walker is decided — without ever
materializing a ``(count, bound + 1)`` path matrix.  Both compilers
map walker ``i``'s randomness to the same generator draws, so batched
outcome sequences are bit-identical to scalar ones for the same seed.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..dtmc.chain import DTMC
from ..dtmc.graph import backward_reachable_mask
from ..dtmc.simulate import PathSampler
from ..pctl.ast import Eventually, Globally, Next, ProbQuery, Until, WeakUntil
from ..pctl.checker import ModelChecker, PctlSemanticsError
from ..pctl.parser import parse_formula
from .hoeffding import ApmcResult, approximate_probability
from .sprt import SprtResult, sprt_decide

__all__ = [
    "path_satisfies",
    "make_path_trial",
    "BatchTrial",
    "make_batch_trial",
    "smc_estimate",
    "smc_decide",
]


def _bounded_path_parts(chain: DTMC, formula: Union[str, ProbQuery]):
    """Extract (kind, bound, left-set, right-set) from a bounded query."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if not isinstance(formula, ProbQuery):
        raise PctlSemanticsError(
            "statistical checking needs a P operator over a bounded path"
        )
    path = formula.path
    if getattr(path, "lower", 0):
        raise PctlSemanticsError(
            "interval lower bounds are not supported by the statistical"
            " checker; use the exact engine"
        )
    checker = ModelChecker(chain)
    if isinstance(path, Next):
        return "next", 1, None, checker.satisfaction(path.operand)
    if isinstance(path, Eventually):
        if path.bound is None:
            raise PctlSemanticsError("unbounded F needs the exact checker")
        return (
            "until",
            path.bound,
            np.ones(chain.num_states, bool),
            checker.satisfaction(path.operand),
        )
    if isinstance(path, Globally):
        if path.bound is None:
            raise PctlSemanticsError("unbounded G needs the exact checker")
        return "globally", path.bound, checker.satisfaction(path.operand), None
    if isinstance(path, (Until, WeakUntil)):
        if path.bound is None:
            raise PctlSemanticsError("unbounded U/W needs the exact checker")
        kind = "weak" if isinstance(path, WeakUntil) else "until"
        return (
            kind,
            path.bound,
            checker.satisfaction(path.left),
            checker.satisfaction(path.right),
        )
    raise PctlSemanticsError(f"unsupported path formula {path!r}")


def path_satisfies(
    kind: str, bound: int, left: np.ndarray, right, path: np.ndarray
) -> bool:
    """Evaluate a bounded path property on one sampled path prefix."""
    if kind == "next":
        return bool(right[path[1]])
    if kind == "globally":
        return bool(left[path[: bound + 1]].all())
    # until / weak until semantics over steps 0..bound.
    for t in range(bound + 1):
        state = path[t]
        if right is not None and right[state]:
            return True
        if not left[state]:
            return False
    # No right-state reached within the bound.
    return kind == "weak"


def _resolve_sampler(
    chain: DTMC, sampler: Optional[PathSampler], engine=None
) -> PathSampler:
    """Pick the sampler: explicit > engine-cached alias tables > fresh."""
    if sampler is not None:
        return sampler
    if engine is not None:
        return engine.path_sampler(chain)
    return PathSampler(chain)


def _make_trial(
    chain: DTMC,
    formula: Union[str, ProbQuery],
    batched: bool,
    sampler: Optional[PathSampler],
    engine,
):
    """The trial both SMC entry points hand to their algorithm."""
    if batched:
        return make_batch_trial(chain, formula, sampler=sampler, engine=engine)
    return make_path_trial(
        chain, formula, sampler=_resolve_sampler(chain, sampler, engine)
    )


def make_path_trial(
    chain: DTMC,
    formula: Union[str, ProbQuery],
    sampler: Optional[PathSampler] = None,
) -> Callable[[np.random.Generator], bool]:
    """Compile a bounded path property into a scalar Bernoulli trial.

    The returned callable draws one path prefix and reports whether it
    satisfies the property.  The generator is threaded through the
    call — shared samplers are never mutated, so one compiled trial is
    safe to share across threads.
    """
    kind, bound, left, right = _bounded_path_parts(chain, formula)
    shared = sampler if sampler is not None else PathSampler(chain)

    def trial(rng: np.random.Generator) -> bool:
        path = shared.path(bound, rng=rng)
        return path_satisfies(kind, bound, left, right, path)

    return trial


#: :class:`BatchTrial` state codes: a walker here keeps walking, or
#: its verdict is decided true, or decided false.
WALK, PASS, FAIL = 0, 1, 2


class BatchTrial:
    """A bounded path property compiled to fused batched trials.

    Calling ``trial(rng, count)`` samples ``count`` paths *and*
    evaluates the property in one pass: a single ``(count, draws)``
    uniform block is drawn up front (row ``i`` is walker ``i``'s
    randomness, matching the scalar trial's draw order), then all
    still-undecided walkers advance together one
    :meth:`~repro.dtmc.simulate.PathSampler.advance` per time step.

    Every state carries one int8 code (:data:`WALK`, :data:`PASS` or
    :data:`FAIL`) derived once from the formula's left/right sets and
    two retirement sets: hitting the right set passes, leaving the
    left set fails, a state that cannot reach the right set along the
    left set fails an until, and an absorbing state inside the left
    set passes a weak until or a globally.  Each step is then one code
    lookup and, when some walker retired, a compaction of the walkers
    still on ``WALK``; the walk stops outright when none remain — on
    chains with absorbing goal states this typically walks far fewer
    than ``bound`` steps.  Walkers still walking at the bound fail an
    until and pass a weak until or a globally.

    Attributes
    ----------
    draws_per_trial:
        Uniforms consumed per trial (``bound + 1``), fixed so chunked
        and scalar runs see identical outcome sequences per seed.
    last_walk_steps:
        Time steps actually walked by the most recent call — the
        early-termination observable (``<= bound``).
    """

    is_batch = True

    def __init__(
        self,
        chain: DTMC,
        formula: Union[str, ProbQuery],
        sampler: Optional[PathSampler] = None,
        engine=None,
    ) -> None:
        kind, bound, left, right = _bounded_path_parts(chain, formula)
        self.chain = chain
        self.kind = kind
        self.bound = int(bound)
        self.left = left
        self.right = right
        self.sampler = _resolve_sampler(chain, sampler, engine)
        self.draws_per_trial = self.bound + 1
        self.last_walk_steps = 0
        self.trials_drawn = 0
        self._code = np.full(chain.num_states, WALK, dtype=np.int8)
        self._survivors_pass = kind != "until"
        if kind == "next":  # single step, decided by `right` alone
            return
        absorbing = chain.transition_matrix.diagonal() >= 1.0 - 1e-12
        if kind == "until":
            # States that cannot reach `right` along `left` paths fail
            # every (bounded or not) until — Prob0-style retirement.
            fail = ~backward_reachable_mask(
                chain, np.flatnonzero(right), left & ~right
            )
            passed = right
        elif kind == "weak":
            fail = ~left
            passed = right | (absorbing & left)
        else:  # globally
            fail = ~left
            passed = absorbing & left
        self._code[fail] = FAIL
        self._code[passed] = PASS

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        uniforms = rng.random((count, self.draws_per_trial))
        sampler = self.sampler
        states = sampler.sample_initials_from(uniforms[:, 0])
        self.trials_drawn += count
        if self.kind == "next":
            self.last_walk_steps = 1
            return self.right[sampler.advance(states, uniforms[:, 1])]

        code = self._code
        status = code[states]
        outcome = status == PASS
        walking = np.flatnonzero(status == WALK)
        current = states[walking]
        steps = 0
        for t in range(1, self.bound + 1):
            if walking.size == 0:
                break
            steps = t
            current = sampler.advance(current, uniforms[walking, t])
            status = code[current]
            if status.any():  # some walker left WALK (code 0)
                outcome[walking[status == PASS]] = True
                keep = status == WALK
                walking = walking[keep]
                current = current[keep]
        if self._survivors_pass:
            outcome[walking] = True
        self.last_walk_steps = steps
        return outcome


def make_batch_trial(
    chain: DTMC,
    formula: Union[str, ProbQuery],
    sampler: Optional[PathSampler] = None,
    engine=None,
) -> BatchTrial:
    """Compile a bounded path property into a :class:`BatchTrial`.

    Pass an :class:`~repro.engine.Engine` to reuse its per-chain cached
    alias tables across properties and calls.
    """
    return BatchTrial(chain, formula, sampler=sampler, engine=engine)


def smc_estimate(
    chain: DTMC,
    formula: Union[str, ProbQuery],
    epsilon: float = 0.01,
    delta: float = 0.05,
    seed: Optional[int] = 0,
    *,
    batched: bool = True,
    batch: int = 4096,
    sampler: Optional[PathSampler] = None,
    engine=None,
) -> ApmcResult:
    """APMC estimate of a bounded path probability on ``chain``.

    ``P(|estimate - exact| > epsilon) < delta`` by Hoeffding's bound;
    the exact value is what :func:`repro.pctl.check` returns.  The
    default ``batched=True`` routes through a fused
    :class:`BatchTrial`; ``batched=False`` keeps the scalar per-path
    baseline (same outcome sequence per seed, orders of magnitude
    slower).
    """
    trial = _make_trial(chain, formula, batched, sampler, engine)
    return approximate_probability(
        trial, epsilon=epsilon, delta=delta, seed=seed, batch=batch
    )


def smc_decide(
    chain: DTMC,
    formula: Union[str, ProbQuery],
    theta: float,
    half_width: float = 0.01,
    alpha: float = 0.01,
    beta: float = 0.01,
    seed: Optional[int] = 0,
    *,
    batched: bool = True,
    sampler: Optional[PathSampler] = None,
    engine=None,
) -> SprtResult:
    """SPRT decision of ``P(path formula) >= theta`` on ``chain``.

    With ``batched=True`` (default) the test draws geometrically
    growing chunks of fused trials; the data-dependent stopping sample
    is identical to the scalar run for the same seed.
    """
    trial = _make_trial(chain, formula, batched, sampler, engine)
    return sprt_decide(
        trial,
        theta=theta,
        half_width=half_width,
        alpha=alpha,
        beta=beta,
        seed=seed,
    )
