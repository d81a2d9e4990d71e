"""Steady-state (long-run) analysis of DTMCs.

The paper interprets BER as the steady-state expectation of the
``flag`` reward ("in steady state, BER can be interpreted as the
probability of a bit error occurring at any time step").  This module
computes:

* the stationary distribution of an irreducible chain;
* the general long-run distribution of an arbitrary finite chain via
  BSCC decomposition + absorption probabilities;
* long-run average rewards (used to cross-check ``R=?[I=T]`` at large
  ``T``).

Stationary solves follow the engine's :class:`~repro.engine.SolverConfig`:

``lu`` (the default)
    A *certified iterate, else a factorisation*.  The damped iteration
    ``pi <- pi (I + P) / 2`` runs from the uniform start; after a short
    probe its contraction rate is estimated from successive L1 steps,
    and it continues only while the projected iteration count fits a
    fixed budget.  The iterate is returned only when the residual
    ``||pi P - pi||_1`` and the error estimate from the observed rate
    are both within ``tolerance``, and only on a chain verified
    irreducible; otherwise the chain is factorised.
``direct``
    Always the factorisation: one sparse solve with one state's mass
    pinned (``x (I - Q) = P[pin, others]``, ``Q`` being ``P`` without
    the pinned row and column), then normalisation.  The pinned state
    is the heaviest one of a short damped probe, so no ratio of
    masses can overflow.  The independent reference for tests.
``power``, ``jacobi``, ``gauss-seidel``
    The damped iteration alone, with the same certificate as its stop
    rule and ``max_iterations`` as its only limit; it never factorises.

Every entry point accepts an optional :class:`repro.engine.Engine`;
with one, results are memoized per chain, the stationary and absorption
solves follow the engine's configuration and are counted in its stats.
Without one, a fresh default engine does the work.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from .chain import DTMC
from .graph import is_aperiodic, is_irreducible
from .linear import SolverError

__all__ = [
    "ReducibleChainError",
    "stationary_distribution",
    "long_run_distribution",
    "long_run_reward",
    "absorption_probabilities",
    "power_iteration",
    "assert_ergodic",
]

#: Damped iterations before the certified solve may give up.
PROBE_ITERATIONS = 32
#: Most damped iterations the certified solve may project to need.
ITERATION_BUDGET = 1000
#: Successive L1 steps whose largest ratio is the observed rate.
RATE_WINDOW = 8

_NO_UNIQUE = (
    "it has no unique stationary distribution. Use long_run_distribution()"
    " for the initial-state-dependent long-run behaviour."
)


class ReducibleChainError(ValueError):
    """A unique stationary distribution was requested of a chain that is
    not irreducible."""


class StationarySolve(NamedTuple):
    """One stationary solve and how it was obtained."""

    pi: np.ndarray
    #: Damped iterations run, including a probe that gave up.
    iterations: int
    #: True when the answer came from the sparse factorisation.
    factorised: bool
    #: Certified L1 error bound of an accepted iterate.
    error: Optional[float] = None


def power_iteration(
    chain: DTMC,
    tolerance: float = 1e-12,
    max_iterations: int = 200_000,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Iterate ``pi <- pi P`` until the L1 change drops below ``tolerance``.

    Converges for aperiodic chains; used both as a solver fallback and
    to mimic PRISM's iterative steady-state computation.  Raises
    :class:`repro.dtmc.SolverError` (a ``RuntimeError``) when the
    iteration cap is exceeded.
    """
    pi = np.array(
        chain.initial_distribution if initial is None else initial, dtype=np.float64
    )
    matrix = chain.transition_matrix
    for _ in range(max_iterations):
        nxt = pi @ matrix
        if np.abs(nxt - pi).sum() < tolerance:
            return nxt
        pi = nxt
    raise SolverError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def _stationary_fallback(chain: DTMC, cause: Optional[BaseException]) -> np.ndarray:
    """Power-iteration rescue for a failed factorisation.

    Only legitimate on an *irreducible* chain: on a reducible one the
    system is genuinely singular, power iteration from the initial
    distribution converges (if at all) to something that depends on
    the start state, and silently returning it would be a wrong answer
    dressed up as a stationary distribution.
    """
    if not is_irreducible(chain):
        raise ReducibleChainError(
            "stationary factorisation failed because the chain is not"
            f" irreducible: {_NO_UNIQUE}"
        ) from cause
    return power_iteration(chain)


def _damped_steps(chain: DTMC) -> Iterator[Tuple[np.ndarray, float]]:
    """``(iterate, L1 step)`` of ``pi <- pi (I + P) / 2`` from uniform.

    The damped (lazy) chain has the same stationary distribution but is
    aperiodic for every chain, so the iteration converges even on
    periodic irreducible chains, and the uniform start keeps the limit
    independent of the chain's initial distribution.
    """
    transposed = chain.transition_matrix.T.tocsr()
    pi = np.full(chain.num_states, 1.0 / chain.num_states)
    while True:
        nxt = 0.5 * (pi + transposed @ pi)
        yield nxt, float(np.abs(nxt - pi).sum())
        pi = nxt


def _certified_iterate(
    steps: Iterator[Tuple[np.ndarray, float]],
    tolerance: float,
    budget: int,
    *,
    project: bool,
) -> Tuple[np.ndarray, int, Optional[float]]:
    """``(last iterate, iterations, certified error)``; the error is
    ``None`` when the iteration gave up: at ``budget`` iterations or,
    with ``project``, once the observed rate (after the probe) projects
    the certificate beyond ``budget``.

    A damped step never increases the residual, so the iterate's
    residual is at most twice its step; the error estimate sums the
    remaining steps as a geometric series at the observed rate.
    """
    recent: List[float] = []
    for k, (pi, step) in enumerate(steps, 1):
        if step == 0.0:
            return pi, k, 0.0
        recent = (recent + [step])[-(RATE_WINDOW + 1):]
        rate = (
            max(b / a for a, b in zip(recent, recent[1:]))
            if len(recent) > RATE_WINDOW else math.inf
        )
        error = max(2.0 * step, step * rate / (1.0 - rate)) if rate < 1.0 else math.inf
        if error <= tolerance:
            return pi, k, error
        if k >= budget or (
            project and k >= PROBE_ITERATIONS and (
                rate >= 1.0
                or k + math.log(tolerance / error) / math.log(rate) > budget
            )
        ):
            return pi, k, None
    raise AssertionError("unreachable: the damped iteration never ends")


def _factorise(chain: DTMC, pin: int) -> np.ndarray:
    """Stationary distribution by one sparse solve with ``pin``'s mass
    fixed to 1 before normalising; unlike a normalisation row, the pin
    keeps the system as sparse as the chain."""
    matrix = chain.transition_matrix
    others = np.delete(np.arange(chain.num_states), pin)
    q = matrix[others][:, others]
    system = (sparse.identity(others.size, format="csr") - q).T
    rhs = matrix[pin][:, others].toarray().ravel()
    pi = np.insert(np.atleast_1d(sparse_linalg.spsolve(system.tocsc(), rhs)), pin, 1.0)
    # Clean tiny negative round-off and renormalise.
    pi[pi < 0] = 0.0
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        return _stationary_fallback(chain, None)
    return pi / total


def _stationary_impl(
    chain: DTMC,
    *,
    assume_irreducible: bool = False,
    method: str,
    tolerance: float,
    max_iterations: int,
) -> StationarySolve:
    """Shared stationary-distribution kernel (see the module docstring).

    ``assume_irreducible`` skips the upfront SCC pass; callers that
    know the chain is strongly connected (BSCC sub-chains) use it.
    Irreducibility is still verified before an iterate is returned or
    after a factorisation fails, so a reducible
    chain raises :class:`ReducibleChainError` instead of quietly
    returning a start-state-dependent answer.
    """
    if not assume_irreducible and not is_irreducible(chain):
        raise ReducibleChainError(
            "chain is not irreducible; use long_run_distribution() instead"
        )
    if chain.num_states == 1:
        return StationarySolve(np.ones(1), 0, False, 0.0)
    steps = _damped_steps(chain)
    if method == "direct":
        pi, _ = next(islice(steps, PROBE_ITERATIONS - 1, None))
        return StationarySolve(
            _factorise(chain, int(np.argmax(pi))), PROBE_ITERATIONS, True
        )
    lu = method == "lu"
    budget = min(ITERATION_BUDGET, max_iterations) if lu else max_iterations
    pi, iterations, error = _certified_iterate(steps, tolerance, budget, project=lu)
    if error is None:
        if not lu:
            raise SolverError(
                f"damped power iteration did not converge within"
                f" {max_iterations} iterations"
            )
        return StationarySolve(_factorise(chain, int(np.argmax(pi))), iterations, True)
    # A reducible chain has fixed points too (two absorbing states:
    # residual 0), so an iterate is an answer only on a verified chain.
    if assume_irreducible and not is_irreducible(chain):
        raise ReducibleChainError(f"the chain is not irreducible: {_NO_UNIQUE}")
    return StationarySolve(pi / pi.sum(), iterations, False, error)


def _engine(engine):
    if engine is None:
        from ..engine.core import Engine  # the engine layer imports this module

        engine = Engine()
    return engine


def stationary_distribution(
    chain: DTMC,
    *,
    engine=None,
    assume_irreducible: bool = False,
) -> np.ndarray:
    """Unique stationary distribution of an irreducible chain.

    Solves ``pi (P - I) = 0`` with ``sum(pi) = 1`` by the engine's
    configured method (a fresh default engine without one): under the
    default ``lu`` config a certified damped iterate, else a pinned
    sparse factorisation; see the module docstring.  With an
    ``engine``, the result is memoized per chain.
    """
    return _engine(engine).stationary_distribution(
        chain, assume_irreducible=assume_irreducible
    )


def absorption_probabilities(
    chain: DTMC, targets: List[List[int]], *, engine=None
) -> np.ndarray:
    """Probability, per target class, of eventually being absorbed there.

    ``targets`` is a list of disjoint absorbing classes (e.g. BSCCs).
    Returns an array of shape ``(len(targets),)`` with the probability
    of absorption into each class *from the initial distribution*.

    Uses the fundamental-matrix formulation restricted to transient
    states: ``(I - Q) x = R 1_class``, solved through the engine (a
    fresh default one without it), so the factorization of ``(I - Q)``
    is shared across classes and with every other solve against the
    same transient subsystem.
    """
    engine = _engine(engine)
    n = chain.num_states
    in_class = np.full(n, -1, dtype=np.int64)
    for class_id, members in enumerate(targets):
        in_class[np.asarray(members, dtype=np.int64)] = class_id
    classed = np.flatnonzero(in_class >= 0)
    init = chain.initial_distribution
    # Mass already starting inside a class.
    result = np.bincount(
        in_class[classed], weights=init[classed], minlength=len(targets)
    )
    transient = np.flatnonzero(in_class < 0)
    if transient.size == 0:
        return result

    indicator = sparse.csr_matrix(
        (np.ones(classed.size), (classed, in_class[classed])),
        shape=(n, len(targets)),
    )
    into = (chain.transition_matrix[transient] @ indicator).tocsc()
    for class_id in range(len(targets)):
        rhs = into[:, class_id].toarray().ravel()
        if not rhs.any():
            continue
        absorbed = engine.solve_subsystem(chain, transient, rhs)
        result[class_id] += float(init[transient] @ absorbed)
    return result


def _long_run_impl(chain: DTMC, engine) -> np.ndarray:
    """BSCC-weighted long-run distribution (the actual computation)."""
    classes = engine.bottom_sccs(chain)
    weights = absorption_probabilities(chain, classes, engine=engine)
    result = np.zeros(chain.num_states)
    for members, weight in zip(classes, weights):
        if weight <= 0.0:
            continue
        size = len(members)
        # The appended sink is unreachable for a bottom class; drop it.
        sub_chain = DTMC(
            chain.restricted_to(members).transition_matrix[:size, :size],
            np.full(size, 1.0 / size),
            validate=False,
        )
        # A BSCC is strongly connected by construction, so skip the
        # per-class SCC pass the public entry point would run.
        pi = engine._stationary_solve(sub_chain, assume_irreducible=True)
        result[members] = weight * pi
    return result


def long_run_distribution(chain: DTMC, *, engine=None) -> np.ndarray:
    """Limiting average distribution of an arbitrary finite chain.

    Decomposes into BSCCs, weighs each BSCC's stationary distribution
    by the probability of absorption into it.  For aperiodic chains
    this is also the limit of ``pi P^t``; for periodic ones it is the
    Cesàro (time-average) limit, which is what long-run rewards need.
    With an ``engine``, the decomposition and the result are memoized
    per chain.
    """
    return _engine(engine).long_run_distribution(chain)


def long_run_reward(
    chain: DTMC, reward: str | np.ndarray, *, engine=None
) -> float:
    """Long-run average reward ``R=? [ S ]`` (steady-state reward).

    With the paper's 0/1 error flag this is exactly the BER.
    """
    vec = chain.reward_vector(reward) if isinstance(reward, str) else np.asarray(reward)
    pi = long_run_distribution(chain, engine=engine)
    return float(pi @ vec)


def assert_ergodic(chain: DTMC) -> Tuple[bool, bool]:
    """Return ``(irreducible, aperiodic)`` — the paper's steady-state
    precondition check (Section III)."""
    return is_irreducible(chain), is_aperiodic(chain)
