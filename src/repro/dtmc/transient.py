"""Transient (finite-horizon) analysis of DTMCs.

Everything the bounded pCTL operators need: the state distribution
after exactly ``t`` steps, expected instantaneous rewards (the paper's
P2 / C1 metrics, ``R=? [I=T]``), cumulative rewards, and bounded
reachability probabilities.

All routines work with a *distribution row vector* ``pi`` and iterate
``pi <- pi @ P`` with the sparse transition matrix; cost is
``O(T * nnz(P))`` and no matrix powers are ever formed.  Each step is
one call of the compiled kernel behind ``@``
(:func:`~repro.dtmc.sparse_utils.vecmat_step` /
:func:`~repro.dtmc.sparse_utils.matvec_step`) into buffers allocated
once per call, so the results are bit-identical to ``@``.  An optional
:class:`repro.engine.Engine` can be passed; transient iteration has no
factorizations to share, so the engine's role here is provenance — it
accounts the matrix-vector products performed on its behalf.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .chain import DTMC
from .sparse_utils import matvec_step, step_vector, vecmat_step

__all__ = [
    "distribution_at",
    "distribution_trajectory",
    "instantaneous_reward",
    "cumulative_reward",
    "bounded_reachability",
    "bounded_invariance",
    "expected_visits",
]


def _account(engine, steps: int) -> None:
    """Report ``steps`` sparse matvecs to the engine's work counters."""
    if engine is not None and steps > 0:
        engine.count_matvecs(steps)


def distribution_at(
    chain: DTMC,
    t: int,
    initial: Optional[np.ndarray] = None,
    *,
    engine=None,
) -> np.ndarray:
    """State distribution after exactly ``t`` transitions.

    ``initial`` defaults to the chain's initial distribution.
    """
    if t < 0:
        raise ValueError(f"time bound must be non-negative, got {t}")
    pi = step_vector(
        chain.initial_distribution if initial is None else initial, chain.num_states
    )
    step = vecmat_step(chain.transition_matrix)
    spare = np.empty_like(pi)
    for _ in range(t):
        spare.fill(0.0)
        step(pi, spare)
        pi, spare = spare, pi
    _account(engine, t)
    return pi


def distribution_trajectory(
    chain: DTMC,
    horizon: int,
    initial: Optional[np.ndarray] = None,
    *,
    engine=None,
) -> Iterator[np.ndarray]:
    """Yield the distribution at steps ``0, 1, ..., horizon`` lazily."""
    pi = step_vector(
        chain.initial_distribution if initial is None else initial, chain.num_states
    )
    step = vecmat_step(chain.transition_matrix)
    spare = np.empty_like(pi)
    yield pi.copy()
    for _ in range(horizon):
        spare.fill(0.0)
        step(pi, spare)
        pi, spare = spare, pi
        _account(engine, 1)
        yield pi.copy()


def instantaneous_reward(
    chain: DTMC, reward: str | np.ndarray, t: int, *, engine=None
) -> float:
    """Expected reward earned *at* step ``t``: ``R=? [ I=t ]``.

    This is the paper's average-case metric P2 (and C1 for the
    convergence model): with the 0/1 ``flag`` reward it is the
    probability that the bit decoded at step ``t`` is in error, which
    converges to the BER as ``t`` grows past the reachability fixpoint.
    """
    vec = chain.reward_vector(reward) if isinstance(reward, str) else np.asarray(reward)
    pi = distribution_at(chain, t, engine=engine)
    return float(pi @ vec)


def cumulative_reward(
    chain: DTMC, reward: str | np.ndarray, t: int, *, engine=None
) -> float:
    """Expected total reward accumulated over steps ``0 .. t-1``: ``R=? [ C<=t ]``."""
    vec = chain.reward_vector(reward) if isinstance(reward, str) else np.asarray(reward)
    total = 0.0
    pi = step_vector(chain.initial_distribution, chain.num_states)
    step = vecmat_step(chain.transition_matrix)
    spare = np.empty_like(pi)
    for _ in range(t):
        total += float(pi @ vec)
        spare.fill(0.0)
        step(pi, spare)
        pi, spare = spare, pi
    _account(engine, t)
    return total


def expected_visits(chain: DTMC, t: int, *, engine=None) -> np.ndarray:
    """Expected number of visits to each state during steps ``0 .. t``."""
    visits = np.zeros(chain.num_states)
    for pi in distribution_trajectory(chain, t, engine=engine):
        visits += pi
    return visits


def bounded_reachability(
    chain: DTMC,
    target: np.ndarray,
    t: int,
    avoid: Optional[np.ndarray] = None,
    *,
    engine=None,
) -> np.ndarray:
    """Per-state probability of reaching ``target`` within ``t`` steps.

    Implements the bounded-until recurrence used by ``P=? [ F<=t phi ]``
    and ``P=? [ psi U<=t phi ]``:

    ``x_0 = [target]``;
    ``x_{k+1} = [target] + [psi & !target] * (P @ x_k)``

    ``avoid`` gives the complement of ``psi`` (states that must *not*
    be passed through); by default every state may be traversed.
    Returns the full solution vector; dot with an initial distribution
    for the from-initial value.

    Each step is one kernel call over the may-pass rows only, into an
    accumulator seeded with ``[target]``: target and avoid rows sum
    nothing, and may-pass rows start from ``0.0`` exactly as ``P @ x``
    does, so ``x`` is bit-identical to
    ``np.where(target, 1, np.where(may_pass, P @ x, 0))``.
    """
    target = np.asarray(target, dtype=bool)
    if avoid is None:
        may_pass = ~target
    else:
        may_pass = ~target & ~np.asarray(avoid, dtype=bool)
    seed = step_vector(target, chain.num_states)
    step = matvec_step(chain.transition_matrix, may_pass)
    x, spare = seed.copy(), np.empty_like(seed)
    for _ in range(t):
        np.copyto(spare, seed)
        step(x, spare)
        x, spare = spare, x
    _account(engine, t)
    return x


def bounded_invariance(
    chain: DTMC, safe: np.ndarray, t: int, *, engine=None
) -> np.ndarray:
    """Per-state probability that ``safe`` holds at *every* step ``0 .. t``.

    This is ``P=? [ G<=t phi ]`` — the paper's best-case metric P1 with
    ``phi = !flag``.  Uses the duality ``G<=t phi == !(F<=t !phi)``.
    """
    safe = np.asarray(safe, dtype=bool)
    violating = ~safe
    reach_bad = bounded_reachability(chain, violating, t, engine=engine)
    return 1.0 - reach_bad
