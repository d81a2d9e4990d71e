"""Explicit-state Discrete-Time Markov Chain (DTMC) representation.

A DTMC is the semantic object the whole library revolves around: MIMO
RTL designs are compiled into a :class:`DTMC` (one clock cycle = one
transition), pCTL properties are checked against it, and reductions
produce smaller, behaviourally equivalent :class:`DTMC` instances.

The representation is explicit-state and sparse: the transition
relation is a ``scipy.sparse.csr_matrix`` whose row ``i`` holds the
probability distribution over successors of state ``i``.  Atomic
propositions are stored as named boolean vectors (*labels*) and reward
structures as named float vectors, following the PRISM convention the
paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .sparse_utils import DTMCValidationError, as_csr, matvec_step

__all__ = ["DTMC", "DTMCValidationError", "dtmc_from_dict"]

#: Tolerance used when validating that transition rows are stochastic.
ROW_SUM_TOLERANCE = 1e-9


@dataclass
class DTMC:
    """A finite discrete-time Markov chain with labels and rewards.

    Parameters
    ----------
    transition_matrix:
        Square row-stochastic matrix; entry ``(i, j)`` is the
        probability of moving from state ``i`` to state ``j`` in one
        time step (one RTL clock cycle in the paper's modeling).
    initial_distribution:
        Probability vector over states at time 0.  A single initial
        state may be given as an integer index.
    labels:
        Mapping from atomic-proposition name to a boolean vector, e.g.
        ``{"flag": np.array([...])}``.
    rewards:
        Mapping from reward-structure name to a per-state float vector.
        The paper's reward model assigns ``reward(s) = flag(s)``.
    states:
        Optional list of the underlying state objects (tuples or
        mappings of state-variable assignments).  Kept so that pCTL
        atomic expressions over state variables can be evaluated and so
        reductions can report witness states.
    """

    transition_matrix: sparse.csr_matrix
    initial_distribution: np.ndarray
    labels: Dict[str, np.ndarray] = field(default_factory=dict)
    rewards: Dict[str, np.ndarray] = field(default_factory=dict)
    states: Optional[List[Any]] = None
    validate: bool = True

    def __post_init__(self) -> None:
        self.transition_matrix = as_csr(self.transition_matrix, require_square=True)
        n = self.transition_matrix.shape[0]
        if np.isscalar(self.initial_distribution):
            init = np.zeros(n)
            init[int(self.initial_distribution)] = 1.0
            self.initial_distribution = init
        else:
            self.initial_distribution = np.asarray(
                self.initial_distribution, dtype=np.float64
            )
        self.labels = {
            name: np.asarray(vec, dtype=bool) for name, vec in self.labels.items()
        }
        self.rewards = {
            name: np.asarray(vec, dtype=np.float64)
            for name, vec in self.rewards.items()
        }
        if self.validate:
            self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_states
        if self.initial_distribution.shape != (n,):
            raise DTMCValidationError(
                f"initial distribution has shape {self.initial_distribution.shape},"
                f" expected ({n},)"
            )
        if np.any(self.initial_distribution < -ROW_SUM_TOLERANCE):
            raise DTMCValidationError("initial distribution has negative entries")
        # A 0-state chain (e.g. the quotient of an empty chain) carries
        # no probability mass at all; otherwise the mass must be 1.
        expected = 0.0 if n == 0 else 1.0
        total = float(self.initial_distribution.sum())
        if abs(total - expected) > ROW_SUM_TOLERANCE:
            raise DTMCValidationError(
                f"initial distribution sums to {total}, expected {expected}"
            )
        if self.transition_matrix.nnz:
            data = self.transition_matrix.data
            if not np.isfinite(data).all():
                raise DTMCValidationError(
                    "transition matrix has NaN/inf entries"
                )
            if data.min() < 0:
                raise DTMCValidationError(
                    "transition matrix has negative entries"
                )
        if not np.isfinite(self.initial_distribution).all():
            raise DTMCValidationError("initial distribution has NaN/inf entries")
        row_sums = np.zeros(n)
        matvec_step(self.transition_matrix)(np.ones(n), row_sums)
        bad = np.where(~(np.abs(row_sums - 1.0) <= ROW_SUM_TOLERANCE))[0]
        if bad.size:
            raise DTMCValidationError(
                f"rows {bad[:5].tolist()} are not stochastic "
                f"(sums {row_sums[bad[:5]].tolist()})"
            )
        for name, vec in self.labels.items():
            if vec.shape != (n,):
                raise DTMCValidationError(
                    f"label {name!r} has shape {vec.shape}, expected ({n},)"
                )
        for name, vec in self.rewards.items():
            if vec.shape != (n,):
                raise DTMCValidationError(
                    f"reward {name!r} has shape {vec.shape}, expected ({n},)"
                )
        if self.states is not None and len(self.states) != n:
            raise DTMCValidationError(
                f"{len(self.states)} state objects for {n} states"
            )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states in the chain."""
        return self.transition_matrix.shape[0]

    @property
    def num_transitions(self) -> int:
        """Number of non-zero transition probabilities."""
        return self.transition_matrix.nnz

    def successors(self, state: int) -> List[Tuple[int, float]]:
        """Return ``(successor, probability)`` pairs of ``state``."""
        row = self.transition_matrix.getrow(state)
        return list(zip(row.indices.tolist(), row.data.tolist()))

    def transition_probability(self, source: int, target: int) -> float:
        """One-step probability of moving from ``source`` to ``target``."""
        return float(self.transition_matrix[source, target])

    def initial_states(self) -> List[int]:
        """Indices with non-zero initial probability."""
        return np.nonzero(self.initial_distribution)[0].tolist()

    def label_vector(self, name: str) -> np.ndarray:
        """Boolean satisfaction vector of atomic proposition ``name``."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(
                f"unknown label {name!r}; available: {sorted(self.labels)}"
            ) from None

    def reward_vector(self, name: str) -> np.ndarray:
        """Per-state reward vector of reward structure ``name``."""
        try:
            return self.rewards[name]
        except KeyError:
            raise KeyError(
                f"unknown reward {name!r}; available: {sorted(self.rewards)}"
            ) from None

    def states_satisfying(self, name: str) -> List[int]:
        """Indices of states where label ``name`` holds."""
        return np.nonzero(self.label_vector(name))[0].tolist()

    # ------------------------------------------------------------------
    # Derived labels / rewards
    # ------------------------------------------------------------------
    def add_label(self, name: str, satisfied: Iterable[int]) -> None:
        """Define label ``name`` to hold exactly on the given indices."""
        vec = np.zeros(self.num_states, dtype=bool)
        vec[list(satisfied)] = True
        self.labels[name] = vec

    def add_label_from_predicate(
        self, name: str, predicate: Callable[[Any], bool]
    ) -> None:
        """Define label ``name`` by evaluating ``predicate`` on each state object."""
        if self.states is None:
            raise ValueError("chain has no state objects to evaluate predicate on")
        self.labels[name] = np.fromiter(
            (bool(predicate(s)) for s in self.states), dtype=bool, count=self.num_states
        )

    def add_reward_from_function(
        self, name: str, fn: Callable[[Any], float]
    ) -> None:
        """Define reward ``name`` by evaluating ``fn`` on each state object."""
        if self.states is None:
            raise ValueError("chain has no state objects to evaluate reward on")
        self.rewards[name] = np.fromiter(
            (float(fn(s)) for s in self.states), dtype=np.float64, count=self.num_states
        )

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def restricted_to(self, keep: Sequence[int]) -> "DTMC":
        """Sub-chain induced by ``keep``; outgoing mass to dropped states is
        redirected to a fresh absorbing *sink* state appended at the end.

        The sink carries no labels and zero reward, so bounded
        reachability / reward values over the kept states are preserved
        exactly (the sink only absorbs probability that has left the
        retained region).
        """
        keep = np.asarray(keep, dtype=np.int64).ravel()
        sink = keep.size
        block = self.transition_matrix[keep]
        new_index = np.full(self.num_states, sink, dtype=np.int64)
        new_index[keep] = np.arange(sink)
        cols = new_index[block.indices]
        rows = np.repeat(np.arange(sink), np.diff(block.indptr))
        inside = cols != sink
        sink_mass = np.bincount(
            rows[~inside], weights=block.data[~inside], minlength=sink
        )
        leaks = np.flatnonzero(sink_mass > 0.0)
        matrix = sparse.csr_matrix(
            (
                np.concatenate([block.data[inside], sink_mass[leaks], [1.0]]),
                (np.concatenate([rows[inside], leaks, [sink]]),
                 np.concatenate([cols[inside], np.full(leaks.size, sink), [sink]])),
            ),
            shape=(sink + 1, sink + 1),
        )
        init = np.append(self.initial_distribution[keep], 0.0)
        init[sink] = 1.0 - init.sum()
        labels = {
            name: np.append(vec[keep], False) for name, vec in self.labels.items()
        }
        rewards = {
            name: np.append(vec[keep], 0.0) for name, vec in self.rewards.items()
        }
        states = None
        if self.states is not None:
            states = [self.states[i] for i in keep.tolist()] + ["<sink>"]
        return DTMC(matrix, init, labels=labels, rewards=rewards, states=states)

    def with_absorbing(self, absorbing: Iterable[int]) -> "DTMC":
        """Copy of the chain where the given states are made absorbing.

        Used by bounded-reachability model checking: once a target state
        is entered, the future does not matter, so its row is replaced
        by a self-loop.
        """
        absorbing = set(absorbing)
        lil = self.transition_matrix.tolil(copy=True)
        for i in absorbing:
            lil.rows[i] = [i]
            lil.data[i] = [1.0]
        return DTMC(
            lil.tocsr(),
            self.initial_distribution.copy(),
            labels={k: v.copy() for k, v in self.labels.items()},
            rewards={k: v.copy() for k, v in self.rewards.items()},
            states=self.states,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DTMC(states={self.num_states}, transitions={self.num_transitions},"
            f" labels={sorted(self.labels)}, rewards={sorted(self.rewards)})"
        )


def dtmc_from_dict(
    transitions: Mapping[Any, Mapping[Any, float]],
    initial: Any,
    labels: Optional[Mapping[str, Iterable[Any]]] = None,
    rewards: Optional[Mapping[str, Mapping[Any, float]]] = None,
) -> DTMC:
    """Build a :class:`DTMC` from a nested-dict description.

    Convenient for tests and small examples::

        chain = dtmc_from_dict(
            {"s0": {"s0": 0.5, "s1": 0.5}, "s1": {"s1": 1.0}},
            initial="s0",
            labels={"done": ["s1"]},
        )

    States may be arbitrary hashable objects; they are kept on the
    resulting chain (``chain.states``) in insertion order.
    """
    order: List[Any] = []
    index: Dict[Any, int] = {}

    def intern(state: Any) -> int:
        if state not in index:
            index[state] = len(order)
            order.append(state)
        return index[state]

    for src in transitions:
        intern(src)
    for src, row in transitions.items():
        for dst in row:
            intern(dst)

    n = len(order)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for src, row in transitions.items():
        i = index[src]
        for dst, p in row.items():
            rows.append(i)
            cols.append(index[dst])
            vals.append(float(p))
    # States that never appear as sources become absorbing.
    sources = {index[src] for src in transitions}
    for i in range(n):
        if i not in sources:
            rows.append(i)
            cols.append(i)
            vals.append(1.0)
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    if initial not in index:
        raise DTMCValidationError(f"initial state {initial!r} not in transitions")
    init = np.zeros(n)
    init[index[initial]] = 1.0

    label_vectors: Dict[str, np.ndarray] = {}
    for name, members in (labels or {}).items():
        vec = np.zeros(n, dtype=bool)
        for member in members:
            vec[index[member]] = True
        label_vectors[name] = vec

    reward_vectors: Dict[str, np.ndarray] = {}
    for name, mapping in (rewards or {}).items():
        vec = np.zeros(n)
        for state, value in mapping.items():
            vec[index[state]] = float(value)
        reward_vectors[name] = vec

    return DTMC(matrix, init, labels=label_vectors, rewards=reward_vectors, states=order)
