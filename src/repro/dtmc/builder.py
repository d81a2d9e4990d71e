"""State-space exploration: compile a probabilistic next-state function
into an explicit :class:`~repro.dtmc.chain.DTMC`.

This is the bridge between RTL-style models (the Viterbi decoder and
MIMO detector modules, or guarded-command programs from
:mod:`repro.prog`) and the model-checking engine.  Two explorers share
one numbering rule: breadth-first from the initial state, a state's
index is its first occurrence in its level's state-major, branch-minor
successor stream, so state 0 is the initial state and ``bfs_levels`` is
the paper's reachability-iteration (RI) count.

* :func:`build_dtmc` takes any function mapping a hashable state to a
  finite distribution over successor states and interns states one
  branch at a time.  It serves models whose states are arbitrary Python
  objects: :mod:`repro.prog` programs, the MIMO detector, hand-written
  test chains, and the per-state reference transitions of the Viterbi
  models.
* :func:`build_array_dtmc` takes a state as a row of small ints with a
  fixed mixed radix and a vectorised step that expands a whole BFS
  level at once.  Each successor row packs into one int64 key, keys are
  interned against a sorted key array, and a level's CSR rows come out
  of array operations with no per-branch Python.  The five Viterbi
  builders use it; it keeps :func:`build_dtmc`'s probability checks and
  state limit.

Two scalability features of :func:`build_dtmc` mirror the paper's
tooling:

* ``canonicalize`` — a hook mapping each discovered state to a
  canonical representative *before* interning.  Supplying the orbit
  representative of a symmetry group performs **on-the-fly symmetry
  reduction** (Section IV-B / Table II): the quotient chain is built
  directly and the full model never materializes.
* ``branch_cutoff`` — branches with probability below the cutoff are
  discarded and the remaining branch probabilities renormalized, which
  is how PRISM's 1e-15 pruning kept the paper's 1x4 detector model
  tractable (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .chain import DTMC, DTMCValidationError

__all__ = [
    "ExplorationLimitError",
    "ExplorationResult",
    "build_array_dtmc",
    "build_dtmc",
    "build_iid_dtmc",
]

State = Hashable
Branch = Tuple[float, State]
TransitionFn = Callable[[State], Sequence[Branch]]
#: ``step(frontier)`` maps ``k`` state rows, shape ``(k, width)``, to
#: ``(probabilities (k, B), successor rows (k, B, width))``.
ArrayStepFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
#: Evaluates a label or reward on every state row at once.
RowFn = Callable[[np.ndarray], np.ndarray]

#: Probability mass lost to merging/cutoff must stay within this bound
#: of a renormalizable row.
PROBABILITY_TOLERANCE = 1e-9


class ExplorationLimitError(RuntimeError):
    """Raised when exploration exceeds ``max_states``."""


@dataclass
class ExplorationResult:
    """Outcome of :func:`build_dtmc` or :func:`build_array_dtmc`.

    Attributes
    ----------
    chain:
        The constructed DTMC (row-stochastic, validated).
    states:
        State objects in index order (also stored on ``chain.states``).
    index:
        Mapping from state object to its index.
    bfs_levels:
        Number of BFS levels needed to exhaust the reachable set; this
        equals the paper's *reachability iterations* (RI) figure.
    discarded_branches:
        Count of probability branches dropped by ``branch_cutoff``.
    """

    chain: DTMC
    states: List[State]
    index: Dict[State, int]
    bfs_levels: int
    discarded_branches: int = 0

    @property
    def num_states(self) -> int:
        return len(self.states)


def _normalize_branches(
    branches: Sequence[Branch],
    canonicalize: Optional[Callable[[State], State]],
    branch_cutoff: float,
) -> Tuple[List[Branch], int]:
    """Canonicalize successors, merge duplicates, apply the cutoff,
    and renormalize to a stochastic row."""
    merged: Dict[State, float] = {}
    for probability, successor in branches:
        probability = float(probability)
        if probability < 0:
            raise DTMCValidationError(
                f"negative branch probability {probability}"
            )
        if probability == 0.0:
            continue
        if canonicalize is not None:
            successor = canonicalize(successor)
        merged[successor] = merged.get(successor, 0.0) + probability

    discarded = 0
    if branch_cutoff > 0.0:
        kept = {s: p for s, p in merged.items() if p >= branch_cutoff}
        discarded = len(merged) - len(kept)
        merged = kept

    total = sum(merged.values())
    if not merged or total <= 0.0:
        raise DTMCValidationError(
            "state has no outgoing probability mass after cutoff; "
            "lower branch_cutoff or fix the model"
        )
    if abs(total - 1.0) > PROBABILITY_TOLERANCE and branch_cutoff == 0.0:
        raise DTMCValidationError(
            f"branch probabilities sum to {total}, expected 1.0"
        )
    return [(p / total, s) for s, p in merged.items()], discarded


def build_dtmc(
    transition_fn: TransitionFn,
    initial: State | Sequence[Branch],
    labels: Optional[Mapping[str, Callable[[State], bool]]] = None,
    rewards: Optional[Mapping[str, Callable[[State], float]]] = None,
    canonicalize: Optional[Callable[[State], State]] = None,
    branch_cutoff: float = 0.0,
    max_states: Optional[int] = None,
    keep_states: bool = True,
) -> ExplorationResult:
    """Explore the reachable state space of a probabilistic model.

    Parameters
    ----------
    transition_fn:
        Maps a state to its successor distribution as ``(probability,
        next_state)`` pairs.  Probabilities of one state's branches
        must sum to 1 (up to merging of equal successors); with a
        positive ``branch_cutoff`` the row is renormalized instead.
    initial:
        Either a single initial state or a distribution given as
        ``(probability, state)`` pairs.
    labels / rewards:
        Predicates / real-valued functions evaluated on every reachable
        state to produce the chain's atomic propositions and reward
        structures (the paper's ``flag`` label-and-reward, e.g.).
    canonicalize:
        Orbit-representative function for on-the-fly symmetry
        reduction.  Must satisfy ``canonicalize(canonicalize(s)) ==
        canonicalize(s)`` and be compatible with the dynamics (the
        model's distribution must be invariant across an orbit); the
        soundness checkers in :mod:`repro.core.reductions` can verify
        this on the built chain.
    branch_cutoff:
        Discard branches below this probability and renormalize
        (PRISM-style pruning).
    max_states:
        Abort with :class:`ExplorationLimitError` when exceeded —
        protects against accidentally exploring an unreduced model.
    keep_states:
        Keep state objects on the chain (needed for pCTL expressions
        over state variables and for reduction diagnostics).
    """
    # A plain list of (probability, state) pairs is an initial
    # distribution; anything else (including tuple-like state objects
    # such as namedtuples) is a single initial state.
    if (
        isinstance(initial, list)
        and initial
        and all(
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], (int, float))
            for item in initial
        )
    ):
        initial_branches: Sequence[Branch] = initial  # type: ignore[assignment]
    else:
        initial_branches = [(1.0, initial)]

    index: Dict[State, int] = {}
    states: List[State] = []

    def intern(state: State) -> int:
        slot = index.get(state)
        if slot is None:
            slot = len(states)
            index[state] = slot
            states.append(state)
            if max_states is not None and slot >= max_states:
                raise ExplorationLimitError(
                    f"exploration exceeded max_states={max_states}"
                )
        return slot

    initial_norm, _ = _normalize_branches(
        list(initial_branches), canonicalize, branch_cutoff=0.0
    )
    initial_pairs = [(p, intern(s)) for p, s in initial_norm]

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    discarded_total = 0

    frontier: List[int] = [i for _, i in initial_pairs]
    seen_frontier = set(frontier)
    bfs_levels = 0
    explored_upto = 0

    while frontier:
        next_frontier: List[int] = []
        for state_id in frontier:
            state = states[state_id]
            branches, discarded = _normalize_branches(
                list(transition_fn(state)), canonicalize, branch_cutoff
            )
            discarded_total += discarded
            for probability, successor in branches:
                succ_known = successor in index
                succ_id = intern(successor)
                rows.append(state_id)
                cols.append(succ_id)
                vals.append(probability)
                if not succ_known and succ_id not in seen_frontier:
                    next_frontier.append(succ_id)
                    seen_frontier.add(succ_id)
        if not next_frontier:
            break
        bfs_levels += 1
        frontier = next_frontier
        seen_frontier = set(frontier)

    n = len(states)
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    matrix.sum_duplicates()

    init_vec = np.zeros(n)
    for probability, state_id in initial_pairs:
        init_vec[state_id] += probability

    label_vectors: Dict[str, np.ndarray] = {}
    for name, predicate in (labels or {}).items():
        label_vectors[name] = np.fromiter(
            (bool(predicate(s)) for s in states), dtype=bool, count=n
        )
    reward_vectors: Dict[str, np.ndarray] = {}
    for name, fn in (rewards or {}).items():
        reward_vectors[name] = np.fromiter(
            (float(fn(s)) for s in states), dtype=np.float64, count=n
        )

    chain = DTMC(
        matrix,
        init_vec,
        labels=label_vectors,
        rewards=reward_vectors,
        states=states if keep_states else None,
    )
    return ExplorationResult(
        chain=chain,
        states=states,
        index=index,
        bfs_levels=bfs_levels,
        discarded_branches=discarded_total,
    )


def _key_weights(radix: Sequence[int]) -> np.ndarray:
    """Place values of a mixed radix, column 0 most significant.

    Raises ``ValueError`` when the product of the radices (the number
    of distinct keys) does not fit in 63 bits: keys are never wrapped.
    """
    weights: List[int] = []
    place = 1
    for base in reversed(radix):
        if int(base) < 1:
            raise ValueError(f"radix entries must be >= 1, got {list(radix)}")
        weights.append(place)
        place *= int(base)
    if place >= 1 << 63:
        raise ValueError(
            f"state radix {list(radix)} spans {place} keys, which does not"
            " fit in a 63-bit key"
        )
    return np.array(weights[::-1], dtype=np.int64)


def _check_digits(rows: np.ndarray, radix: np.ndarray) -> None:
    if rows.size and ((rows < 0).any() or (rows >= radix).any()):
        raise DTMCValidationError(
            "a state row has a column outside its radix; the packed key"
            " would alias another state"
        )


def build_array_dtmc(
    step: ArrayStepFn,
    initial: Sequence[int],
    radix: Sequence[int],
    labels: Optional[Mapping[str, RowFn]] = None,
    rewards: Optional[Mapping[str, RowFn]] = None,
    decode: Optional[Callable[[np.ndarray], List[State]]] = None,
    max_states: Optional[int] = None,
) -> ExplorationResult:
    """Explore a model whose states are rows of small ints, one BFS
    level at a time.

    Produces the chain :func:`build_dtmc` would produce from the
    equivalent per-state transition: the same states in the same order,
    the same ``bfs_levels`` and the same CSR structure, with
    probabilities equal up to the rounding of the row normalisation.

    Parameters
    ----------
    step:
        Vectorised transition: ``step(frontier)`` with ``frontier`` of
        shape ``(k, width)`` returns ``(prob, successors)`` of shapes
        ``(k, B)`` and ``(k, B, width)``; row ``i``'s branches are
        ``prob[i, j] -> successors[i, j]``.  Branches with probability 0
        are dropped (use them to pad rows with fewer than ``B``
        branches) and duplicate successors of a row are merged.
    initial:
        The initial state row (the chain starts there with probability
        1; it becomes state 0).
    radix:
        Column ``c`` of every row lies in ``range(radix[c])``.  Rows pack
        into one int64 key, so the product of the radices must stay
        below 2**63.
    labels / rewards:
        Functions of the ``(n, width)`` array of all state rows
        returning one value per state.
    decode:
        Maps the state rows to the state objects kept on the chain;
        without it each state is the tuple of its row.
    max_states:
        Abort with :class:`ExplorationLimitError` when the reachable set
        exceeds this many states (checked once per BFS level).

    A negative branch probability, a row that carries no mass, or a row
    whose mass is more than :data:`PROBABILITY_TOLERANCE` away from 1
    raises :class:`~repro.dtmc.chain.DTMCValidationError`, as in
    :func:`build_dtmc`.
    """
    weights = _key_weights(radix)
    radix_row = np.array([int(r) for r in radix], dtype=np.int64)
    width = radix_row.size
    start = np.asarray(initial, dtype=np.int64).reshape(1, width)
    _check_digits(start, radix_row)
    if max_states is not None and max_states < 1:
        raise ExplorationLimitError(f"exploration exceeded max_states={max_states}")

    # The sorted keys of every state found so far, and their indices.
    known_keys = start @ weights
    known_ids = np.zeros(1, dtype=np.int64)
    n = 1
    frontier = start
    blocks = [start]
    indices: List[np.ndarray] = []
    data: List[np.ndarray] = []
    row_lengths: List[np.ndarray] = []
    bfs_levels = 0

    while True:
        prob, successors = step(frontier)
        k = frontier.shape[0]
        prob = np.asarray(prob, dtype=np.float64).reshape(-1)
        successors = np.asarray(successors, dtype=np.int64).reshape(-1, width)
        negative = prob < 0
        if negative.any():
            raise DTMCValidationError(
                f"negative branch probability {prob[negative][0]}"
            )
        live = prob != 0.0
        source = np.repeat(np.arange(k), prob.size // k)[live]
        prob = prob[live]
        successors = successors[live]
        _check_digits(successors, radix_row)
        keys = successors @ weights

        # Intern: known keys by binary search; new keys numbered in
        # order of first occurrence in the state-major branch stream.
        slot = np.searchsorted(known_keys, keys).clip(max=known_keys.size - 1)
        known = known_keys[slot] == keys
        ids = np.empty(keys.size, dtype=np.int64)
        ids[known] = known_ids[slot[known]]
        fresh = np.flatnonzero(~known)
        new_keys, first, inverse = np.unique(
            keys[fresh], return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        ids[fresh] = n + rank[inverse]
        at = np.searchsorted(known_keys, new_keys)
        known_keys = np.insert(known_keys, at, new_keys)
        known_ids = np.insert(known_ids, at, n + rank)
        frontier = successors[fresh[first[order]]]
        n += new_keys.size
        if max_states is not None and n > max_states:
            raise ExplorationLimitError(
                f"exploration exceeded max_states={max_states}"
            )

        # Merge duplicate successors of a row (summed in branch order),
        # then normalise each row; CSR columns come out sorted.
        pairs, inverse = np.unique(source * n + ids, return_inverse=True)
        mass = np.bincount(inverse, weights=prob)
        rows = pairs // n
        lengths = np.bincount(rows, minlength=k)
        totals = np.bincount(rows, weights=mass, minlength=k)
        if (lengths == 0).any() or (totals <= 0.0).any():
            raise DTMCValidationError(
                "state has no outgoing probability mass; fix the model"
            )
        off = np.abs(totals - 1.0) > PROBABILITY_TOLERANCE
        if off.any():
            raise DTMCValidationError(
                f"branch probabilities sum to {totals[off][0]}, expected 1.0"
            )
        indices.append(pairs - rows * n)
        data.append(mass / totals[rows])
        row_lengths.append(lengths)

        if not frontier.size:
            break
        blocks.append(frontier)
        bfs_levels += 1

    indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_lengths))))
    matrix = sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(n, n)
    )
    state_rows = np.concatenate(blocks)
    init_vec = np.zeros(n)
    init_vec[0] = 1.0
    states = (
        decode(state_rows)
        if decode is not None
        else [tuple(row) for row in state_rows.tolist()]
    )
    chain = DTMC(
        matrix,
        init_vec,
        labels={name: fn(state_rows) for name, fn in (labels or {}).items()},
        rewards={name: fn(state_rows) for name, fn in (rewards or {}).items()},
        states=states,
    )
    return ExplorationResult(
        chain=chain,
        states=states,
        index={state: i for i, state in enumerate(states)},
        bfs_levels=bfs_levels,
    )


def build_iid_dtmc(
    step_distribution: Sequence[Branch],
    initial: State,
    labels: Optional[Mapping[str, Callable[[State], bool]]] = None,
    rewards: Optional[Mapping[str, Callable[[State], float]]] = None,
    branch_cutoff: float = 0.0,
) -> ExplorationResult:
    """Build the chain of an i.i.d. per-step system (memoryless redraw).

    Some RTL blocks — the paper's MIMO detector among them — redraw all
    their probabilistic inputs every clock cycle, so *every* state has
    the same successor distribution.  Exploring such a chain with
    :func:`build_dtmc` would materialize ``n`` identical dense rows one
    Python branch at a time; this constructor instead tiles the single
    row, which is orders of magnitude faster and is the explicit-state
    analogue of the factored (MTBDD) representation PRISM exploits.

    ``step_distribution`` is the common one-step outcome distribution;
    ``initial`` is the cold-start state (prepended if it is not in the
    support).  Labels/rewards are evaluated on every state as usual.
    """
    merged: Dict[State, float] = {}
    for probability, state in step_distribution:
        probability = float(probability)
        if probability < 0:
            raise DTMCValidationError(f"negative probability {probability}")
        if probability > 0:
            merged[state] = merged.get(state, 0.0) + probability
    discarded = 0
    if branch_cutoff > 0.0:
        kept = {s: p for s, p in merged.items() if p >= branch_cutoff}
        discarded = len(merged) - len(kept)
        merged = kept
    total = sum(merged.values())
    if not merged:
        raise DTMCValidationError("step distribution is empty after cutoff")
    if branch_cutoff == 0.0 and abs(total - 1.0) > PROBABILITY_TOLERANCE:
        raise DTMCValidationError(
            f"step distribution sums to {total}, expected 1.0"
        )

    support = sorted(merged)
    states: List[State] = ([initial] if initial not in merged else []) + support
    index = {state: i for i, state in enumerate(states)}
    n = len(states)
    k = len(support)

    columns = np.fromiter(
        (index[state] for state in support), dtype=np.int64, count=k
    )
    row_data = np.fromiter(
        (merged[state] / total for state in support), dtype=np.float64, count=k
    )
    indptr = np.arange(0, (n + 1) * k, k, dtype=np.int64)
    matrix = sparse.csr_matrix(
        (np.tile(row_data, n), np.tile(columns, n), indptr), shape=(n, n)
    )

    init_vec = np.zeros(n)
    init_vec[index[initial]] = 1.0

    label_vectors: Dict[str, np.ndarray] = {}
    for name, predicate in (labels or {}).items():
        label_vectors[name] = np.fromiter(
            (bool(predicate(s)) for s in states), dtype=bool, count=n
        )
    reward_vectors: Dict[str, np.ndarray] = {}
    for name, fn in (rewards or {}).items():
        reward_vectors[name] = np.fromiter(
            (float(fn(s)) for s in states), dtype=np.float64, count=n
        )

    chain = DTMC(
        matrix,
        init_vec,
        labels=label_vectors,
        rewards=reward_vectors,
        states=states,
    )
    return ExplorationResult(
        chain=chain,
        states=states,
        index=index,
        bfs_levels=1 if initial not in merged else 0,
        discarded_branches=discarded,
    )
