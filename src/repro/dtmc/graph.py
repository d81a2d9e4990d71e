"""Graph-theoretic analysis of DTMCs.

Provides the structural facts the paper's methodology relies on:

* reachability from the initial states (PRISM's "reachability
  iterations" fixpoint, reported as *RI* in Tables III-V);
* strongly connected components and *bottom* SCCs (BSCCs), which carry
  all long-run probability mass;
* irreducibility and aperiodicity checks — the paper's steady-state
  argument ("all finite, irreducible, aperiodic DTMC models are
  guaranteed to reach a steady state") is implemented as an explicit
  check here.

Every kernel runs on :mod:`scipy.sparse.csgraph` over the transition
matrix's sparsity pattern (stored entries are edges): SCCs come from
its strong ``connected_components`` (Pearce's algorithm, whose labels
are already in reverse topological order), and multi-source searches
are one breadth-first search from a virtual source wired to every
start state.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .chain import DTMC

__all__ = [
    "reachable_states",
    "reachability_iterations",
    "hops_to",
    "strongly_connected_components",
    "bottom_sccs",
    "is_irreducible",
    "period",
    "is_aperiodic",
    "backward_reachable",
    "constrained_backward_reachable",
]


def _indices(states: Iterable[int]) -> np.ndarray:
    if isinstance(states, np.ndarray):
        return states.astype(np.int64, copy=False).ravel()
    return np.fromiter(states, dtype=np.int64)


def _edges(chain: DTMC) -> Tuple[np.ndarray, np.ndarray]:
    """``(sources, targets)`` of every stored transition."""
    matrix = chain.transition_matrix
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return rows, matrix.indices


def _reach_mask(
    n: int, src: np.ndarray, dst: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """States reachable from ``starts`` over the edges ``src -> dst``:
    one BFS from a virtual source ``n`` with an edge to every start."""
    graph = sparse.csr_matrix(
        (
            np.ones(src.size + starts.size),
            (np.concatenate([src, np.full(starts.size, n)]),
             np.concatenate([dst, starts])),
        ),
        shape=(n + 1, n + 1),
    )
    order = csgraph.breadth_first_order(
        graph, n, directed=True, return_predecessors=False
    )
    mask = np.zeros(n + 1, dtype=bool)
    mask[order] = True
    return mask[:n]


def _as_set(mask: np.ndarray) -> Set[int]:
    return set(np.flatnonzero(mask).tolist())


def reachable_states(chain: DTMC, sources: Optional[Iterable[int]] = None) -> Set[int]:
    """States reachable (in any number of steps) from ``sources``.

    ``sources`` defaults to the chain's initial states.
    """
    if sources is None:
        sources = chain.initial_states()
    rows, cols = _edges(chain)
    return _as_set(_reach_mask(chain.num_states, rows, cols, _indices(sources)))


def reachability_iterations(
    chain: DTMC, sources: Optional[Iterable[int]] = None
) -> int:
    """Number of BFS levels until the reachable set stops growing.

    This is the *RI* fixpoint the paper reports: after ``RI``
    iterations of forward exploration no new states are discovered, and
    transient quantities computed at horizons well beyond RI are near
    their steady-state values.
    """
    if sources is None:
        sources = chain.initial_states()
    starts = _indices(sources)
    if starts.size == 0:
        return 0
    levels = csgraph.dijkstra(
        chain.transition_matrix, unweighted=True, indices=starts, min_only=True
    )
    return int(levels[np.isfinite(levels)].max())


def hops_to(chain: DTMC, targets: Iterable[int]) -> np.ndarray:
    """Fewest transitions from each state to any of ``targets`` (-1 if
    none is reachable): the backward twin of
    :func:`reachability_iterations`, one search over reversed edges."""
    hops = np.full(chain.num_states, -1, dtype=np.int64)
    starts = _indices(targets)
    if starts.size:
        levels = csgraph.dijkstra(
            chain.transition_matrix.T, unweighted=True, indices=starts, min_only=True
        )
        hops[np.isfinite(levels)] = levels[np.isfinite(levels)]
    return hops


def backward_reachable(chain: DTMC, targets: Iterable[int]) -> Set[int]:
    """States from which some state in ``targets`` is reachable."""
    rows, cols = _edges(chain)
    return _as_set(_reach_mask(chain.num_states, cols, rows, _indices(targets)))


def backward_reachable_mask(
    chain: DTMC, targets: Iterable[int], through: np.ndarray
) -> np.ndarray:
    """Boolean form of :func:`constrained_backward_reachable`, for
    callers that index with the result."""
    rows, cols = _edges(chain)
    enters = np.asarray(through, dtype=bool)[rows]
    # Reversed edges v -> u, kept only where they enter a `through` state u.
    return _reach_mask(
        chain.num_states, cols[enters], rows[enters], _indices(targets)
    )


def constrained_backward_reachable(
    chain: DTMC, targets: Iterable[int], through: np.ndarray
) -> Set[int]:
    """States that can reach ``targets`` moving only through ``through``
    states (the targets themselves need not satisfy ``through``).

    This is the graph kernel of the Prob0/Prob1 precomputations of
    pCTL model checking (Baier & Katoen, Algorithm 46).
    """
    return _as_set(backward_reachable_mask(chain, targets, through))


def _scc_labels(chain: DTMC) -> Tuple[int, np.ndarray]:
    """``(count, label per state)``; labels are in reverse topological
    order: every edge between components goes to a smaller label."""
    if chain.num_states == 0:
        return 0, np.zeros(0, dtype=np.int64)
    return csgraph.connected_components(
        chain.transition_matrix, directed=True, connection="strong"
    )


def _groups(labels: np.ndarray, wanted: np.ndarray) -> List[List[int]]:
    """Sorted members of each label with ``wanted[label]``, by ascending
    label."""
    members = np.flatnonzero(wanted[labels])
    members = members[np.argsort(labels[members], kind="stable")]
    sizes = np.bincount(labels[members], minlength=wanted.size)[wanted]
    starts = np.cumsum(sizes) - sizes
    return [members[s : s + k].tolist() for s, k in zip(starts.tolist(), sizes.tolist())]


def strongly_connected_components(chain: DTMC) -> List[List[int]]:
    """SCCs of the transition graph, each as a sorted list of states.

    Returns components in reverse topological order: every edge between
    distinct components points from a later component in the list to
    an earlier one.
    """
    count, labels = _scc_labels(chain)
    return _groups(labels, np.ones(count, dtype=bool))


def bottom_sccs(chain: DTMC) -> List[List[int]]:
    """SCCs with no outgoing edges (the chain's recurrent classes)."""
    count, labels = _scc_labels(chain)
    rows, cols = _edges(chain)
    leaving = labels[rows] != labels[cols]
    bottom = np.ones(count, dtype=bool)
    bottom[labels[rows[leaving]]] = False
    return _groups(labels, bottom)


def is_irreducible(chain: DTMC) -> bool:
    """True iff the whole state space is one strongly connected class."""
    return _scc_labels(chain)[0] == 1


def period(chain: DTMC, state: int = 0) -> int:
    """Period of ``state``: gcd of the lengths of all cycles through its class.

    Computed with the standard BFS-level trick: within the SCC of
    ``state``, the gcd of ``level(u) + 1 - level(v)`` over all edges
    ``u -> v`` inside the class equals the period.
    """
    _, labels = _scc_labels(chain)
    home = np.flatnonzero(labels == labels[state])
    inside = chain.transition_matrix[home][:, home].tocoo()
    levels = csgraph.dijkstra(
        inside, unweighted=True, indices=int(np.searchsorted(home, state))
    ).astype(np.int64)
    g = np.gcd.reduce(np.abs(levels[inside.row] + 1 - levels[inside.col]))
    return int(g)


def is_aperiodic(chain: DTMC) -> bool:
    """True iff every recurrent class of the chain has period 1."""
    for members in bottom_sccs(chain):
        if period(chain, members[0]) != 1:
            return False
    return True
