"""Abstraction-function quotients with Strong-Lumping soundness checks.

This implements the paper's reduction recipe (Section IV-A.3/4): an
abstraction function ``F_abs`` maps each concrete state to an abstract
one; states with the same image form an equivalence class; the quotient
DTMC has one state per class.  The reduction is *sound* — a
probabilistic bisimulation — iff the partition is **strongly lumpable**
(Kemeny & Snell; Derisavi et al.'s formulation is used by the paper as
the "Strong Lumping Theorem"):

    for every pair of classes ``B, C`` and every state ``s`` in ``B``,
    the total probability ``P(s, C)`` of jumping into ``C`` is the same
    for all ``s`` in ``B``.

:func:`quotient_by_function` builds the quotient and *verifies* this
condition (plus label/reward constancy per class), raising
:class:`LumpingError` with a concrete witness otherwise — the
programmatic analogue of the paper's proof obligation.

Aggregation and verification are sparse-matrix algebra, sized for
10^5+-state chains: the per-state aggregated rows are the rows of one
sparse product ``P @ B`` (``B`` the CSR block indicator), the
lumpability check is a grouped min/max reduction over that product's
``(source block, target block)`` entries (implicit zeros accounted
for), and label/reward constancy are ``np.bincount`` / ``reduceat``
per-block reductions — no per-state Python anywhere on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np
from scipy import sparse

from ...dtmc.chain import DTMC

if TYPE_CHECKING:  # pragma: no cover - import cycle (lumping imports us)
    from .lumping import RefinementStats

__all__ = ["LumpingError", "QuotientResult", "quotient_by_function", "quotient_by_partition"]

#: Tolerance for comparing aggregated transition probabilities.
DEFAULT_ATOL = 1e-9


class LumpingError(ValueError):
    """Raised when a proposed partition is not strongly lumpable."""


@dataclass
class QuotientResult:
    """A verified quotient construction.

    Attributes
    ----------
    chain:
        The quotient DTMC; its ``states`` are the abstract state
        objects (or block ids for :func:`quotient_by_partition`).
    block_of:
        Array mapping each concrete state index to its block index.
    blocks:
        Concrete state indices grouped per block, ascending; derived
        from ``block_of`` on first read.
    reduction_factor:
        ``concrete states / abstract states`` — the figure reported in
        the paper's Table II.
    refinement:
        :class:`~repro.core.reductions.lumping.RefinementStats` when the
        partition came from :func:`~repro.core.reductions.lumping.lump`
        (rounds, splitter counts); ``None`` otherwise.
    """

    chain: DTMC
    block_of: np.ndarray
    refinement: Optional["RefinementStats"] = None

    @property
    def num_blocks(self) -> int:
        return int(self.block_of.max()) + 1 if self.block_of.size else 0

    @property
    def reduction_factor(self) -> float:
        return self.block_of.shape[0] / max(1, self.num_blocks)

    @cached_property
    def blocks(self) -> List[List[int]]:
        sizes = np.bincount(self.block_of, minlength=self.num_blocks)
        order = np.argsort(self.block_of, kind="stable")
        return [order[end - size:end].tolist() for size, end in zip(sizes, np.cumsum(sizes))]


def _block_indicator(column_of: np.ndarray, num_columns: int) -> sparse.csr_matrix:
    """CSR 0/1 matrix with row ``i`` holding a one in column ``column_of[i]``
    (empty where negative), assembled straight from CSR arrays."""
    kept = column_of >= 0
    indptr = np.concatenate([[0], np.cumsum(kept)])
    columns = column_of[kept]
    return sparse.csr_matrix(
        (np.ones(columns.size), columns, indptr), shape=(column_of.size, num_columns)
    )


def _aggregate_into_blocks(
    matrix: sparse.csr_matrix, block_of: np.ndarray, num_blocks: int
) -> sparse.csr_matrix:
    """``P @ B``: row ``s`` holds the probability of ``s`` into each block.

    ``matrix`` may be a row slice of the transition matrix (e.g. the
    block representatives only); ``block_of`` always covers the full
    column space.
    """
    aggregated = matrix @ _block_indicator(block_of, num_blocks)
    aggregated.sort_indices()
    return aggregated


def _verify_strong_lumpability(
    aggregated: sparse.csr_matrix,
    block_of: np.ndarray,
    block_sizes: np.ndarray,
    atol: float,
) -> None:
    """Check ``P(s, C)`` is constant per block, implicit zeros included.

    Entries of ``aggregated`` are grouped by ``(source block, target
    block)`` with one lexsort; a group violates lumpability when its
    max-min spread (padded with 0 for members that carry no explicit
    entry) exceeds ``atol``.
    """
    coo = aggregated.tocoo()
    if coo.nnz == 0:
        return
    src_block = block_of[coo.row]
    order = np.lexsort((coo.col, src_block))
    grp_block = src_block[order]
    grp_target = coo.col[order]
    grp_value = coo.data[order]
    grp_state = coo.row[order]
    starts = np.flatnonzero(
        np.concatenate(
            [[True], (grp_block[1:] != grp_block[:-1]) | (grp_target[1:] != grp_target[:-1])]
        )
    )
    counts = np.diff(np.append(starts, grp_value.size))
    group_max = np.maximum.reduceat(grp_value, starts)
    group_min = np.minimum.reduceat(grp_value, starts)
    full = counts == block_sizes[grp_block[starts]]
    low = np.where(full, group_min, np.minimum(group_min, 0.0))
    high = np.where(full, group_max, np.maximum(group_max, 0.0))
    bad = np.flatnonzero(high - low > atol)
    if not bad.size:
        return
    g = int(bad[0])
    seg = slice(int(starts[g]), int(starts[g]) + int(counts[g]))
    seg_states, seg_values = grp_state[seg], grp_value[seg]
    block_id = int(grp_block[starts[g]])
    target = int(grp_target[starts[g]])
    hi_state = int(seg_states[np.argmax(seg_values)])
    if full[g]:
        lo_state = int(seg_states[np.argmin(seg_values)])
        lo_value = float(seg_values.min())
    else:  # witness a member with zero mass into the target block
        present = set(seg_states.tolist())
        members = np.flatnonzero(block_of == block_id)
        lo_state = int(next(m for m in members if int(m) not in present))
        lo_value = 0.0
    raise LumpingError(
        f"partition is not strongly lumpable: states {lo_state} and"
        f" {hi_state} in block {block_id} have different aggregated"
        f" probability into block {target}:"
        f" {lo_value} vs {float(seg_values.max())}"
    )


def quotient_by_partition(
    chain: DTMC,
    block_of: Sequence[int],
    abstract_states: Optional[List[Any]] = None,
    atol: float = DEFAULT_ATOL,
    verify: bool = True,
    respect: Optional[Sequence[str]] = None,
) -> QuotientResult:
    """Quotient ``chain`` by an explicit partition.

    ``block_of[i]`` is the block index of concrete state ``i``; block
    indices must be ``0..k-1``.  With ``verify=True`` (default), the
    strong-lumpability condition and per-block constancy of labels and
    rewards are checked; violations raise :class:`LumpingError` naming
    the offending states.

    ``respect`` names the labels/rewards the quotient must preserve
    (default: all).  Labels outside this set are dropped from the
    quotient — they are generally not constant per block, so they have
    no well-defined quotient value.

    A 0-state chain quotients to the 0-state chain (empty partition,
    zero blocks).
    """
    block_of = np.asarray(block_of, dtype=np.int64)
    if block_of.shape != (chain.num_states,):
        raise ValueError(
            f"partition covers {block_of.shape[0]} states, chain has"
            f" {chain.num_states}"
        )
    num_blocks = int(block_of.max()) + 1 if block_of.size else 0
    if block_of.size:
        uniques = np.unique(block_of)
        if uniques[0] < 0 or uniques.size != num_blocks:
            raise ValueError("block indices must be contiguous 0..k-1")

    block_sizes = np.bincount(block_of, minlength=num_blocks).astype(np.int64)
    order = np.argsort(block_of, kind="stable")
    starts = np.concatenate([[0], np.cumsum(block_sizes)]).astype(np.int64)
    # Stable sort keeps members ascending, so the representative of each
    # block is its lowest-numbered member.
    representatives = order[starts[:-1]] if num_blocks else np.zeros(0, dtype=np.int64)

    if respect is None:
        kept_labels = dict(chain.labels)
        kept_rewards = dict(chain.rewards)
    else:
        unknown = [
            name
            for name in respect
            if name not in chain.labels and name not in chain.rewards
        ]
        if unknown:
            raise KeyError(
                f"{unknown} are neither labels nor rewards;"
                f" available labels: {sorted(chain.labels)},"
                f" rewards: {sorted(chain.rewards)}"
            )
        kept_labels = {k: v for k, v in chain.labels.items() if k in respect}
        kept_rewards = {k: v for k, v in chain.rewards.items() if k in respect}

    if verify and num_blocks:
        # Verification needs every state's aggregated row; the quotient
        # rows are then a representative slice of the same product.
        aggregated = _aggregate_into_blocks(
            chain.transition_matrix, block_of, num_blocks
        )
        matrix = aggregated[representatives]
        _verify_strong_lumpability(aggregated, block_of, block_sizes, atol)
        for name, vec in kept_labels.items():
            true_counts = np.bincount(
                block_of, weights=vec.astype(np.float64), minlength=num_blocks
            )
            bad = np.flatnonzero((true_counts > 0) & (true_counts < block_sizes))
            if bad.size:
                raise LumpingError(
                    f"label {name!r} is not constant on block {int(bad[0])}"
                )
        for name, vec in kept_rewards.items():
            sorted_values = vec[order]
            spread = np.maximum.reduceat(sorted_values, starts[:-1]) - (
                np.minimum.reduceat(sorted_values, starts[:-1])
            )
            bad = np.flatnonzero(spread > atol)
            if bad.size:
                raise LumpingError(
                    f"reward {name!r} is not constant on block {int(bad[0])}"
                )
    else:
        # Unverified: aggregate only the representative rows — ~n/k less
        # matmul work than the full product on large chains.
        matrix = _aggregate_into_blocks(
            chain.transition_matrix[representatives], block_of, num_blocks
        )

    init = np.bincount(
        block_of, weights=chain.initial_distribution, minlength=num_blocks
    )
    labels = {name: vec[representatives].copy() for name, vec in kept_labels.items()}
    rewards = {
        name: vec[representatives].astype(np.float64)
        for name, vec in kept_rewards.items()
    }
    if abstract_states is None:
        abstract_states = list(range(num_blocks))
    quotient = DTMC(matrix, init, labels=labels, rewards=rewards, states=abstract_states)
    return QuotientResult(chain=quotient, block_of=block_of)


def quotient_by_function(
    chain: DTMC,
    abstraction: Callable[[Any], Hashable],
    atol: float = DEFAULT_ATOL,
    verify: bool = True,
) -> QuotientResult:
    """Quotient ``chain`` by an abstraction function over state objects.

    This is the paper's ``F_abs`` workflow: equivalence classes are the
    preimages of ``abstraction``, the quotient's states are the
    abstract values, and soundness (strong lumpability + label/reward
    constancy) is verified unless ``verify=False``.

    Requires the chain to carry state objects (``chain.states``).
    """
    if chain.states is None:
        raise ValueError("chain has no state objects; use quotient_by_partition")
    index_of_abstract: Dict[Hashable, int] = {}
    abstract_states: List[Hashable] = []
    block_of = np.empty(chain.num_states, dtype=np.int64)
    for i, state in enumerate(chain.states):
        image = abstraction(state)
        slot = index_of_abstract.get(image)
        if slot is None:
            slot = len(abstract_states)
            index_of_abstract[image] = slot
            abstract_states.append(image)
        block_of[i] = slot
    return quotient_by_partition(
        chain, block_of, abstract_states=abstract_states, atol=atol, verify=verify
    )
