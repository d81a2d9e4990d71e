"""Optimal state-space lumping by vectorized partition refinement.

Computes the *coarsest* strongly-lumpable partition of a DTMC that
respects its labels and rewards — the algorithm of Derisavi, Hermanns &
Sanders ("Optimal state-space lumping in Markov chains", IPL 2003),
which the paper cites as reference [17] to justify its reductions.

The refinement loop starts from the partition induced by each state's
(label, reward) signature, refined by the hop-distance *seed* below;
each round splits every block whose members' probability masses into
the current blocks disagree, until a round splits nothing.  The result
is the unique coarsest probabilistic bisimulation (Larsen & Skou)
respecting the labeling, so quotienting by it is sound.  Masses are
compared after rounding to ``decimals`` digits.

One sparse kernel runs every round: one product ``P @ B`` with the CSR
indicator ``B`` of the round's *dirty* blocks (states outside them get
empty rows), rounded, each row hashed into two 64-bit SplitMix
fingerprints of its ``(column, rounded value)`` entries in any order,
leaving out entries that round to zero.  States regroup by ``(block,
live entries, h1, h2)``.  The first round marks every block dirty;
each later round marks the children of blocks that just split,
Derisavi's worklist, batched (an unsplit block is stable with respect
to every clean block).

**Seed.**  A round-synchronous refiner needs a round per hop on a
path-like chain (``n - 1`` for a birth-death chain that lumps to
itself), so before the first round each state is also told apart by
its :func:`~repro.dtmc.graph.hops_to` distance to each respected label;
if that leaves only singletons, no round runs.  Guard: every stored
probability is at least ``10**-decimals``.  Then a state's rounded mass
into a block is nonzero exactly when it has an edge into the block, so
states the refinement keeps together have edges into the same blocks;
each respected label is a union of blocks, so by induction on ``k``
both are within ``k`` hops of the label or neither is.  The seed thus
never separates states the unseeded loop keeps together.  Chains that
fail the guard (every Viterbi chain does) get no seed, as
``RefinementStats.seed_blocks`` records.

A fingerprint collision — probability ``~ n^2 / 2^128`` — could merge
two distinguishable states; the strong-lumpability verification in
:func:`~repro.core.reductions.abstraction.quotient_by_partition` (kept
on by :func:`lump`) would reject such a partition loudly.

The pre-vectorization pure-Python implementation is retained as
:func:`_coarsest_lumping_reference` for golden-parity tests and as the
measured baseline of ``benchmarks/test_bench_reduce.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ...dtmc.chain import DTMC
from ...dtmc.graph import hops_to
from .abstraction import QuotientResult, _block_indicator, quotient_by_partition

__all__ = [
    "RefinementStats",
    "initial_partition",
    "coarsest_lumping",
    "coarsest_lumping_with_stats",
    "lump",
]


@dataclass(frozen=True)
class RefinementStats:
    """Provenance of one partition-refinement run.

    ``rounds`` counts refinement iterations (signature passes);
    ``splitters`` counts the splitter blocks processed across all
    iterations.
    ``initial_blocks`` counts the (label, reward) partition's blocks and
    ``seed_blocks`` the hop-distance seed's, or is ``None`` when no seed
    applied.
    """

    rounds: int
    splitters: int
    initial_blocks: int
    final_blocks: int
    seed_blocks: Optional[int] = None


# ----------------------------------------------------------------------
# Vectorized kernel: renumbering, signature rounding, row grouping
# ----------------------------------------------------------------------

def _group_by_keys(keys: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal key tuples into canonical first-seen-numbered ids.

    ``keys`` lists the key components, most significant first.  Returns
    ``(group_of, representatives)`` where ``group_of[i]`` is the group
    id of element ``i`` (contiguous ``0..G-1``, numbered by first
    occurrence) and ``representatives[g]`` is the lowest element index
    in group ``g``.  One lexsort plus boundary scans — ``O(n log n)``
    with no per-element Python and no void-dtype copies.
    """
    n = keys[0].size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort(tuple(reversed(keys)))
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for key in keys:
        key_sorted = key[order]
        boundary[1:] |= key_sorted[1:] != key_sorted[:-1]
    gid_sorted = np.cumsum(boundary) - 1
    num_groups = int(gid_sorted[-1]) + 1
    starts = np.flatnonzero(boundary)
    first_occurrence = np.minimum.reduceat(order, starts)
    rank = np.empty(num_groups, dtype=np.int64)
    rank[np.argsort(first_occurrence, kind="stable")] = np.arange(num_groups)
    group_of = np.empty(n, dtype=np.int64)
    group_of[order] = rank[gid_sorted]
    representatives = np.empty(num_groups, dtype=np.int64)
    representatives[rank] = first_occurrence
    return group_of, representatives


_HASH_SALTS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F))
_HASH_MULT1 = np.uint64(0xFF51AFD7ED558CCD)
_HASH_MULT2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT33 = np.uint64(33)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64-style avalanche over a uint64 array (mod 2^64)."""
    x = x ^ (x >> _SHIFT33)
    x = x * _HASH_MULT1
    x = x ^ (x >> _SHIFT33)
    x = x * _HASH_MULT2
    return x ^ (x >> _SHIFT33)


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of CSR-aligned ``values`` (cumsum differences, so
    empty rows sum to 0 and uint64 sums wrap mod 2^64)."""
    cumulative = np.zeros(values.size + 1, dtype=values.dtype)
    np.cumsum(values, out=cumulative[1:])
    return cumulative[indptr[1:]] - cumulative[indptr[:-1]]


def _split_round(
    matrix: sparse.csr_matrix, block_of: np.ndarray, dirty: np.ndarray, decimals: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split every block by its members' rounded mass into each ``dirty``
    block: ``(new_block_of, parent block of each new block)``."""
    compact = np.cumsum(dirty) - 1
    column_of = np.where(dirty, compact, -1)[block_of]
    sig = matrix @ _block_indicator(column_of, int(compact[-1]) + 1)
    value = np.round(sig.data, decimals) + 0.0  # + 0.0 folds -0.0 into 0.0
    live = value != 0.0
    bits = value.view(np.uint64)
    cols = sig.indices.astype(np.uint64)
    keys = [block_of, _row_sums(live.astype(np.int64), sig.indptr)]
    for salt in _HASH_SALTS:
        entry = _mix64(bits ^ _mix64(cols + salt))
        entry[~live] = 0
        keys.append(_row_sums(entry, sig.indptr).view(np.int64))
    new_block_of, representatives = _group_by_keys(keys)
    return new_block_of, block_of[representatives]


# ----------------------------------------------------------------------
# Initial partition
# ----------------------------------------------------------------------

def initial_partition(
    chain: DTMC, respect: Optional[Sequence[str]] = None, decimals: int = 10
) -> np.ndarray:
    """Partition states by their (label, reward) signature.

    ``respect`` restricts which labels/rewards matter (default: all of
    them); properties over other labels are *not* preserved by the
    resulting lumping.  Duplicate names in ``respect`` are rejected, and
    unknown names raise a :class:`KeyError` listing what the chain
    actually carries.
    """
    n = chain.num_states
    names = list(respect) if respect is not None else (
        sorted(chain.labels) + sorted(chain.rewards)
    )
    if respect is not None:
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate names in respect: {duplicates};"
                f" each label/reward may be listed at most once"
            )
    columns: List[np.ndarray] = []
    for name in names:
        if name in chain.labels:
            columns.append(chain.labels[name].astype(np.float64))
        elif name in chain.rewards:
            columns.append(np.round(chain.rewards[name], decimals) + 0.0)
        else:
            raise KeyError(
                f"{name!r} is neither a label nor a reward of this chain;"
                f" available labels: {sorted(chain.labels)},"
                f" rewards: {sorted(chain.rewards)}"
            )
    if n == 0 or not columns:
        return np.zeros(n, dtype=np.int64)
    return _group_by_keys(columns)[0]


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------

def _refine(
    matrix: sparse.csr_matrix,
    block_of: np.ndarray,
    decimals: int,
    max_rounds: Optional[int],
) -> Tuple[np.ndarray, int, int]:
    """Split round by round until a round splits nothing; returns
    ``(block_of, rounds, splitters)``."""
    num_blocks = int(block_of.max()) + 1
    dirty = np.ones(num_blocks, dtype=bool)
    rounds = splitters = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise RuntimeError("partition refinement exceeded max_rounds")
        splitters += int(np.count_nonzero(dirty))
        new_block_of, parent_of = _split_round(matrix, block_of, dirty, decimals)
        if parent_of.size == num_blocks:
            return block_of, rounds, splitters
        split_parent = np.bincount(parent_of, minlength=num_blocks) > 1
        dirty = split_parent[parent_of]
        block_of = new_block_of
        num_blocks = parent_of.size


def _hop_seed(
    chain: DTMC, block_of: np.ndarray, respect: Optional[Sequence[str]], decimals: int
) -> Optional[np.ndarray]:
    """``block_of`` refined by each state's hop distance to each respected
    label, or ``None`` when the guard fails or no label is respected."""
    names = chain.labels if respect is None else respect
    labels = [chain.labels[name] for name in names if name in chain.labels]
    data = chain.transition_matrix.data
    if not labels or np.min(data, initial=np.inf) < 10.0 ** (-decimals):
        return None
    hops = [hops_to(chain, np.flatnonzero(label)) for label in labels]
    return _group_by_keys([block_of, *hops])[0]


def coarsest_lumping_with_stats(
    chain: DTMC,
    respect: Optional[Sequence[str]] = None,
    decimals: int = 10,
    max_rounds: Optional[int] = None,
) -> Tuple[np.ndarray, RefinementStats]:
    """Coarsest lumping plus :class:`RefinementStats` provenance."""
    block_of = initial_partition(chain, respect, decimals)
    if chain.num_states == 0:
        return block_of, RefinementStats(0, 0, 0, 0)
    initial_blocks = int(block_of.max()) + 1
    seeded = _hop_seed(chain, block_of, respect, decimals)
    seed_blocks = None if seeded is None else int(seeded.max()) + 1
    if seed_blocks == chain.num_states:
        block_of, rounds, splitters = seeded, 0, 0
    else:
        block_of, rounds, splitters = _refine(
            chain.transition_matrix,
            block_of if seeded is None else seeded,
            decimals,
            max_rounds,
        )
    return block_of, RefinementStats(
        rounds=rounds,
        splitters=splitters,
        initial_blocks=initial_blocks,
        final_blocks=int(block_of.max()) + 1,
        seed_blocks=seed_blocks,
    )


def coarsest_lumping(
    chain: DTMC,
    respect: Optional[Sequence[str]] = None,
    decimals: int = 10,
    max_rounds: Optional[int] = None,
) -> np.ndarray:
    """Coarsest strongly-lumpable partition respecting labels/rewards.

    Returns ``block_of`` suitable for
    :func:`~repro.core.reductions.abstraction.quotient_by_partition`.
    """
    block_of, _ = coarsest_lumping_with_stats(
        chain, respect=respect, decimals=decimals, max_rounds=max_rounds
    )
    return block_of


def lump(
    chain: DTMC,
    respect: Optional[Sequence[str]] = None,
    decimals: int = 10,
) -> QuotientResult:
    """Lump ``chain`` to its smallest equivalent quotient.

    One-call convenience: computes the coarsest lumping and quotients
    by it (verification is cheap and kept on as a safety net).  The
    returned :class:`~repro.core.reductions.abstraction.QuotientResult`
    carries the refinement provenance on ``.refinement``.

    A chain that is its own coarsest lumping (one block per state, as
    every birth-death chain is) skips the quotient product and its
    verification: first-seen numbering makes that partition the
    identity, so its quotient is the chain itself, bit for bit, with
    labels and rewards restricted to ``respect``.
    """
    block_of, stats = coarsest_lumping_with_stats(
        chain, respect=respect, decimals=decimals
    )
    n = chain.num_states
    if n and stats.final_blocks == n:
        def kept(vectors):
            return {k: v for k, v in vectors.items() if respect is None or k in respect}

        same = DTMC(
            chain.transition_matrix,
            chain.initial_distribution,
            labels=kept(chain.labels),
            rewards=kept(chain.rewards),
            states=list(range(n)),
        )
        return QuotientResult(same, block_of, refinement=stats)
    atol = 10.0 ** (-decimals) * 10
    result = quotient_by_partition(chain, block_of, atol=atol, respect=respect)
    result.refinement = stats
    return result


# ----------------------------------------------------------------------
# Pure-Python reference (golden baseline)
# ----------------------------------------------------------------------

def _coarsest_lumping_reference(
    chain: DTMC,
    respect: Optional[Sequence[str]] = None,
    decimals: int = 10,
    max_rounds: Optional[int] = None,
) -> np.ndarray:
    """Per-state pure-Python refinement, kept as the golden reference.

    Semantically identical to :func:`coarsest_lumping` (same rounding,
    same dropped-zero convention, same canonical numbering) but built
    from per-state dicts — the pre-vectorization implementation.  Used
    by the parity tests and measured as the baseline in
    ``benchmarks/test_bench_reduce.py``; not part of the public API.
    """
    n = chain.num_states
    signatures: List[Tuple[Hashable, ...]] = [() for _ in range(n)]
    names = respect if respect is not None else (
        sorted(chain.labels) + sorted(chain.rewards)
    )
    for name in names:
        if name in chain.labels:
            vec = chain.labels[name]
            signatures = [
                sig + (bool(vec[i]),) for i, sig in enumerate(signatures)
            ]
        elif name in chain.rewards:
            vec = np.round(chain.rewards[name], decimals)
            signatures = [
                sig + (float(vec[i]),) for i, sig in enumerate(signatures)
            ]
        else:
            raise KeyError(f"{name!r} is neither a label nor a reward")
    block_ids: Dict[Tuple[Hashable, ...], int] = {}
    block_of = np.empty(n, dtype=np.int64)
    for i, sig in enumerate(signatures):
        block_of[i] = block_ids.setdefault(sig, len(block_ids))

    matrix = chain.transition_matrix
    rounds = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise RuntimeError("partition refinement exceeded max_rounds")
        num_blocks = int(block_of.max()) + 1 if n else 0
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        row_signatures: List[Tuple] = []
        for s in range(n):
            row: Dict[int, float] = defaultdict(float)
            for k in range(indptr[s], indptr[s + 1]):
                row[int(block_of[indices[k]])] += float(data[k])
            row_signatures.append(
                tuple(sorted(
                    (b, rounded)
                    for b, p in row.items()
                    if (rounded := round(p, decimals)) != 0.0
                ))
            )
        new_ids: Dict[Tuple[int, Tuple], int] = {}
        new_block_of = np.empty(n, dtype=np.int64)
        for s in range(n):
            key = (int(block_of[s]), row_signatures[s])
            new_block_of[s] = new_ids.setdefault(key, len(new_ids))
        if len(new_ids) == num_blocks:
            return block_of
        block_of = new_block_of
