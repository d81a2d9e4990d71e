"""Probabilistic bisimulation (Larsen & Skou) for DTMCs.

For labeled DTMCs, probabilistic bisimulation coincides with strong
lumpability restricted to label-respecting partitions, so the coarsest
bisimulation is computed with the partition-refinement engine of
:mod:`repro.core.reductions.lumping`.

The headline utility here is :func:`are_bisimilar`: it decides whether
two chains (e.g. the paper's full Viterbi model ``M`` and reduced model
``M_R``) are probabilistic bisimulations of each other with respect to
a set of labels — the formal statement behind the paper's Section
IV-A.4 proof.  The decision procedure builds the disjoint union of the
two chains, computes the coarsest bisimulation, and compares the
initial distributions block-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse

from ...dtmc.chain import DTMC
from .lumping import coarsest_lumping

__all__ = ["BisimulationResult", "coarsest_bisimulation", "are_bisimilar", "disjoint_union"]


def coarsest_bisimulation(
    chain: DTMC,
    respect: Optional[Sequence[str]] = None,
    decimals: int = 10,
) -> np.ndarray:
    """Coarsest probabilistic bisimulation partition of one chain.

    Alias of :func:`repro.core.reductions.lumping.coarsest_lumping`
    under its process-theoretic name.
    """
    return coarsest_lumping(chain, respect=respect, decimals=decimals)


def disjoint_union(first: DTMC, second: DTMC) -> DTMC:
    """Disjoint union of two chains (initial mass split 50/50).

    Only the labels and rewards *common to both* chains survive on the
    union — bisimilarity is always judged with respect to a shared
    vocabulary.
    """
    n1, n2 = first.num_states, second.num_states
    matrix = sparse.block_diag(
        (first.transition_matrix, second.transition_matrix), format="csr"
    )
    init = np.concatenate(
        [first.initial_distribution * 0.5, second.initial_distribution * 0.5]
    )
    labels = {
        name: np.concatenate([first.labels[name], second.labels[name]])
        for name in set(first.labels) & set(second.labels)
    }
    rewards = {
        name: np.concatenate([first.rewards[name], second.rewards[name]])
        for name in set(first.rewards) & set(second.rewards)
    }
    states: Optional[List] = None
    if first.states is not None and second.states is not None:
        states = [("L", s) for s in first.states] + [("R", s) for s in second.states]
    return DTMC(matrix, init, labels=labels, rewards=rewards, states=states)


@dataclass
class BisimulationResult:
    """Outcome of :func:`are_bisimilar`.

    ``equivalent`` is the verdict; ``block_of`` is the joint partition
    over the disjoint union (first chain's states first);
    ``witness`` explains a negative verdict.
    """

    equivalent: bool
    block_of: np.ndarray
    witness: Optional[str] = None


def are_bisimilar(
    first: DTMC,
    second: DTMC,
    respect: Optional[Sequence[str]] = None,
    decimals: int = 10,
) -> BisimulationResult:
    """Decide probabilistic bisimilarity of two labeled DTMCs.

    Two chains are bisimilar (as pointed processes) iff their initial
    distributions assign the same probability to every equivalence
    class of the coarsest bisimulation on the disjoint union.  With
    point initial distributions this is the textbook "initial states
    are bisimilar" check; distributions generalize it.

    Two 0-state chains are (vacuously) bisimilar; a 0-state chain is
    never bisimilar to a non-empty one (it carries no initial mass).
    """
    if respect is not None:
        shared = (set(first.labels) & set(second.labels)) | (
            set(first.rewards) & set(second.rewards)
        )
        missing = [name for name in respect if name not in shared]
        if missing:
            raise KeyError(
                f"labels {missing} are not shared by both chains"
            )
    if (first.num_states == 0) != (second.num_states == 0):
        empty = "first" if first.num_states == 0 else "second"
        return BisimulationResult(
            equivalent=False,
            block_of=np.zeros(first.num_states + second.num_states, dtype=np.int64),
            witness=f"the {empty} chain is empty, the other is not",
        )
    union = disjoint_union(first, second)
    block_of = coarsest_lumping(union, respect=respect, decimals=decimals)
    n1 = first.num_states
    num_blocks = int(block_of.max()) + 1 if block_of.size else 0
    if num_blocks == 0:  # two empty chains: vacuously bisimilar
        return BisimulationResult(equivalent=True, block_of=block_of)
    mass_first = np.bincount(
        block_of[:n1], weights=first.initial_distribution, minlength=num_blocks
    )
    mass_second = np.bincount(
        block_of[n1:], weights=second.initial_distribution, minlength=num_blocks
    )
    # The union halves each side's mass; compare the un-halved versions.
    tolerance = 10.0 ** (-decimals) * 10
    diff = np.abs(mass_first - mass_second)
    bad = int(np.argmax(diff))
    if diff[bad] > tolerance:
        return BisimulationResult(
            equivalent=False,
            block_of=block_of,
            witness=(
                f"initial mass differs on bisimulation class {bad}:"
                f" {mass_first[bad]} vs {mass_second[bad]}"
            ),
        )
    return BisimulationResult(equivalent=True, block_of=block_of)
