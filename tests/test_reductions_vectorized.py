"""Tests for the vectorized reduction engine.

Covers the sparse-algebra rewrite of ``repro.core.reductions``:

* golden parity of the vectorized refinement against the retained
  pure-Python reference, on small hypothesis chains and on larger
  seeded random-sparse chains;
* permutation invariance — relabeling states must permute the blocks,
  never change them;
* ``decimals`` rounding edge cases near block boundaries;
* the permutation and rounding cases on each refinement schedule in
  ``SCHEDULES``;
* 0-state / 0-block regression cases (empty quotients, empty
  bisimilarity);
* input validation of ``initial_partition`` / ``quotient_by_partition``
  (duplicate ``respect`` names, unknown names listing what exists);
* refinement provenance (``RefinementStats``, ``BuiltScenario.extra``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import zoo
from repro.core.reductions import (
    LumpingError,
    RefinementStats,
    are_bisimilar,
    coarsest_lumping,
    coarsest_lumping_with_stats,
    initial_partition,
    lump,
    quotient_by_partition,
)
from repro.core.reductions.lumping import _coarsest_lumping_reference
from repro.dtmc import DTMC, dtmc_from_dict

from helpers import knuth_yao_die, random_dtmcs, two_state_chain

#: The refinement schedules under test, by name.  ``"splitters"`` is the
#: vectorized refiner, which re-signs only the children of blocks that
#: just split; ``"rounds"`` is the pure-Python reference, which re-signs
#: every block every round.  Both must return the same canonical
#: partition, so the edge cases below run on each.
SCHEDULES = {"rounds": _coarsest_lumping_reference, "splitters": coarsest_lumping}


def empty_chain() -> DTMC:
    return DTMC(
        sparse.csr_matrix((0, 0)),
        np.zeros(0),
        labels={"goal": np.zeros(0, dtype=bool)},
        rewards={"cost": np.zeros(0)},
    )


def random_sparse_chain(n=400, num_blocks=20, seed=3) -> DTMC:
    return zoo.build(
        "random-sparse",
        {"n": n, "num_blocks": num_blocks, "degree": 3, "seed": seed},
        reduce=False,
    ).chain


# ----------------------------------------------------------------------
# Golden parity: vectorized refinement vs pure-Python reference
# ----------------------------------------------------------------------

class TestGoldenParity:
    @given(random_dtmcs())
    @settings(max_examples=30, deadline=None)
    def test_small_random_chains_match_reference(self, chain):
        reference = _coarsest_lumping_reference(chain)
        assert np.array_equal(coarsest_lumping(chain), reference)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_sparse_chains_match_reference(self, seed):
        chain = random_sparse_chain(seed=seed)
        reference = _coarsest_lumping_reference(chain, respect=["goal"])
        assert np.array_equal(coarsest_lumping(chain, respect=["goal"]), reference)

    def test_respecting_rewards_matches_reference(self):
        chain = random_sparse_chain()
        assert np.array_equal(
            coarsest_lumping(chain, respect=["block"]),
            _coarsest_lumping_reference(chain, respect=["block"]),
        )

    def test_canonical_numbering_is_first_seen(self):
        chain = knuth_yao_die()
        block_of = coarsest_lumping(chain, respect=["done"])
        # First occurrences of each block id must appear in id order.
        first_seen = [int(block_of[np.flatnonzero(block_of == b)[0]])
                      for b in range(int(block_of.max()) + 1)]
        assert first_seen == sorted(first_seen)

    def test_max_rounds_enforced(self):
        # The die needs 3 refinement rounds when respecting "done".
        chain = knuth_yao_die()
        with pytest.raises(RuntimeError, match="max_rounds"):
            coarsest_lumping(chain, respect=["done"], max_rounds=1)
        block_of = coarsest_lumping(chain, respect=["done"], max_rounds=10)
        assert int(block_of.max()) + 1 == 5


# ----------------------------------------------------------------------
# Permutation invariance
# ----------------------------------------------------------------------

class TestPermutationInvariance:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_blocked_permutation_invariance(self, schedule, seed):
        """Relabeling states permutes the partition, never changes it."""
        chain = random_sparse_chain(n=300, num_blocks=15, seed=seed)
        rng = np.random.default_rng(seed + 100)
        perm = rng.permutation(chain.num_states)
        # permuted[perm[i]] corresponds to original state i.
        p = sparse.csr_matrix(
            (np.ones(chain.num_states), (perm, np.arange(chain.num_states))),
            shape=(chain.num_states,) * 2,
        )
        permuted = DTMC(
            (p @ chain.transition_matrix @ p.T).tocsr(),
            np.asarray(p @ chain.initial_distribution).ravel(),
            labels={k: np.asarray(p @ v, dtype=bool) for k, v in chain.labels.items()},
            rewards={k: np.asarray(p @ v) for k, v in chain.rewards.items()},
        )
        refine = SCHEDULES[schedule]
        original = refine(chain, respect=["goal"])
        shuffled = refine(permuted, respect=["goal"])
        # Same number of blocks, and i ~ j iff perm[i] ~ perm[j].
        assert int(original.max()) == int(shuffled.max())
        pulled_back = shuffled[perm]
        for block in range(int(original.max()) + 1):
            members = np.flatnonzero(original == block)
            assert len(set(pulled_back[members].tolist())) == 1

    def test_permuted_chain_is_bisimilar(self):
        chain = random_sparse_chain(n=120, num_blocks=6, seed=1)
        rng = np.random.default_rng(9)
        perm = rng.permutation(chain.num_states)
        p = sparse.csr_matrix(
            (np.ones(chain.num_states), (perm, np.arange(chain.num_states))),
            shape=(chain.num_states,) * 2,
        )
        permuted = DTMC(
            (p @ chain.transition_matrix @ p.T).tocsr(),
            np.asarray(p @ chain.initial_distribution).ravel(),
            labels={"goal": np.asarray(p @ chain.labels["goal"], dtype=bool)},
        )
        assert are_bisimilar(chain, permuted, respect=["goal"]).equivalent


# ----------------------------------------------------------------------
# Rounding (`decimals`) edge cases near block boundaries
# ----------------------------------------------------------------------

class TestDecimalsEdgeCases:
    @staticmethod
    def _near_tie_chain(delta: float) -> DTMC:
        """a and b jump to the labeled sink with probabilities delta apart."""
        return dtmc_from_dict(
            {
                "a": {"c": 0.5, "a": 0.5},
                "b": {"c": 0.5 + delta, "b": 0.5 - delta},
                "c": {"c": 1.0},
            },
            initial="a",
            labels={"sink": ["c"]},
        )

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_sub_rounding_difference_is_merged(self, schedule):
        chain = self._near_tie_chain(1e-12)
        block_of = SCHEDULES[schedule](chain, decimals=10)
        assert block_of[0] == block_of[1]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_supra_rounding_difference_splits(self, schedule):
        refine = SCHEDULES[schedule]
        chain = self._near_tie_chain(1e-12)
        block_of = refine(chain, decimals=14)
        assert block_of[0] != block_of[1]
        coarse = self._near_tie_chain(1e-4)
        block_of = refine(coarse, decimals=10)
        assert block_of[0] != block_of[1]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_mass_rounding_to_zero_is_dropped(self, schedule):
        """A residual 1e-14 edge must not distinguish otherwise-equal states."""
        tiny = 1e-14
        matrix = sparse.csr_matrix(
            np.array(
                [
                    [0.5, 0.0, 0.5, 0.0],
                    [0.5 - tiny, tiny, 0.5, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
        chain = DTMC(matrix, 0, labels={"end": np.array([0, 0, 1, 1], dtype=bool)})
        block_of = SCHEDULES[schedule](chain, decimals=10)
        assert block_of[0] == block_of[1]

    def test_negative_zero_rewards_do_not_split(self):
        chain = DTMC(
            sparse.identity(2, format="csr"),
            np.array([0.5, 0.5]),
            rewards={"drift": np.array([-1e-15, 1e-15])},
        )
        assert int(initial_partition(chain, decimals=10).max()) == 0


# ----------------------------------------------------------------------
# 0-state / 0-block regressions (satellite)
# ----------------------------------------------------------------------

class TestEmptyChains:
    def test_empty_quotient(self):
        result = quotient_by_partition(empty_chain(), [])
        assert result.num_blocks == 0
        assert result.chain.num_states == 0
        assert result.blocks == []
        assert result.block_of.shape == (0,)

    def test_empty_initial_partition_and_lumping(self):
        chain = empty_chain()
        assert initial_partition(chain).shape == (0,)
        assert coarsest_lumping(chain).shape == (0,)

    def test_empty_lump(self):
        result = lump(empty_chain())
        assert result.num_blocks == 0
        assert result.refinement.final_blocks == 0

    def test_two_empty_chains_are_bisimilar(self):
        verdict = are_bisimilar(empty_chain(), empty_chain())
        assert verdict.equivalent is True

    def test_empty_vs_nonempty_not_bisimilar(self):
        verdict = are_bisimilar(empty_chain(), two_state_chain())
        assert verdict.equivalent is False
        assert "empty" in verdict.witness


# ----------------------------------------------------------------------
# Input validation (satellite)
# ----------------------------------------------------------------------

class TestValidation:
    def test_initial_partition_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="in_b"):
            initial_partition(two_state_chain(), respect=["nope"])
        with pytest.raises(KeyError, match="hit"):
            initial_partition(two_state_chain(), respect=["nope"])

    def test_initial_partition_duplicate_respect_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            initial_partition(two_state_chain(), respect=["in_b", "in_b"])
        with pytest.raises(ValueError, match="duplicate"):
            coarsest_lumping(two_state_chain(), respect=["hit", "in_b", "hit"])

    def test_quotient_unknown_respect_lists_available(self):
        with pytest.raises(KeyError, match="in_b"):
            quotient_by_partition(two_state_chain(), [0, 1], respect=["nope"])

    def test_quotient_rejects_negative_block_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            quotient_by_partition(two_state_chain(), [-1, 0])


# ----------------------------------------------------------------------
# Vectorized verification spot checks
# ----------------------------------------------------------------------

class TestVectorizedVerification:
    def test_implicit_zero_mass_detected(self):
        """A member with *no* edge into the target block must count as 0."""
        chain = dtmc_from_dict(
            {
                "a": {"c": 1.0},
                "b": {"b": 1.0},
                "c": {"c": 1.0},
            },
            initial="a",
        )
        with pytest.raises(LumpingError, match="strongly lumpable"):
            quotient_by_partition(chain, [0, 0, 1])

    def test_reward_constancy_vectorized(self):
        chain = DTMC(
            sparse.identity(3, format="csr"),
            np.array([1.0, 0.0, 0.0]),
            rewards={"cost": np.array([1.0, 2.0, 2.0])},
        )
        with pytest.raises(LumpingError, match="reward 'cost'"):
            quotient_by_partition(chain, [0, 0, 1])
        result = quotient_by_partition(chain, [0, 1, 1])
        assert result.chain.rewards["cost"].tolist() == [1.0, 2.0]

    def test_large_verified_quotient_matches_known_answer(self):
        chain = random_sparse_chain(n=600, num_blocks=30, seed=12)
        block_of = coarsest_lumping(chain, respect=["goal"])
        result = quotient_by_partition(
            chain, block_of, atol=1e-9 * 10, respect=["goal"], verify=True
        )
        assert result.num_blocks == 30
        row_sums = np.asarray(result.chain.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 1.0)


# ----------------------------------------------------------------------
# Refinement provenance
# ----------------------------------------------------------------------

class TestProvenance:
    def test_with_stats_reports_rounds_and_splitters(self):
        block_of, stats = coarsest_lumping_with_stats(knuth_yao_die(), respect=["done"])
        assert isinstance(stats, RefinementStats)
        assert stats.rounds >= 1
        assert stats.splitters >= stats.initial_blocks
        assert stats.initial_blocks == 2
        assert stats.final_blocks == int(block_of.max()) + 1 == 5

    def test_lump_attaches_refinement(self):
        result = lump(knuth_yao_die(), respect=["done"])
        assert result.refinement is not None
        assert result.refinement.final_blocks == result.num_blocks

    def test_pipeline_records_refinement_in_extra(self):
        scenario = zoo.build("random-sparse", {"n": 64, "num_blocks": 8})
        assert scenario.reduction == "lumping"
        assert scenario.extra["refine_rounds"] >= 1
        assert scenario.extra["refine_splitters"] >= 1
        assert scenario.extra["refine_final_blocks"] == scenario.reduced_states
        assert "refine(" in scenario.describe()

    def test_direct_reductions_leave_extra_empty(self):
        scenario = zoo.build("mimo-1xN")
        assert "refine_rounds" not in scenario.extra


# ----------------------------------------------------------------------
# Hop-distance seed
# ----------------------------------------------------------------------

def path_chain(n, p_up, p_down, ruin):
    """Birth-death chain (reflecting ends, self-loops) or, with ``ruin``,
    gambler's ruin (absorbing ends, no self-loops) on ``0..n-1``.
    Labels: ``goal`` = {n-1}, ``edge`` = {0, n-1}."""
    up, down = np.full(n, p_up), np.full(n, p_down)
    up[-1] = down[0] = 0.0
    if ruin:
        down = 1.0 - up
        up[0] = down[0] = down[-1] = 0.0
    stay = 1.0 - up - down
    matrix = sparse.diags([down[1:], stay, up[:-1]], [-1, 0, 1], format="csr")
    matrix.eliminate_zeros()
    states = np.arange(n)
    return matrix, {"goal": states == n - 1, "edge": (states == 0) | (states == n - 1)}


@st.composite
def path_chain_parts(draw):
    n = draw(st.integers(min_value=2, max_value=200))
    p_up = draw(st.floats(min_value=0.01, max_value=0.45))
    symmetric = draw(st.booleans())
    p_down = p_up if symmetric else draw(st.floats(min_value=0.01, max_value=0.45))
    return path_chain(n, p_up, p_down, ruin=draw(st.booleans()))


@st.composite
def seeded_chains(draw):
    """One path chain, or the disjoint union of two (sometimes twins,
    so the union lumps), with the labels to respect."""
    parts = [draw(path_chain_parts())]
    if draw(st.booleans()):
        parts.append(parts[0] if draw(st.booleans()) else draw(path_chain_parts()))
    matrix = sparse.block_diag([m for m, _ in parts], format="csr")
    labels = {
        name: np.concatenate([lab[name] for _, lab in parts]) for name in ("goal", "edge")
    }
    respect = draw(st.sampled_from([None, ["goal"], ["edge"]]))
    return DTMC(matrix, 0, labels=labels), respect


class TestHopSeed:
    @given(seeded_chains())
    @settings(max_examples=40, deadline=None)
    def test_seeded_partition_matches_reference(self, case):
        chain, respect = case
        block_of, stats = coarsest_lumping_with_stats(chain, respect=respect)
        assert np.array_equal(block_of, _coarsest_lumping_reference(chain, respect=respect))
        assert stats.seed_blocks is not None
        assert stats.initial_blocks <= stats.seed_blocks <= stats.final_blocks
        if stats.seed_blocks == chain.num_states:
            assert stats.rounds == stats.splitters == 0

    def test_birth_death_lumps_to_itself_without_rounds(self):
        scenario = zoo.build("birth-death", {"n": 64})
        assert scenario.reduced_states == 64
        assert scenario.extra["refine_seed_blocks"] == 64
        assert scenario.extra["refine_rounds"] == 0

    @pytest.mark.parametrize("tiny", [1e-11, 1e-14])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_sub_rounding_entry_disables_seed(self, tiny, schedule):
        """State 1 reaches ``end`` in one hop only over a ``tiny`` edge
        that rounds to zero, so it lumps with state 0 (two hops): a hop
        seed would wrongly split them."""
        matrix = sparse.csr_matrix(
            np.array(
                [
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0 - tiny, tiny],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
        chain = DTMC(matrix, 0, labels={"end": np.array([0, 0, 0, 1], dtype=bool)})
        _, stats = coarsest_lumping_with_stats(chain, decimals=10)
        assert stats.seed_blocks is None
        block_of = SCHEDULES[schedule](chain, decimals=10)
        assert block_of[0] == block_of[1]
        assert block_of.tolist() == [0, 0, 1, 2]
