"""Tests for abstraction quotients and optimal lumping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reductions import (
    LumpingError,
    coarsest_lumping,
    initial_partition,
    lump,
    quotient_by_function,
    quotient_by_partition,
)
from repro.dtmc import (
    DTMC,
    build_dtmc,
    distribution_at,
    dtmc_from_dict,
    instantaneous_reward,
)
from repro.pctl import check

from helpers import knuth_yao_die, random_dtmcs, two_state_chain


def symmetric_pair_chain():
    """Two i.i.d. coins re-flipped each step; label = both heads.

    States (a, b); the partition by multiset {a, b} is strongly
    lumpable.
    """

    def step(state):
        return [
            (0.25, (0, 0)),
            (0.25, (0, 1)),
            (0.25, (1, 0)),
            (0.25, (1, 1)),
        ]

    return build_dtmc(
        step,
        initial=(0, 0),
        labels={"both": lambda s: s == (1, 1)},
        rewards={"both": lambda s: float(s == (1, 1))},
    ).chain


class TestQuotientByPartition:
    def test_valid_lumping_accepted(self):
        chain = symmetric_pair_chain()
        block_of = [0 if s in [(0, 1), (1, 0)] else (1 if s == (0, 0) else 2)
                    for s in chain.states]
        result = quotient_by_partition(chain, block_of)
        assert result.num_blocks == 3
        assert result.reduction_factor == pytest.approx(4 / 3)

    def test_invalid_lumping_rejected(self):
        # a and b jump to the absorbing state c with different
        # probabilities, so {a, b} is not a lumpable block.
        chain = dtmc_from_dict(
            {
                "a": {"a": 0.5, "c": 0.5},
                "b": {"b": 0.1, "c": 0.9},
                "c": {"c": 1.0},
            },
            initial="a",
        )
        with pytest.raises(LumpingError, match="strongly lumpable"):
            quotient_by_partition(chain, [0, 0, 1])

    def test_label_only_mismatch_reported_as_label(self):
        chain = two_state_chain(p=0.5, q=0.3)
        # Transition-lumpable into one block, but the label differs.
        with pytest.raises(LumpingError, match="label"):
            quotient_by_partition(chain, [0, 0])

    def test_label_mismatch_rejected(self):
        chain = symmetric_pair_chain()
        # Merging (1,1) with (0,0) violates label constancy.
        block_of = [0 if s in [(0, 0), (1, 1)] else 1 for s in chain.states]
        with pytest.raises(LumpingError, match="label|lumpable"):
            quotient_by_partition(chain, block_of)

    def test_partition_shape_validated(self):
        chain = two_state_chain()
        with pytest.raises(ValueError, match="covers"):
            quotient_by_partition(chain, [0])
        with pytest.raises(ValueError, match="contiguous"):
            quotient_by_partition(chain, [0, 2])

    def test_quotient_transitions_aggregate(self):
        chain = symmetric_pair_chain()
        result = quotient_by_function(chain, lambda s: tuple(sorted(s)))
        mixed = result.chain.states.index((0, 1))
        row = dict(result.chain.successors(mixed))
        assert row[mixed] == pytest.approx(0.5)


class TestQuotientByFunction:
    def test_preserves_transient_label_probability(self):
        chain = symmetric_pair_chain()
        result = quotient_by_function(chain, lambda s: tuple(sorted(s)))
        for t in range(5):
            full = float(distribution_at(chain, t) @ chain.label_vector("both"))
            red = float(
                distribution_at(result.chain, t)
                @ result.chain.label_vector("both")
            )
            assert full == pytest.approx(red)

    def test_preserves_pctl_values(self):
        chain = symmetric_pair_chain()
        result = quotient_by_function(chain, lambda s: tuple(sorted(s)))
        for prop in ["P=? [ F<=3 both ]", "P=? [ G<=3 !both ]", "R=? [ I=4 ]",
                     "S=? [ both ]"]:
            assert check(chain, prop).value == pytest.approx(
                check(result.chain, prop).value
            )

    def test_requires_state_objects(self):
        chain = DTMC(np.eye(2), 0)
        with pytest.raises(ValueError, match="state objects"):
            quotient_by_function(chain, lambda s: 0)

    def test_identity_abstraction_is_isomorphism(self):
        chain = knuth_yao_die()
        result = quotient_by_function(chain, lambda s: s)
        assert result.num_blocks == chain.num_states
        assert result.reduction_factor == 1.0


class TestCoarsestLumping:
    def test_initial_partition_by_labels(self):
        chain = knuth_yao_die()
        block_of = initial_partition(chain, respect=["done"])
        assert len(set(block_of.tolist())) == 2

    def test_initial_partition_unknown_name(self):
        with pytest.raises(KeyError):
            initial_partition(knuth_yao_die(), respect=["nope"])

    def test_die_lumps_faces_together(self):
        chain = knuth_yao_die()
        # Respecting only "done", all faces are equivalent, and the
        # symmetric halves of the tree collapse.
        block_of = coarsest_lumping(chain, respect=["done"])
        d_blocks = {block_of[i] for i in chain.states_satisfying("done")}
        assert len(d_blocks) == 1
        # s1 and s2 are symmetric, as are s3/s6 and s4/s5.
        idx = {s: i for i, s in enumerate(chain.states)}
        assert block_of[idx["s1"]] == block_of[idx["s2"]]
        assert block_of[idx["s4"]] == block_of[idx["s5"]]

    def test_lump_preserves_reachability_values(self):
        chain = knuth_yao_die()
        result = lump(chain, respect=["done"])
        assert result.num_blocks < chain.num_states
        assert check(result.chain, "P=? [ F<=3 done ]").value == pytest.approx(
            check(chain, "P=? [ F<=3 done ]").value
        )

    def test_lump_respecting_all_labels_keeps_faces_apart(self):
        chain = knuth_yao_die()
        result = lump(chain)  # respects one..six individually
        for face in ["one", "six"]:
            assert check(result.chain, f"P=? [ F {face} ]").value == pytest.approx(1 / 6)

    def test_already_minimal_chain_unchanged(self):
        chain = two_state_chain()
        result = lump(chain)
        assert result.num_blocks == 2


@given(random_dtmcs(), st.integers(min_value=0, max_value=8))
@settings(max_examples=30, deadline=None)
def test_lumping_preserves_instantaneous_reward(chain, t):
    """Quotienting by the coarsest lumping never changes R=?[I=t]."""
    result = lump(chain)
    full = instantaneous_reward(chain, "mark", t)
    reduced = instantaneous_reward(result.chain, "mark", t)
    assert full == pytest.approx(reduced, abs=1e-7)


@given(random_dtmcs())
@settings(max_examples=30, deadline=None)
def test_lumping_is_idempotent(chain):
    """Lumping the lumped chain must not shrink it further."""
    once = lump(chain)
    twice = lump(once.chain)
    assert twice.num_blocks == once.num_blocks


class TestIdentityShortcut:
    """A chain that is its own coarsest lumping comes back unquotiented."""

    @pytest.mark.parametrize("n", [2, 64, 20_000])
    @pytest.mark.parametrize("respect", [["goal"], ["goal", "level"]])
    def test_bit_identical_to_the_identity_quotient(self, n, respect):
        from repro import zoo
        from repro.core.reductions import coarsest_lumping_with_stats

        chain = zoo.build("birth-death", {"n": n}, reduce=False).chain
        result = lump(chain, respect=respect)
        reference = quotient_by_partition(chain, np.arange(n), respect=respect)
        same, ref = result.chain, reference.chain
        assert same.transition_matrix is chain.transition_matrix
        for attribute in ("indptr", "indices", "data"):
            assert np.array_equal(
                getattr(same.transition_matrix, attribute),
                getattr(ref.transition_matrix, attribute),
            )
        assert same.transition_matrix.data.tobytes() == (
            ref.transition_matrix.data.tobytes()
        )
        assert same.initial_distribution.tobytes() == (
            ref.initial_distribution.tobytes()
        )
        assert sorted(same.labels) == sorted(ref.labels) == ["goal"]
        assert np.array_equal(same.labels["goal"], ref.labels["goal"])
        assert sorted(same.rewards) == sorted(ref.rewards)
        for name in same.rewards:
            assert same.rewards[name].tobytes() == ref.rewards[name].tobytes()
        # Labels and rewards outside ``respect`` are dropped.
        assert "empty" not in same.labels
        assert ("level" in same.rewards) == ("level" in respect)
        assert same.states == ref.states == list(range(n))
        assert np.array_equal(result.block_of, reference.block_of)
        assert result.blocks == reference.blocks
        _, stats = coarsest_lumping_with_stats(chain, respect=respect)
        assert result.refinement == stats
        assert stats.final_blocks == n

    def test_respect_none_keeps_every_label_and_reward(self):
        chain = two_state_chain()
        result = lump(chain)
        assert result.num_blocks == chain.num_states
        assert sorted(result.chain.labels) == sorted(chain.labels)
        assert sorted(result.chain.rewards) == sorted(chain.rewards)
