"""Unit tests for the DTMC representation (repro.dtmc.chain)."""

import numpy as np
import pytest
from hypothesis import given

from repro.dtmc import DTMC, DTMCValidationError, dtmc_from_dict

from helpers import knuth_yao_die, random_dtmcs, two_state_chain


class TestConstruction:
    def test_from_dense_matrix(self):
        chain = DTMC(np.array([[0.5, 0.5], [0.0, 1.0]]), 0)
        assert chain.num_states == 2
        assert chain.num_transitions == 3

    def test_integer_initial_becomes_point_mass(self):
        chain = DTMC(np.eye(3), 1)
        assert chain.initial_states() == [1]
        assert chain.initial_distribution[1] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(DTMCValidationError):
            DTMC(np.ones((2, 3)) / 3.0, 0)

    def test_rejects_substochastic_row(self):
        with pytest.raises(DTMCValidationError, match="not stochastic"):
            DTMC(np.array([[0.5, 0.4], [0.0, 1.0]]), 0)

    def test_rejects_negative_probability(self):
        with pytest.raises(DTMCValidationError):
            DTMC(np.array([[1.2, -0.2], [0.0, 1.0]]), 0)

    def test_rejects_bad_initial_distribution(self):
        with pytest.raises(DTMCValidationError):
            DTMC(np.eye(2), np.array([0.5, 0.4]))

    def test_rejects_wrong_length_label(self):
        with pytest.raises(DTMCValidationError, match="label"):
            DTMC(np.eye(2), 0, labels={"x": np.array([True])})

    def test_rejects_wrong_length_reward(self):
        with pytest.raises(DTMCValidationError, match="reward"):
            DTMC(np.eye(2), 0, rewards={"x": np.array([1.0])})

    def test_rejects_mismatched_state_objects(self):
        with pytest.raises(DTMCValidationError):
            DTMC(np.eye(2), 0, states=["only-one"])

    def test_float64_csr_is_kept_as_is(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        assert DTMC(matrix, 0).transition_matrix is matrix
        # Anything else is still coerced to a float64 csr_matrix.
        for other in (
            sparse.csr_array(matrix),
            matrix.astype(np.float32),
            sparse.csc_matrix(matrix),
        ):
            coerced = DTMC(other, 0).transition_matrix
            assert isinstance(coerced, sparse.csr_matrix)
            assert coerced.dtype == np.float64
            np.testing.assert_array_equal(coerced.toarray(), matrix.toarray())

    def test_rejects_sparse_row_without_mass(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(
            (np.array([1.0, 1.0]), np.array([0, 2]), np.array([0, 1, 1, 2])),
            shape=(3, 3),
        )
        with pytest.raises(DTMCValidationError, match=r"rows \[1\]"):
            DTMC(matrix, 0)

    def test_rejects_nan_entries(self):
        with pytest.raises(DTMCValidationError, match="NaN"):
            DTMC(np.array([[np.nan, 1.0], [0.0, 1.0]]), 0)

    def test_zero_state_chain_validates(self):
        from scipy import sparse

        chain = DTMC(sparse.csr_matrix((0, 0)), np.zeros(0))
        assert chain.num_states == 0


class TestQueries:
    def test_successors(self):
        chain = two_state_chain(p=0.25, q=0.75)
        successors = dict(
            (j, p) for j, p in chain.successors(0)
        )
        assert successors == pytest.approx({0: 0.75, 1: 0.25})

    def test_transition_probability(self):
        chain = two_state_chain(p=0.25)
        assert chain.transition_probability(0, 1) == pytest.approx(0.25)
        assert chain.transition_probability(1, 1) == pytest.approx(0.7)

    def test_label_vector_unknown_name(self):
        chain = two_state_chain()
        with pytest.raises(KeyError, match="in_b"):
            chain.label_vector("nope")

    def test_states_satisfying(self):
        chain = two_state_chain()
        assert chain.states_satisfying("in_b") == [1]

    def test_add_label_from_predicate(self):
        chain = knuth_yao_die()
        chain.add_label_from_predicate("terminal", lambda s: s.startswith("d"))
        assert sorted(
            chain.states[i] for i in chain.states_satisfying("terminal")
        ) == ["d1", "d2", "d3", "d4", "d5", "d6"]

    def test_add_reward_from_function(self):
        chain = two_state_chain()
        chain.add_reward_from_function("idx", lambda s: 1.0 if s == "b" else 0.0)
        assert chain.reward_vector("idx").tolist() == [0.0, 1.0]


class TestFromDict:
    def test_die_structure(self):
        chain = knuth_yao_die()
        assert chain.num_states == 13
        # Terminal states were never sources: they become absorbing.
        for name in ["one", "two", "three", "four", "five", "six"]:
            (idx,) = chain.states_satisfying(name)
            assert chain.successors(idx) == [(idx, 1.0)]

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(DTMCValidationError, match="initial"):
            dtmc_from_dict({"a": {"a": 1.0}}, initial="zzz")

    def test_rewards_mapping(self):
        chain = dtmc_from_dict(
            {"a": {"b": 1.0}, "b": {"a": 1.0}},
            initial="a",
            rewards={"r": {"b": 2.5}},
        )
        assert chain.reward_vector("r").tolist() == [0.0, 2.5]


class TestStructuralOps:
    def test_with_absorbing(self):
        chain = two_state_chain()
        frozen = chain.with_absorbing([1])
        assert frozen.successors(1) == [(1, 1.0)]
        # Original untouched.
        assert chain.transition_probability(1, 0) == pytest.approx(0.3)

    def test_restricted_to_adds_sink(self):
        chain = knuth_yao_die()
        keep = [i for i, s in enumerate(chain.states) if not s.startswith("d")]
        sub = chain.restricted_to(keep)
        assert sub.num_states == len(keep) + 1
        # Rows remain stochastic (validated on construction) and the
        # sink self-loops.
        assert sub.successors(sub.num_states - 1) == [(sub.num_states - 1, 1.0)]

    def test_restricted_to_preserves_labels(self):
        chain = two_state_chain()
        sub = chain.restricted_to([1])
        assert sub.label_vector("in_b").tolist() == [True, False]


@given(random_dtmcs())
def test_random_chains_validate(chain):
    """Any chain produced by the strategy passes stochasticity checks."""
    row_sums = np.asarray(chain.transition_matrix.sum(axis=1)).ravel()
    assert np.allclose(row_sums, 1.0)


@given(random_dtmcs())
def test_absorbing_copy_is_stochastic(chain):
    frozen = chain.with_absorbing(range(0, chain.num_states, 2))
    row_sums = np.asarray(frozen.transition_matrix.sum(axis=1)).ravel()
    assert np.allclose(row_sums, 1.0)
