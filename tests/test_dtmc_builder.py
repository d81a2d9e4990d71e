"""Unit tests for the state-space builder (repro.dtmc.builder)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtmc import (
    DTMCValidationError,
    ExplorationLimitError,
    build_array_dtmc,
    build_dtmc,
    distribution_at,
    reachability_iterations,
)


def random_walk(state):
    """Bounded random walk on 0..4 with reflecting ends."""
    lo, hi = 0, 4
    if state == lo:
        return [(1.0, state + 1)]
    if state == hi:
        return [(1.0, state - 1)]
    return [(0.5, state - 1), (0.5, state + 1)]


def coin_pair(state):
    """Two independent coins re-flipped each step (order irrelevant)."""
    return [
        (0.25, (0, 0)),
        (0.25, (0, 1)),
        (0.25, (1, 0)),
        (0.25, (1, 1)),
    ]


class TestBasicExploration:
    def test_explores_reachable_states(self):
        result = build_dtmc(random_walk, initial=2)
        assert result.num_states == 5
        assert set(result.states) == {0, 1, 2, 3, 4}

    def test_chain_is_valid(self):
        result = build_dtmc(random_walk, initial=2)
        sums = np.asarray(result.chain.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_initial_distribution(self):
        result = build_dtmc(random_walk, initial=[(0.5, 0), (0.5, 4)])
        init = result.chain.initial_distribution
        assert init[result.index[0]] == pytest.approx(0.5)
        assert init[result.index[4]] == pytest.approx(0.5)

    def test_labels_and_rewards_evaluated(self):
        result = build_dtmc(
            random_walk,
            initial=2,
            labels={"edge": lambda s: s in (0, 4)},
            rewards={"pos": lambda s: float(s)},
        )
        chain = result.chain
        edge_states = {result.states[i] for i in chain.states_satisfying("edge")}
        assert edge_states == {0, 4}
        assert chain.reward_vector("pos")[result.index[3]] == 3.0

    def test_bfs_levels_equal_reachability_iterations(self):
        result = build_dtmc(random_walk, initial=2)
        assert result.bfs_levels == reachability_iterations(result.chain)

    def test_duplicate_successors_merged(self):
        def fn(state):
            return [(0.5, "x"), (0.25, "x"), (0.25, "y")]

        result = build_dtmc(fn, initial="x")
        i, j = result.index["x"], result.index["y"]
        assert result.chain.transition_probability(i, i) == pytest.approx(0.75)
        assert result.chain.transition_probability(i, j) == pytest.approx(0.25)


class TestValidation:
    def test_rejects_nonstochastic_branches(self):
        def fn(state):
            return [(0.5, 0)]

        with pytest.raises(DTMCValidationError, match="sum"):
            build_dtmc(fn, initial=0)

    def test_rejects_negative_probability(self):
        def fn(state):
            return [(1.5, 0), (-0.5, 1)]

        with pytest.raises(DTMCValidationError, match="negative"):
            build_dtmc(fn, initial=0)

    def test_max_states_enforced(self):
        def counter(state):
            return [(1.0, state + 1)]

        with pytest.raises(ExplorationLimitError):
            build_dtmc(counter, initial=0, max_states=100)


class TestCanonicalize:
    def test_symmetry_quotient(self):
        """Sorting the coin pair folds (0,1) and (1,0) into one state."""
        full = build_dtmc(coin_pair, initial=(0, 0))
        reduced = build_dtmc(
            coin_pair,
            initial=(0, 0),
            canonicalize=lambda s: tuple(sorted(s)),
        )
        assert full.num_states == 4
        assert reduced.num_states == 3
        mixed = reduced.index[(0, 1)]
        row = dict(reduced.chain.successors(mixed))
        assert row[mixed] == pytest.approx(0.5)

    def test_quotient_preserves_transient_probability(self):
        full = build_dtmc(
            coin_pair,
            initial=(0, 0),
            labels={"both_heads": lambda s: s == (1, 1)},
        )
        reduced = build_dtmc(
            coin_pair,
            initial=(0, 0),
            canonicalize=lambda s: tuple(sorted(s)),
            labels={"both_heads": lambda s: s == (1, 1)},
        )
        for t in range(4):
            p_full = float(
                distribution_at(full.chain, t) @ full.chain.label_vector("both_heads")
            )
            p_red = float(
                distribution_at(reduced.chain, t)
                @ reduced.chain.label_vector("both_heads")
            )
            assert p_full == pytest.approx(p_red)


class TestBranchCutoff:
    def test_cutoff_drops_rare_branch_and_renormalizes(self):
        def fn(state):
            if state == "start":
                return [(1e-20, "rare"), (1.0 - 1e-20, "common")]
            return [(1.0, state)]

        result = build_dtmc(fn, initial="start", branch_cutoff=1e-15)
        assert "rare" not in result.index
        assert result.discarded_branches == 1
        i = result.index["start"]
        j = result.index["common"]
        assert result.chain.transition_probability(i, j) == pytest.approx(1.0)

    def test_zero_cutoff_keeps_everything(self):
        def fn(state):
            return [(1e-20, "rare"), (1.0 - 1e-20, "common")] if state == "s" else [(1.0, state)]

        result = build_dtmc(fn, initial="s")
        assert "rare" in result.index
        assert result.discarded_branches == 0

    def test_cutoff_cannot_empty_a_row(self):
        def fn(state):
            return [(1e-20, "a"), (1e-20, "b")]

        with pytest.raises(DTMCValidationError, match="cutoff"):
            build_dtmc(fn, initial="x", branch_cutoff=1e-15)


# ----------------------------------------------------------------------
# The array explorer against build_dtmc on the same model
# ----------------------------------------------------------------------

class TableModel:
    """A random model over every row of a mixed radix, given as tables
    ``succ[code, j]`` / ``prob[code, j]``; it has an array step and the
    equivalent per-state transition."""

    def __init__(self, radix, branches, seed):
        rng = np.random.default_rng(seed)
        self.radix = list(radix)
        size = int(np.prod(radix))
        self.succ = rng.integers(0, size, (size, branches))
        # Deliberate duplicate successors within a row ...
        copy = rng.random((size, branches)) < 0.3
        self.succ[:, 1:] = np.where(copy[:, 1:], self.succ[:, :1], self.succ[:, 1:])
        # ... and zero-probability padding (never the whole row).
        weights = rng.random((size, branches))
        weights[:, 1:][rng.random((size, branches - 1)) < 0.3] = 0.0
        self.prob = weights / weights.sum(axis=1, keepdims=True)

    def code(self, rows):
        return np.ravel_multi_index(np.moveaxis(rows, -1, 0), self.radix)

    def digits(self, codes):
        return np.stack(np.unravel_index(codes, self.radix), axis=-1)

    def step(self, rows):
        codes = self.code(rows)
        return self.prob[codes], self.digits(self.succ[codes])

    def transition(self, state):
        code = self.code(np.array(state))
        return [
            (p, tuple(self.digits(s).tolist()))
            for p, s in zip(self.prob[code].tolist(), self.succ[code])
        ]


table_models = st.builds(
    TableModel,
    radix=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    branches=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


class TestArrayExplorer:
    @settings(max_examples=80, deadline=None)
    @given(model=table_models, data=st.data())
    def test_matches_build_dtmc(self, model, data):
        initial = tuple(data.draw(st.integers(0, r - 1)) for r in model.radix)
        first = lambda rows: rows[:, 0] == 0  # noqa: E731
        fast = build_array_dtmc(
            model.step, initial, model.radix,
            labels={"first": first},
            rewards={"first": lambda rows: rows[:, 0].astype(float)},
        )
        slow = build_dtmc(
            model.transition, initial,
            labels={"first": lambda s: s[0] == 0},
            rewards={"first": lambda s: float(s[0])},
        )
        assert fast.states == slow.states
        assert fast.index == slow.index
        assert fast.bfs_levels == slow.bfs_levels
        a, b = fast.chain.transition_matrix, slow.chain.transition_matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.abs(a.data - b.data).max() <= 1e-15
        assert np.array_equal(
            fast.chain.initial_distribution, slow.chain.initial_distribution
        )
        assert np.array_equal(fast.chain.labels["first"], slow.chain.labels["first"])
        assert np.array_equal(fast.chain.rewards["first"], slow.chain.rewards["first"])

    @staticmethod
    def _single(prob, succ):
        """A one-column model whose every state has the given branches."""
        return lambda rows: (
            np.tile(prob, (len(rows), 1)),
            np.tile(np.array(succ)[:, None], (len(rows), 1, 1)),
        )

    def test_rejects_negative_probability(self):
        step = self._single([1.5, -0.5], [0, 1])
        with pytest.raises(DTMCValidationError, match="negative"):
            build_array_dtmc(step, [0], [2])

    def test_rejects_nonstochastic_row(self):
        step = self._single([0.5, 0.4], [0, 1])
        with pytest.raises(DTMCValidationError, match="sum"):
            build_array_dtmc(step, [0], [2])

    def test_rejects_successor_outside_its_radix(self):
        step = self._single([1.0], [2])
        with pytest.raises(DTMCValidationError, match="radix"):
            build_array_dtmc(step, [0], [2])

    def test_max_states_at_the_same_count_as_build_dtmc(self):
        def counter(state):
            return [(1.0, (min(state[0] + 1, 39),))]

        def counter_step(rows):
            return np.ones((len(rows), 1)), np.minimum(rows + 1, 39)[:, None, :]

        for limit in (0, 1, 17, 39, 40):
            outcomes = []
            for build in (
                lambda: build_dtmc(counter, (0,), max_states=limit),
                lambda: build_array_dtmc(counter_step, [0], [40], max_states=limit),
            ):
                try:
                    outcomes.append(build().num_states)
                except ExplorationLimitError:
                    outcomes.append("limit")
            assert outcomes[0] == outcomes[1], limit
            assert outcomes[0] == (40 if limit >= 40 else "limit")

    def test_radix_beyond_63_bits_rejected(self):
        def stay(rows):
            return np.ones((len(rows), 1)), rows[:, None, :]

        for radix in ([2**32, 2**31], [2**64]):
            with pytest.raises(ValueError, match="63-bit"):
                build_array_dtmc(stay, [0] * len(radix), radix)
        largest = build_array_dtmc(stay, [2**32 - 1, 2**31 - 2], [2**32, 2**31 - 1])
        assert largest.states == [(2**32 - 1, 2**31 - 2)]
