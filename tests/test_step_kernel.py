"""Bit-identity of the compiled step kernel behind every bounded loop.

The bounded pCTL operators and the transient routines step with
:func:`repro.dtmc.sparse_utils.matvec_step` / ``vecmat_step`` instead
of ``P @ x``.  ``tests/test_numerics_golden.py`` compares at a relative
1e-9 and cannot see a last-bit change, so these tests compare with
``==`` on the raw float64 bits against test-local reference loops
written with ``matrix @ x`` / ``x @ matrix``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from helpers import random_dtmcs
from repro import zoo
from repro.dtmc import (
    DTMC,
    bounded_reachability,
    cumulative_reward,
    distribution_at,
    distribution_trajectory,
)
from repro.dtmc.sparse_utils import matvec_step, step_vector, vecmat_step
from repro.pctl import check


def _same_bits(actual, expected) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _random_chain_matrix(n: int, seed: int, index=np.int32) -> sparse.csr_matrix:
    """A random row-stochastic CSR matrix with the given index dtype."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    dense[np.arange(n), rng.integers(0, n, n)] += 0.05  # no empty row
    dense /= dense.sum(axis=1, keepdims=True)
    csr = sparse.csr_matrix(dense)
    # Set after construction: the constructor narrows int64 indices.
    csr.indices = csr.indices.astype(index)
    csr.indptr = csr.indptr.astype(index)
    return csr


# ----------------------------------------------------------------------
# The helper itself
# ----------------------------------------------------------------------
def _matvec(matrix, x, rows=None):
    out = np.zeros(matrix.shape[0])
    assert matvec_step(matrix, rows)(x, out) is None
    return out


def _vecmat(x, matrix):
    out = np.zeros(matrix.shape[1])
    vecmat_step(matrix)(x, out)
    return out


class TestKernel:
    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_matmul_bit_for_bit(self, index, n, seed):
        matrix = _random_chain_matrix(n, seed, index)
        assert matrix.indices.dtype == index and matrix.indptr.dtype == index
        x = np.random.default_rng(seed + 100).random(n)
        _same_bits(_matvec(matrix, x), matrix @ x)
        _same_bits(_vecmat(x, matrix), x @ matrix)

    def test_rectangular_shapes(self):
        matrix = sparse.csr_matrix(np.random.default_rng(3).random((4, 7)))
        x, y = np.arange(7.0), np.arange(4.0)
        _same_bits(_matvec(matrix, x), matrix @ x)
        _same_bits(_vecmat(y, matrix), y @ matrix)

    def test_zero_state_chain(self):
        matrix = DTMC(sparse.csr_matrix((0, 0)), np.zeros(0)).transition_matrix
        empty = np.zeros(0)
        assert _matvec(matrix, empty).shape == (0,)
        assert _vecmat(empty, matrix).shape == (0,)
        assert _matvec(matrix, empty, rows=np.zeros(0, dtype=bool)).shape == (0,)

    def test_accumulates_into_out_left_to_right(self):
        # The contract callers rely on: out[i] + a_0 x_0 + a_1 x_1 + ...,
        # summed in that order from the seed, never (sum) + seed.
        matrix = sparse.csr_matrix(np.array([[0.1, 0.2, 0.7], [0.0, 0.3, 0.0]]))
        x = np.array([0.3, 1e-17, 0.9])
        seed = np.array([1.0, 0.25])
        out = seed.copy()
        matvec_step(matrix)(x, out)
        expected = []
        for i in range(2):
            total = seed[i]
            for k in range(matrix.indptr[i], matrix.indptr[i + 1]):
                total += matrix.data[k] * x[matrix.indices[k]]
            expected.append(total)
        _same_bits(out, expected)

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    def test_rows_mask_leaves_the_other_rows_at_their_seed(self, index):
        matrix = _random_chain_matrix(9, 4, index)
        keep = np.arange(9) % 3 != 1
        x = np.random.default_rng(5).random(9)
        _same_bits(_matvec(matrix, x, rows=keep), np.where(keep, matrix @ x, 0.0))
        seeded = np.full(9, 0.5)
        matvec_step(matrix, keep)(x, seeded)
        _same_bits(seeded[~keep], np.full(3, 0.5))

    def test_step_vector_checks_the_length(self):
        vector = step_vector([1, 0, 0], 3)
        assert vector.dtype == np.float64 and vector.flags.c_contiguous
        with pytest.raises(ValueError, match="over 4 states"):
            step_vector([1.0, 0.0, 0.0], 4)
        with pytest.raises(ValueError, match="over 3 states"):
            step_vector(np.ones((1, 3)), 3)

    def test_loops_reject_a_vector_of_the_wrong_length(self):
        chain = _birth_death(n=6)
        with pytest.raises(ValueError, match="over 6 states"):
            distribution_at(chain, 3, initial=np.ones(5) / 5)
        with pytest.raises(ValueError):
            bounded_reachability(chain, np.ones(5, dtype=bool), 3)


# ----------------------------------------------------------------------
# Reference loops, written with `@` as the operators were
# ----------------------------------------------------------------------
def _ref_until(matrix, left, right, t):
    may_pass = left & ~right
    x = right.astype(np.float64)
    for _ in range(t):
        x = np.where(right, 1.0, np.where(may_pass, matrix @ x, 0.0))
    return x


def _ref_window(matrix, left, right, lower, bound):
    value = _ref_until(matrix, left, right, bound - lower)
    left_f = left.astype(np.float64)
    for _ in range(lower):
        value = left_f * (matrix @ value)
    return value


def _ref_instantaneous(matrix, rho, t):
    value = rho.copy()
    for _ in range(t):
        value = matrix @ value
    return value


def _ref_cumulative(matrix, rho, t):
    total = np.zeros(matrix.shape[0])
    current = rho.copy()
    for _ in range(t):
        total += current
        current = matrix @ current
    return total


def _birth_death(**params) -> DTMC:
    return zoo.build("birth-death", params, reduce=False).chain


def _random_sparse() -> DTMC:
    return zoo.build("random-sparse", {"n": 64}, reduce=False).chain


def _absorbing_goal(chain: DTMC) -> DTMC:
    return chain.with_absorbing(np.flatnonzero(chain.labels["goal"]))


CHAINS = {
    "birth-death": lambda: _birth_death(n=16),
    "birth-death-no-stay": lambda: _birth_death(n=9, p_up=0.6, p_down=0.4),
    "birth-death-absorbing": lambda: _absorbing_goal(_birth_death(n=12)),
    "random-sparse": _random_sparse,
    "random-sparse-absorbing": lambda: _absorbing_goal(_random_sparse()),
}


def _assert_operators_match(chain: DTMC, target: str, left: str) -> None:
    """Every converted operator, per state and from the initial state."""
    matrix = chain.transition_matrix
    n = chain.num_states
    goal = chain.labels[target]
    other = chain.labels[left]
    everywhere = np.ones(n, dtype=bool)
    reward = sorted(chain.rewards)[0]
    rho = chain.rewards[reward]
    init = chain.initial_distribution
    start = init > 0

    def agrees(formula, vector):
        result = check(chain, formula)
        _same_bits(result.vector, vector)
        _same_bits(result.value, float(vector[start] @ init[start]))

    for t in (0, 1, 7, 40):
        agrees(f"P=? [ F<={t} {target} ]", _ref_until(matrix, everywhere, goal, t))
        # U<=t with an avoid set (!left) and with an empty one (true).
        agrees(f"P=? [ {left} U<={t} {target} ]", _ref_until(matrix, other, goal, t))
        agrees(f"P=? [ true U<={t} {target} ]", _ref_until(matrix, everywhere, goal, t))
        agrees(
            f"P=? [ G<={t} !{target} ]",
            1.0 - _ref_until(matrix, everywhere, goal, t),
        )
        agrees(f'R{{"{reward}"}}=? [ I={t} ]', _ref_instantaneous(matrix, rho, t))
        agrees(f'R{{"{reward}"}}=? [ C<={t} ]', _ref_cumulative(matrix, rho, t))
        _same_bits(
            distribution_at(chain, t),
            _ref_distribution(chain, t)[-1],
        )
        _same_bits(
            cumulative_reward(chain, reward, t),
            _ref_cumulative_from_initial(chain, rho, t),
        )
    for lower, bound in ((0, 5), (3, 3), (2, 9), (5, 40)):
        agrees(
            f"P=? [ F[{lower},{bound}] {target} ]",
            _ref_window(matrix, everywhere, goal, lower, bound),
        )
        agrees(
            f"P=? [ {left} U[{lower},{bound}] {target} ]",
            _ref_window(matrix, other, goal, lower, bound),
        )


def _ref_distribution(chain: DTMC, t: int):
    pi = chain.initial_distribution.copy()
    out = [pi.copy()]
    for _ in range(t):
        pi = pi @ chain.transition_matrix
        out.append(pi.copy())
    return out


def _ref_cumulative_from_initial(chain: DTMC, rho: np.ndarray, t: int) -> float:
    total = 0.0
    pi = chain.initial_distribution.copy()
    for _ in range(t):
        total += float(pi @ rho)
        pi = pi @ chain.transition_matrix
    return total


class TestOperatorsBitIdentical:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_zoo_chains(self, name):
        chain = CHAINS[name]()
        if "level" in chain.rewards:  # birth-death: avoid the bottom state
            chain.labels["up"] = ~chain.labels["empty"]
            _assert_operators_match(chain, "goal", "up")
        else:
            rng = np.random.default_rng(9)
            chain.labels["mid"] = rng.random(chain.num_states) < 0.7
            chain.rewards["weight"] = rng.random(chain.num_states)
            _assert_operators_match(chain, "goal", "mid")

    @settings(max_examples=60, deadline=None)
    @given(random_dtmcs(max_states=7))
    def test_hypothesis_chain(self, chain):
        chain.labels["rest"] = ~chain.labels["mark"]
        _assert_operators_match(chain, "mark", "rest")

    def test_trajectory_yields_independent_copies(self):
        chain = _birth_death(n=10)
        steps = list(distribution_trajectory(chain, 12))
        for actual, expected in zip(steps, _ref_distribution(chain, 12)):
            _same_bits(actual, expected)
        assert len({id(step) for step in steps}) == len(steps)

    def test_ramp_over_an_unbounded_window(self):
        # F[4, inf) goal: four ramp steps over the unbounded-until
        # vector the engine solves for.
        from repro.engine import Engine
        from repro.pctl import ModelChecker
        from repro.pctl.ast import Eventually, Label, ProbQuery

        chain = _birth_death(n=8)
        engine = Engine()
        window = engine.unbounded_until(
            chain, np.ones(8, dtype=bool), chain.labels["goal"]
        )
        result = ModelChecker(chain, engine=engine).check(
            ProbQuery(Eventually(Label("goal"), None, 4))
        )
        expected = window
        for _ in range(4):
            expected = chain.transition_matrix @ expected
        _same_bits(result.vector, expected)


# ----------------------------------------------------------------------
# birth-death's directly assembled CSR
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, p_up, p_down",
    [
        (2, 0.3, 0.2),
        (2, 0.5, 0.5),
        (16, 0.3, 0.2),
        (16, 0.5, 0.5),  # p_up + p_down == 1: no stay entries
        (7, 0.6, 0.4),
        (5, 0.7, 0.3),  # 1 - 0.7 - 0.3 is a tiny positive stay
        (1000, 0.25, 0.25),
    ],
)
def test_birth_death_csr_equals_diags(n, p_up, p_down):
    up = np.full(n, p_up)
    up[-1] = 0.0
    down = np.full(n, p_down)
    down[0] = 0.0
    stay = 1.0 - up - down
    reference = sparse.diags(
        [down[1:], stay, up[:-1]], offsets=[-1, 0, 1], format="csr"
    )
    reference.eliminate_zeros()
    matrix = _birth_death(n=n, p_up=p_up, p_down=p_down).transition_matrix
    for name in ("indptr", "indices"):
        actual, expected = getattr(matrix, name), getattr(reference, name)
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)
    _same_bits(matrix.data, reference.data)
