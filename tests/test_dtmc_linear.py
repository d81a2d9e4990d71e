"""Tests for the iterative linear solvers (repro.dtmc.linear)."""

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.dtmc import (
    SolverError,
    gauss_seidel_solve,
    jacobi_solve,
    power_solve,
)
from repro.dtmc.linear import ITERATIVE_METHODS

from helpers import gamblers_ruin, knuth_yao_die, random_dtmcs

SOLVERS = [power_solve, jacobi_solve, gauss_seidel_solve]


def until_system(chain, target_label):
    """Extract the x = Ax + b system of an unbounded reachability.

    Mirrors the checker's precomputation: prob-0 states (those that
    cannot reach the target) are eliminated first — leaving them in
    would make the fixpoint system singular, which Jacobi/Gauss-Seidel
    rightly refuse.
    """
    from repro.dtmc import backward_reachable

    target = chain.label_vector(target_label)
    can_reach = backward_reachable(chain, np.nonzero(target)[0].tolist())
    unknown = np.array(
        sorted(set(can_reach) - set(np.nonzero(target)[0].tolist())),
        dtype=np.int64,
    )
    matrix = chain.transition_matrix
    a = matrix[unknown][:, unknown]
    b = np.asarray(matrix[unknown][:, np.nonzero(target)[0]].sum(axis=1)).ravel()
    return a, b, unknown


class TestAgainstDirectSolver:
    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
    def test_reachability_system(self, solver):
        chain = knuth_yao_die()
        a, b, _ = until_system(chain, "done")
        direct = sparse_linalg.spsolve(
            (sparse.identity(a.shape[0]) - a).tocsc(), b
        )
        iterative = solver(a, b, tolerance=1e-14)
        assert np.allclose(iterative, direct, atol=1e-10)

    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
    def test_gamblers_ruin_values(self, solver):
        chain = gamblers_ruin(n=4, p=0.5)
        a, b, unknown = until_system(chain, "win")
        x = solver(a, b, tolerance=1e-14)
        values = {chain.states[s]: v for s, v in zip(unknown, x)}
        # Known closed form: P(win from i) = i/4 for the fair game.
        for i in (1, 2, 3):
            assert values[i] == pytest.approx(i / 4, abs=1e-9)

    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
    def test_warm_start(self, solver):
        chain = knuth_yao_die()
        a, b, _ = until_system(chain, "done")
        exact = solver(a, b, tolerance=1e-14)
        warm = solver(a, b, tolerance=1e-14, x0=exact.copy())
        assert np.allclose(warm, exact)


class TestFailureModes:
    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
    def test_iteration_budget_respected(self, solver):
        # A system contracting extremely slowly (rho ~= 1 - 1e-9) with
        # the slowness on the off-diagonal, so diagonal division does
        # not shortcut it.
        a = sparse.csr_matrix(
            np.array([[0.0, 1.0 - 1e-9], [1.0 - 1e-9, 0.0]])
        )
        with pytest.raises(SolverError, match="converge"):
            solver(a, np.array([1e-9, 1e-9]), max_iterations=10)

    @pytest.mark.parametrize(
        "solver", [jacobi_solve, gauss_seidel_solve], ids=lambda s: s.__name__
    )
    def test_singular_diagonal_rejected(self, solver):
        a = sparse.csr_matrix(np.array([[1.0]]))
        with pytest.raises(SolverError, match="singular"):
            solver(a, np.array([0.0]))


@given(random_dtmcs(max_states=5))
@settings(max_examples=25, deadline=None)
def test_solvers_agree_on_random_until_systems(chain):
    """All three engines compute the same reachability probabilities."""
    a, b, _ = until_system(chain, "mark")
    if a.shape[0] == 0:
        return
    results = [solver(a, b, tolerance=1e-13) for solver in SOLVERS]
    for other in results[1:]:
        assert np.allclose(results[0], other, atol=1e-9)


@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_empty_system_solves_to_empty_vector(method):
    solver = {
        "power": power_solve,
        "jacobi": jacobi_solve,
        "gauss-seidel": gauss_seidel_solve,
    }[method]
    solution = solver(sparse.csr_matrix((0, 0)), np.zeros(0))
    assert solution.shape == (0,)
