"""Unit tests for graph analyses (repro.dtmc.graph)."""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.dtmc import (
    DTMC,
    backward_reachable,
    bottom_sccs,
    dtmc_from_dict,
    is_aperiodic,
    is_irreducible,
    period,
    reachability_iterations,
    reachable_states,
    strongly_connected_components,
)

from repro.dtmc.graph import hops_to

from helpers import gamblers_ruin, knuth_yao_die, two_state_chain


def chain_line(n: int) -> DTMC:
    """0 -> 1 -> ... -> n-1 (absorbing)."""
    transitions = {i: {i + 1: 1.0} for i in range(n - 1)}
    transitions[n - 1] = {n - 1: 1.0}
    return dtmc_from_dict(transitions, initial=0)


class TestReachability:
    def test_reachable_from_initial(self):
        chain = knuth_yao_die()
        assert len(reachable_states(chain)) == chain.num_states

    def test_reachable_from_custom_source(self):
        chain = chain_line(4)
        assert reachable_states(chain, sources=[2]) == {2, 3}

    def test_backward_reachable(self):
        chain = chain_line(4)
        assert backward_reachable(chain, [3]) == {0, 1, 2, 3}
        assert backward_reachable(chain, [0]) == {0}

    def test_reachability_iterations_line(self):
        # A line of n states needs n-1 BFS levels to saturate.
        chain = chain_line(7)
        assert reachability_iterations(chain) == 6

    def test_reachability_iterations_absorbing_start(self):
        chain = dtmc_from_dict({"a": {"a": 1.0}}, initial="a")
        assert reachability_iterations(chain) == 0


class TestSCC:
    def test_two_state_single_scc(self):
        chain = two_state_chain()
        components = strongly_connected_components(chain)
        assert len(components) == 1
        assert sorted(components[0]) == [0, 1]

    def test_die_sccs(self):
        chain = knuth_yao_die()
        components = strongly_connected_components(chain)
        sizes = sorted(len(c) for c in components)
        # {s1,s3} and {s2,s6} are 2-cycles; everything else is trivial.
        assert sizes == [1] * 9 + [2, 2]

    def test_scc_reverse_topological_order(self):
        chain = chain_line(5)
        components = strongly_connected_components(chain)
        order = [c[0] for c in components]
        # Sinks first: state 4 must appear before state 0.
        assert order.index(4) < order.index(0)

    def test_bottom_sccs_gamblers_ruin(self):
        chain = gamblers_ruin(5)
        bottoms = bottom_sccs(chain)
        members = sorted(tuple(b) for b in bottoms)
        ruin = chain.states_satisfying("ruin")[0]
        win = chain.states_satisfying("win")[0]
        assert members == sorted([(ruin,), (win,)])

    def test_irreducible(self):
        assert is_irreducible(two_state_chain())
        assert not is_irreducible(gamblers_ruin())


class TestPeriodicity:
    def test_two_cycle_has_period_2(self):
        chain = dtmc_from_dict(
            {"a": {"b": 1.0}, "b": {"a": 1.0}}, initial="a"
        )
        assert period(chain, 0) == 2
        assert not is_aperiodic(chain)

    def test_self_loop_is_aperiodic(self):
        chain = two_state_chain()
        assert period(chain, 0) == 1
        assert is_aperiodic(chain)

    def test_three_cycle_period(self):
        chain = dtmc_from_dict(
            {"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"a": 1.0}}, initial="a"
        )
        assert period(chain, 0) == 3

    def test_mixed_cycles_gcd(self):
        # Cycles of length 2 and 3 through state a -> period 1.
        chain = dtmc_from_dict(
            {
                "a": {"b": 0.5, "c": 0.5},
                "b": {"a": 1.0},
                "c": {"d": 1.0},
                "d": {"a": 1.0},
            },
            initial="a",
        )
        assert period(chain, 0) == 1
        assert is_aperiodic(chain)

    def test_absorbing_states_aperiodic(self):
        assert is_aperiodic(gamblers_ruin())


@st.composite
def graphs_with_targets(draw, max_states: int = 10):
    """A chain over a random edge set (edgeless states self-loop, so
    some states reach nothing) plus a random, possibly empty, target
    set."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    successors = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3)) or {s}
        for s in range(n)
    ]
    rows = [s for s in range(n) for _ in successors[s]]
    cols = [t for s in range(n) for t in sorted(successors[s])]
    weights = [1.0 / len(successors[s]) for s in rows]
    matrix = sparse.csr_matrix((weights, (rows, cols)), shape=(n, n))
    targets = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    return DTMC(matrix, 0), successors, targets


def python_hops(successors, targets, state):
    """Forward BFS from ``state`` to the nearest target, -1 if none."""
    seen, queue = {state}, deque([(state, 0)])
    while queue:
        u, depth = queue.popleft()
        if u in targets:
            return depth
        for v in successors[u] - seen:
            seen.add(v)
            queue.append((v, depth + 1))
    return -1


class TestHopsTo:
    @given(graphs_with_targets())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_state_bfs(self, case):
        chain, successors, targets = case
        expected = [
            python_hops(successors, set(targets), s) for s in range(chain.num_states)
        ]
        hops = hops_to(chain, targets)
        assert hops.dtype == np.int64
        assert hops.tolist() == expected

    def test_line_counts_hops_and_marks_unreachable(self):
        chain = chain_line(5)
        assert hops_to(chain, [3]).tolist() == [3, 2, 1, 0, -1]
        assert hops_to(chain, [0, 4]).tolist() == [0, 3, 2, 1, 0]

    def test_empty_target_set(self):
        assert hops_to(knuth_yao_die(), []).tolist() == [-1] * 13
