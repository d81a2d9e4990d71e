"""Conformance of the exact long-run path.

* Per zoo family with a label usable in ``S=?``, at small parameters,
  the default engine (a certified iterate, else a factorisation), the
  ``direct`` factorisation and the ``power`` iteration agree to 1e-12.
* The factorisation pins a heavy state, so a chain whose last state's
  stationary mass underflows still matches its closed form.
* On hypothesis-generated chains with several BSCCs and transient
  states, the three agree on ``long_run_distribution`` the same way.
* The csgraph graph kernels match a brute-force dense-closure
  reference on random graphs, including the reverse topological order
  of the SCC list.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zoo
from repro.dtmc import (
    DTMC,
    backward_reachable,
    bottom_sccs,
    constrained_backward_reachable,
    is_irreducible,
    long_run_distribution,
    reachable_states,
    strongly_connected_components,
)
from repro.engine import Engine
from repro.pctl import check

AGREEMENT = 1e-12
METHODS = (None, "direct", "power")  # None: the default SolverConfig

FAMILY_CASES = [
    ("viterbi-memory-m", {"memory": 1}, "S=? [ flag ]"),
    ("viterbi-memory-m", {"memory": 1}, "R=? [ S ]"),
    (
        "viterbi-memory-m",
        {"memory": 2, "traceback_length": 3, "num_levels": 3},
        "S=? [ flag ]",
    ),
    ("birth-death", {"n": 16}, "S=? [ goal ]"),
    ("birth-death", {"n": 40, "p_up": 0.2, "p_down": 0.3}, "S=? [ empty ]"),
    ("random-sparse", {"n": 200, "num_blocks": 20, "seed": 3}, "S=? [ goal ]"),
    ("mimo-1xN", {"num_rx": 1}, "S=? [ flag ]"),
]


@pytest.mark.parametrize("family, params, formula", FAMILY_CASES)
def test_family_long_run_agrees_across_backends(family, params, formula):
    chain = zoo.build(family, params, reduce=False).chain
    values = {
        method: check(chain, formula, engine=Engine(method)).value
        for method in METHODS
    }
    assert values[None] == pytest.approx(values["direct"], abs=AGREEMENT)
    assert values["power"] == pytest.approx(values["direct"], abs=AGREEMENT)


def test_factorisation_pins_a_heavy_state():
    """Drifting down, the top state's stationary mass underflows
    ((2/3)^1999), so pinning it would overflow every other unknown; the
    factorisation must pin a heavy state and match the closed form."""
    n, p_up, p_down = 2000, 0.2, 0.3
    chain = zoo.build(
        "birth-death", {"n": n, "p_up": p_up, "p_down": p_down}, reduce=False
    ).chain
    r = p_up / p_down
    closed_form = (1 - r) / (1 - r**n)
    for method in (None, "direct"):
        engine = Engine(method)
        value = check(chain, "S=? [ empty ]", engine=engine).value
        assert engine.stats.stationary_factorised == 1
        assert value == pytest.approx(closed_form, abs=AGREEMENT)


@st.composite
def multi_bscc_chains(draw) -> DTMC:
    """2-4 closed classes (a cycle plus random inner edges, so some are
    periodic) and 1-8 transient states, in shuffled state order.

    Every transient state leaves the transient part with probability at
    least 3/4 per step: the ``power`` until-solve stops on a 1e-12
    step, so its error stays inside 1e-12 only when that part contracts
    fast (over 1500 such chains the largest gap to ``direct`` was
    4.4e-13 for both the default engine and ``power``).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    transient = draw(st.integers(1, 8))
    closed = sum(sizes)
    n = closed + transient
    matrix = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        for i in range(start, start + size):
            matrix[i, start + (i - start + 1) % size] = rng.uniform(0.1, 1.0)
            extra = rng.random(size) < 0.4
            matrix[i, block] += extra * rng.uniform(0.1, 1.0, size)
        start += size
    for i in range(closed, n):
        wander = (rng.random(transient) < 0.5) * rng.uniform(0.1, 1.0, transient)
        leave = rng.uniform(0.1, 1.0, closed) * (rng.random(closed) < 0.5)
        leave[rng.integers(closed)] += 0.1
        matrix[i, closed:] = wander / max(wander.sum(), 1.0) * 0.25
        matrix[i, :closed] = leave / leave.sum() * (1.0 - matrix[i, closed:].sum())
    matrix /= matrix.sum(axis=1, keepdims=True)
    order = rng.permutation(n)
    shuffled = matrix[np.ix_(order, order)]
    init = rng.dirichlet(np.ones(n))
    return DTMC(shuffled, init)


@given(multi_bscc_chains())
@settings(max_examples=60, deadline=None)
def test_random_multi_bscc_long_run_agrees(chain):
    assert len(bottom_sccs(chain)) >= 2
    pis = {
        method: long_run_distribution(chain, engine=Engine(method))
        for method in METHODS
    }
    np.testing.assert_allclose(pis[None], pis["direct"], rtol=0, atol=AGREEMENT)
    np.testing.assert_allclose(pis["power"], pis["direct"], rtol=0, atol=AGREEMENT)
    assert pis[None].sum() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# Graph kernels against a brute-force dense closure
# ----------------------------------------------------------------------

@st.composite
def random_graph_chains(draw):
    """A random sparse graph as a DTMC (every row gets one forced edge
    so it is stochastic), plus random target and through sets."""
    n = draw(st.integers(1, 24))
    density = draw(st.floats(0.0, 0.35))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = rng.random((n, n)) < density
    adjacency[np.arange(n), rng.integers(0, n, n)] = True
    chain = DTMC(adjacency / adjacency.sum(axis=1, keepdims=True), 0)
    targets = np.flatnonzero(rng.random(n) < 0.2)
    through = rng.random(n) < 0.6
    return chain, adjacency, targets, through


def _closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean squaring."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (wider == reach).all():
            return reach
        reach = wider


@given(random_graph_chains())
@settings(max_examples=150, deadline=None)
def test_graph_kernels_match_dense_closure(case):
    chain, adjacency, targets, through = case
    n = chain.num_states
    reach = _closure(adjacency)
    mutual = reach & reach.T

    components = strongly_connected_components(chain)
    assert {frozenset(c) for c in components} == {
        frozenset(np.flatnonzero(mutual[i]).tolist()) for i in range(n)
    }
    assert all(c == sorted(c) for c in components)
    position = np.empty(n, dtype=np.int64)
    for index, members in enumerate(components):
        position[members] = index
    sources, dests = np.nonzero(adjacency)
    across = position[sources] != position[dests]
    # Reverse topological: edges run from later components to earlier.
    assert (position[sources[across]] > position[dests[across]]).all()

    expected_bottoms = {
        frozenset(c) for c in components if reach[c].any(axis=0).sum() == len(c)
    }
    assert {frozenset(b) for b in bottom_sccs(chain)} == expected_bottoms
    assert is_irreducible(chain) == bool(reach.all())

    assert reachable_states(chain) == set(np.flatnonzero(reach[0]).tolist())
    assert backward_reachable(chain, targets) == set(
        np.flatnonzero(reach[:, targets].any(axis=1)).tolist()
    )
    constrained = _closure(adjacency & through[:, None])
    assert constrained_backward_reachable(chain, targets, through) == set(
        np.flatnonzero(constrained[:, targets].any(axis=1)).tolist()
    )
