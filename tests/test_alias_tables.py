"""The vectorized Walker alias tables are exact.

:func:`repro.dtmc.simulate.build_alias_tables` builds every row's
table in one numpy pass; :func:`build_alias_table` is the sequential
Vose reference.  A valid table set has every ``prob`` in [0, 1],
every alias inside its row, reconstructs each row's distribution, and
never samples an explicit zero.  On rows whose arithmetic is exact
(dyadic weights) the two constructions agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zoo
from repro.dtmc.simulate import _pick, build_alias_table, build_alias_tables

#: Largest error of a reconstructed probability.
EXACT = 1e-12


def _csr(rows):
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr, np.concatenate([np.asarray(row, float) for row in rows])


def _reconstruct(indptr, prob, alias):
    """Each slot's sampling probability under the tables."""
    width = np.diff(indptr)
    rows = np.repeat(np.arange(width.size), width)
    mass = prob.copy()
    np.add.at(mass, indptr[:-1][rows] + alias, 1.0 - prob)
    return mass / width[rows]


def _assert_exact(indptr, weights, prob, alias):
    width = np.diff(indptr)
    rows = np.repeat(np.arange(width.size), width)
    assert ((prob >= 0.0) & (prob <= 1.0)).all()
    assert ((alias >= 0) & (alias < width[rows])).all()
    target = weights / np.add.reduceat(weights, indptr[:-1])[rows]
    mass = _reconstruct(indptr, prob, alias)
    assert np.abs(mass - target).max() <= EXACT
    assert (mass[weights == 0.0] == 0.0).all()  # zeros are never drawn


_weight = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1.0),
    st.sampled_from([1.0, 0.5, 0.25, 0.125, 2.0**-30, 1e-300]),
)


@st.composite
def _row(draw):
    width = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["random", "equal", "ties"]))
    if kind == "equal":
        return [draw(st.floats(1e-300, 1.0))] * width
    if kind == "ties":  # few distinct dyadic values, many exact ties
        values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                               min_size=width, max_size=width))
    else:
        values = draw(st.lists(_weight, min_size=width, max_size=width))
    if not any(values):
        values[draw(st.integers(0, width - 1))] = 1.0
    return values


@st.composite
def _dyadic_row(draw):
    """Integer weights summing to ``width * 2**m``: every scaled weight
    and every partial sum is exact, so the pairing is tie-exact."""
    width = draw(st.integers(1, 64))
    total = width * 2 ** draw(st.integers(0, 4))
    cuts = sorted(draw(st.lists(st.integers(0, total),
                                min_size=width - 1, max_size=width - 1)))
    return np.diff([0] + cuts + [total]).astype(float)


@settings(max_examples=200, deadline=None)
@given(st.lists(_row(), min_size=1, max_size=6))
def test_random_rows_are_exact(rows):
    indptr, weights = _csr(rows)
    prob, alias = build_alias_tables(indptr, weights)
    _assert_exact(indptr, weights, prob, alias)


@settings(max_examples=200, deadline=None)
@given(st.lists(_dyadic_row(), min_size=1, max_size=4))
def test_exact_rows_match_the_sequential_reference(rows):
    indptr, weights = _csr(rows)
    prob, alias = build_alias_tables(indptr, weights)
    for r, row in enumerate(rows):
        ref_prob, ref_alias = build_alias_table(row)
        window = slice(indptr[r], indptr[r + 1])
        assert (prob[window] == ref_prob).all()
        assert (alias[window] == ref_alias).all()


@pytest.mark.parametrize("family", [f.name for f in zoo.list_models()])
def test_zoo_default_chains_are_exact(family):
    matrix = zoo.build(family).chain.transition_matrix
    indptr = matrix.indptr.astype(np.int64)
    prob, alias = build_alias_tables(indptr, matrix.data)
    _assert_exact(indptr, matrix.data, prob, alias)


def test_invalid_rows_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        build_alias_tables(np.array([0, 2, 2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        build_alias_tables(np.array([0, 2]), np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="positive sum"):
        build_alias_tables(np.array([0, 2]), np.array([0.0, 0.0]))


def test_largest_uniform_stays_in_row():
    """``advance`` has no rounding guard: the largest double below 1
    must still pick the last slot of every row width up to 4096."""
    width = np.arange(1, 4097)
    successor = np.repeat(np.arange(4096), 2)  # slot k -> state k
    picked = _pick(
        np.ones(4096), successor, 0, width.astype(float),
        np.full(4096, 1.0 - 2.0**-53),
    )
    assert (picked == width - 1).all()
