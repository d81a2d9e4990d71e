"""Path sampling from DTMCs.

Monte-Carlo simulation *of the chain itself* — the bridge between the
exact engine and statistical model checking: sampled prefixes are fed
to the bounded-property evaluators in :mod:`repro.smc.bridge`, and the
sampler doubles as a general-purpose trace generator for debugging
models.

Sampling uses Walker's alias method.  :func:`build_alias_tables` builds
the table of every transition-matrix row in one numpy pass, in Vose's
pairing order, deciding each pairing from in-row suffix sums and one
sorted merge of each row's lights with its heavies (the sweeping
construction of Hübschle-Schneider & Sanders, "Parallel Weighted
Random Sampling", ESA 2019); :func:`build_alias_table` is the
one-distribution reference loop.  :class:`PathSampler` stores each
table slot's absolute successor on both branches — kept and aliased —
so one step of one walker is a uniform draw and a few gathers.
:meth:`PathSampler.advance` steps an arbitrary batch of walkers per
numpy call, and :meth:`PathSampler.paths` draws whole path matrices
without a Python loop over time steps per path.

The batched methods are *stream-compatible* with the scalar ones: each
walker consumes a fixed number of uniforms (one per transition, plus
one for the initial state), drawn row-major, so ``paths(n, k)`` yields
exactly the ``n`` paths that ``n`` sequential :meth:`PathSampler.path`
calls on the same generator would.  The SMC layer relies on this to
keep chunked runs bit-identical to scalar ones.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .chain import DTMC

__all__ = ["PathSampler", "sample_path", "build_alias_table", "build_alias_tables"]


def build_alias_table(probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table for one discrete distribution.

    Returns ``(prob, alias)`` arrays of ``len(probs)``: outcome ``j``
    is drawn from a uniform ``u`` in ``[0, 1)`` as ``j = floor(u * n)``
    kept with probability ``prob[j]`` (using the fractional part of
    ``u * n`` as the second uniform) and replaced by ``alias[j]``
    otherwise.  This is the sequential reference for
    :func:`build_alias_tables`.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.size
    if n == 0 or not np.all(p >= 0.0) or p.sum() <= 0.0:
        raise ValueError("alias table needs a nonempty nonnegative distribution")
    scaled = p * (n / p.sum())
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        (small if scaled[g] < 1.0 else large).append(g)
    # Leftovers (numerical stragglers) keep prob = 1: always themselves.
    return prob, alias


def build_alias_tables(
    indptr: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The alias tables of every row of a CSR matrix, in one numpy pass.

    ``indptr``/``weights`` are a CSR row pointer and its data; every
    row must be nonempty with nonnegative weights and a positive sum.
    Returns ``(prob, alias)`` indexed like ``weights``, with ``alias``
    holding in-row positions, so row ``r``'s table is the slice
    ``indptr[r]:indptr[r + 1]`` of both.  Each row gets the pairing
    :func:`build_alias_table` makes, up to rounding on near-ties.

    Vose's loop takes lights (scaled weight ``w < 1``) and heavies
    from the row's end, and a heavy that drops below 1 is filled next
    by the following heavy.  In that order let ``D`` be the running
    sum of light deficits ``1 - w`` and ``E`` that of heavy excesses
    ``w - 1``: in-row suffix sums, as both run from the row's end.  A
    heavy drops below 1 at the first light whose ``D`` exceeds its
    ``E``, keeping ``1 + E - D``; a light is filled by the first heavy
    whose ``E`` reaches the previous light's ``D`` (0 for a row's
    first light).  One stable merge of each row's lights by ``D`` with
    its heavies by ``E``, lights first on equal keys, decides both:
    both rules compare the same ``D`` values, so they agree bit for
    bit on near-ties.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    width = np.diff(indptr)
    if width.size == 0 or not np.all(width > 0) or not np.all(weights >= 0.0):
        raise ValueError("alias tables need nonempty nonnegative rows")
    starts = indptr[:-1]
    total = np.add.reduceat(weights, starts)
    if not np.all(total > 0.0):
        raise ValueError("alias tables need rows with a positive sum")
    size = weights.size
    rows = np.repeat(np.arange(width.size), width)
    scaled = weights * (width / total)[rows]
    light = scaled < 1.0
    # Heavies add an exact 0.0 to D and lights to E, so each sum is
    # the running total of its own kind in Vose's order.
    deficit_sum = _row_suffix_sums(np.where(light, 1.0 - scaled, 0.0), starts, width)
    excess_sum = _row_suffix_sums(np.where(light, 0.0, scaled - 1.0), starts, width)

    # Slots in Vose's order: rows ascending, each row from its end.
    order = (starts + indptr[1:] - 1)[rows] - np.arange(size)
    lights = order[light[order]]
    heavies = order[~light[order]]
    light_rows, heavy_rows = rows[lights], rows[heavies]
    heavy_count = np.bincount(heavy_rows, minlength=width.size)
    heavy_end = np.cumsum(heavy_count)
    light_end = np.cumsum(np.bincount(light_rows, minlength=width.size))
    heavy_sum = excess_sum[heavies]
    heavies_before, lights_before = _merge(
        light_rows, deficit_sum[lights], heavy_rows, heavy_sum
    )

    local = np.arange(size) - starts[rows]
    prob = np.ones(size)
    alias = local.copy()
    # A light's filler is the first heavy merged after the previous
    # light of its row (the row's first heavy for its first light).
    filler = np.empty_like(heavies_before)
    filler[1:] = heavies_before[:-1]
    first = np.ones(lights.size, dtype=bool)
    first[1:] = light_rows[1:] != light_rows[:-1]
    filler[first] = (heavy_end - heavy_count)[light_rows[first]]
    filled = filler < heavy_end[light_rows]
    prob[lights[filled]] = scaled[lights[filled]]
    alias[lights[filled]] = local[heavies[filler[filled]]]
    # A heavy that drops below 1 is filled by its successor heavy; the
    # last heavy of a row only drops through rounding and stays whole.
    following = np.arange(1, heavies.size + 1)
    drops = (lights_before < light_end[heavy_rows]) & (
        following < heavy_end[heavy_rows]
    )
    remainder = 1.0 + (heavy_sum[drops] - deficit_sum[lights[lights_before[drops]]])
    prob[heavies[drops]] = np.clip(remainder, 0.0, 1.0)
    alias[heavies[drops]] = local[heavies[following[drops]]]
    return prob, alias


def _row_suffix_sums(
    values: np.ndarray, starts: np.ndarray, width: np.ndarray
) -> np.ndarray:
    """Each slot's sum of ``values`` from itself to its row's end,
    accumulated sequentially from the end (one ``cumsum`` per distinct
    row width)."""
    out = np.empty_like(values)
    for size in np.unique(width):
        block = starts[width == size][:, None] + np.arange(size)
        out[block] = np.cumsum(values[block][:, ::-1], axis=1)[:, ::-1]
    return out


def _merge(
    light_rows: np.ndarray,
    light_keys: np.ndarray,
    heavy_rows: np.ndarray,
    heavy_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge every row's lights and heavies by key, lights first on
    equal keys (both inputs in Vose's order, keys nondecreasing per
    row).

    Returns, per light, the index of the first heavy merged after it,
    and per heavy, the index of the first light merged after it.  A
    row's items merge before the next row's, so an index at or beyond
    the row's end means "none in this row".
    """
    lights = light_rows.size
    merged = np.lexsort(
        (np.concatenate((light_keys, heavy_keys)),
         np.concatenate((light_rows, heavy_rows)))
    )
    is_heavy = merged >= lights
    heavies_before = np.cumsum(is_heavy)
    lights_before = np.arange(1, merged.size + 1) - heavies_before
    heavy_after = np.empty(lights, dtype=np.int64)
    heavy_after[merged[~is_heavy]] = heavies_before[~is_heavy]
    light_after = np.empty(heavy_rows.size, dtype=np.int64)
    light_after[merged[is_heavy] - lights] = lights_before[is_heavy]
    return heavy_after, light_after


def _pick(prob, successor, start, width, u):
    """Vectorized alias draw: slot ``start + floor(u * width)`` is kept
    when the fractional part of ``u * width`` is below its ``prob``,
    and the successor is ``successor[2 * slot]`` (kept) or
    ``successor[2 * slot + 1]`` (aliased).

    No rounding guard is needed: for ``u < 1`` and an integer
    ``width`` below ``2**53``, ``u * width`` rounds to at most the
    float below ``width``, so the slot always lies in its row.
    """
    x = u * width
    whole = np.floor(x)
    slot = start + whole.astype(np.int64)
    return successor[2 * slot + (x - whole >= prob[slot])]


def _pick_one(prob, successor, start: int, width: float, u: float) -> int:
    """Scalar twin of :func:`_pick` — the same IEEE operations in the
    same order, so scalar and batched walks agree bit for bit."""
    x = u * width
    whole = math.floor(x)
    slot = start + whole
    return int(successor[2 * slot + (x - whole >= prob[slot])])


def _successors(columns: np.ndarray, alias_slots: np.ndarray) -> np.ndarray:
    """Interleave each slot's kept and aliased successor states."""
    return np.stack((columns, columns[alias_slots]), axis=1).ravel()


class PathSampler:
    """Draws state-index paths from a chain.

    Builds every transition-matrix row's Walker alias table (and the
    initial distribution's, as a one-row call) with
    :func:`build_alias_tables`, then stores each slot's absolute
    successor on both branches, side by side: the slot's own column
    when the draw keeps it, and the column of its alias when not.
    With row widths stored as floats, a step of a batch of walkers is
    a few gathers and no Python loop (:meth:`advance`), and the scalar
    methods read the same tables with the same arithmetic.

    Parameters
    ----------
    chain:
        The DTMC to sample.
    rng:
        Default generator for the convenience methods; every sampling
        method also accepts an explicit ``rng`` so one sampler (the
        engine caches one per chain) can be shared, across threads
        too, without mutable-state races.
    """

    def __init__(
        self, chain: DTMC, rng: Optional[np.random.Generator] = None
    ) -> None:
        self.chain = chain
        self.rng = rng if rng is not None else np.random.default_rng()
        matrix = chain.transition_matrix
        indptr = matrix.indptr.astype(np.int64)
        width = np.diff(indptr)
        if np.any(width == 0):
            empty = int(np.argmax(width == 0))
            raise ValueError(f"state {empty} has no outgoing transitions")
        columns = matrix.indices.astype(np.int64)
        prob, alias = build_alias_tables(indptr, matrix.data)
        self._start = indptr[:-1]
        self._width = width.astype(np.float64)
        self._prob = prob
        self._successor = _successors(columns, np.repeat(self._start, width) + alias)
        init = chain.initial_distribution
        states = np.flatnonzero(init)
        prob, alias = build_alias_tables(np.array([0, states.size]), init[states])
        self._init_width = float(states.size)
        self._init_prob = prob
        self._init_successor = _successors(states, alias)

    def _rng(self, rng: Optional[np.random.Generator]) -> np.random.Generator:
        return self.rng if rng is None else rng

    # ------------------------------------------------------------------
    # Scalar API (kept stream-compatible with the batched one)
    # ------------------------------------------------------------------
    def sample_initial(self, rng: Optional[np.random.Generator] = None) -> int:
        """Draw a start state from the initial distribution."""
        return _pick_one(
            self._init_prob, self._init_successor,
            0, self._init_width, self._rng(rng).random(),
        )

    def step(self, state: int, rng: Optional[np.random.Generator] = None) -> int:
        """Draw one successor of ``state`` (one uniform consumed)."""
        return _pick_one(
            self._prob, self._successor,
            int(self._start[state]), float(self._width[state]),
            self._rng(rng).random(),
        )

    def path(
        self,
        length: int,
        start: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """A path of ``length`` transitions: ``length + 1`` state indices."""
        rng = self._rng(rng)
        state = self.sample_initial(rng) if start is None else int(start)
        out = np.empty(length + 1, dtype=np.int64)
        out[0] = state
        for t in range(1, length + 1):
            state = self.step(state, rng)
            out[t] = state
        return out

    # ------------------------------------------------------------------
    # Batched API
    # ------------------------------------------------------------------
    def sample_initials_from(self, u: np.ndarray) -> np.ndarray:
        """Map pre-drawn uniforms to initial states via the alias table."""
        return _pick(
            self._init_prob, self._init_successor,
            0, self._init_width, np.asarray(u),
        )

    def sample_initials(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """``count`` initial states in one vectorized draw."""
        return self.sample_initials_from(self._rng(rng).random(count))

    def advance(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Step every walker once: ``states[i] -> successor`` using the
        pre-drawn uniform ``u[i]``.

        A few gathers for the whole batch — the kernel the fused SMC
        trials and :meth:`paths` are built on.
        """
        states = np.asarray(states, dtype=np.int64)
        return _pick(
            self._prob, self._successor,
            self._start[states], self._width[states], np.asarray(u),
        )

    def steps(
        self, states: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """:meth:`advance` with freshly drawn uniforms."""
        states = np.asarray(states, dtype=np.int64)
        return self.advance(states, self._rng(rng).random(states.shape[0]))

    def paths(
        self,
        count: int,
        length: int,
        rng: Optional[np.random.Generator] = None,
        starts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``count`` independent paths, shape ``(count, length + 1)``.

        Walks all paths together, one :meth:`advance` per time step.
        Uniforms are drawn as a row-major ``(count, draws)`` block, so
        row ``i`` reproduces the ``i``-th sequential :meth:`path` call
        on the same generator.
        """
        rng = self._rng(rng)
        out = np.empty((count, length + 1), dtype=np.int64)
        draws = length if starts is not None else length + 1
        uniforms = rng.random((count, draws))
        if starts is None:
            states = self.sample_initials_from(uniforms[:, 0])
            column = 1
        else:
            states = np.asarray(starts, dtype=np.int64)
            column = 0
        out[:, 0] = states
        for t in range(1, length + 1):
            states = self.advance(states, uniforms[:, column])
            out[:, t] = states
            column += 1
        return out


def sample_path(
    chain: DTMC,
    length: int,
    rng: Optional[np.random.Generator] = None,
    start: Optional[int] = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`PathSampler`."""
    return PathSampler(chain, rng).path(length, start=start)
