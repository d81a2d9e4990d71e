"""The unified solver engine: one owner for every linear-algebra solve.

Historically each call site picked its own solver: the pCTL checker
hard-coded ``spsolve`` in two places, steady state solved and fell back
ad hoc, and the iterative engines of :mod:`repro.dtmc.linear` were
wired to nothing.  :class:`Engine` centralizes that choice behind a
:class:`~repro.engine.config.SolverConfig` and adds the reuse a batch
of property checks needs:

* the LU factorization of ``(I - A)`` for a subsystem is computed once
  per ``(chain, subsystem)`` and shared across properties and
  right-hand sides (``method="lu"``, the default);
* Prob0/Prob1 graph precomputations are memoized per
  ``(chain, left, right)`` target set;
* BSCC decompositions, stationary distributions and long-run
  distributions are memoized per chain;
* every cache hit/miss and factorization is counted in
  :class:`EngineStats` — stationary solves as iterated or factorised —
  which the analyzer surfaces as provenance on its
  :class:`~repro.core.analyzer.Guarantee` records.

Engines hold per-chain caches through weak references, so dropping a
chain frees its factorizations.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..dtmc import steady_state as _steady
from ..dtmc.chain import DTMC
from ..dtmc.graph import backward_reachable_mask, bottom_sccs
from ..dtmc.linear import gauss_seidel_solve, jacobi_solve, power_solve
from ..dtmc.simulate import PathSampler
from ..dtmc.sparse_utils import as_csr
from .config import SolverConfig

__all__ = ["Engine", "EngineStats", "default_engine"]


@dataclass
class EngineStats:
    """Mutable counters describing the work an engine has performed."""

    solves: int = 0
    lu_factorizations: int = 0
    lu_cache_hits: int = 0
    prob01_computations: int = 0
    prob01_cache_hits: int = 0
    solution_cache_hits: int = 0
    bscc_computations: int = 0
    bscc_cache_hits: int = 0
    stationary_computations: int = 0
    stationary_cache_hits: int = 0
    long_run_computations: int = 0
    long_run_cache_hits: int = 0
    sampler_builds: int = 0
    sampler_cache_hits: int = 0
    matvecs: int = 0
    #: Stationary solves answered by a certified iterate / by factorising.
    stationary_iterated: int = 0
    stationary_factorised: int = 0
    #: Damped iterations those solves ran, probes that gave up included.
    stationary_iterations: int = 0
    #: Largest certified L1 error of an accepted iterate.
    stationary_max_error: float = 0.0

    @property
    def cache_hits(self) -> int:
        """Total reuse events across every cache."""
        return (
            self.lu_cache_hits
            + self.prob01_cache_hits
            + self.solution_cache_hits
            + self.bscc_cache_hits
            + self.stationary_cache_hits
            + self.long_run_cache_hits
            + self.sampler_cache_hits
        )

    def snapshot(self) -> Dict[str, float]:
        """Copy of all counters (for before/after provenance deltas)."""
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        }


@dataclass
class _ChainCache:
    """Everything the engine remembers about one chain."""

    ref: weakref.ref
    lu: Dict[bytes, object] = field(default_factory=dict)
    prob01: Dict[Tuple[bytes, bytes], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    until: Dict[Tuple[bytes, bytes], np.ndarray] = field(default_factory=dict)
    reach_reward: Dict[Tuple[bytes, bytes], np.ndarray] = field(
        default_factory=dict
    )
    bsccs: Optional[List[List[int]]] = None
    stationary: Optional[np.ndarray] = None
    long_run: Optional[np.ndarray] = None
    sampler: Optional[PathSampler] = None


def _bits(vector: np.ndarray) -> bytes:
    """Compact cache key for a boolean per-state vector."""
    return np.packbits(np.asarray(vector, dtype=bool)).tobytes()


class Engine:
    """Owns solver choice and per-chain numerical caches.

    Parameters
    ----------
    config:
        A :class:`SolverConfig`, a bare method name (``"jacobi"``), or
        ``None`` for the defaults (LU-cached direct solves).

    One engine may serve any number of chains; caches are keyed by
    chain identity and dropped when the chain is garbage collected.
    """

    def __init__(
        self, config: Union[SolverConfig, str, None] = None
    ) -> None:
        self.config = SolverConfig.coerce(config)
        self.stats = EngineStats()
        self._chains: Dict[int, _ChainCache] = {}

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _cache(self, chain: DTMC) -> _ChainCache:
        key = id(chain)
        entry = self._chains.get(key)
        if entry is not None and entry.ref() is chain:
            return entry
        chains = self._chains

        def _evict(_ref, _key=key) -> None:
            chains.pop(_key, None)

        entry = _ChainCache(ref=weakref.ref(chain, _evict))
        chains[key] = entry
        return entry

    def clear(self) -> None:
        """Drop every cached factorization and memoized result."""
        self._chains.clear()

    def register(self, chain: DTMC) -> "Engine":
        """Adopt ``chain`` into the engine's cache bookkeeping.

        Registration creates the per-chain cache slot eagerly, so the
        scenario-zoo pipeline can hand back a chain that is already
        known to the engine every later check will run on.  It is
        idempotent and costs nothing beyond the (empty) slot; caches
        still fill lazily on first use and are dropped when the chain
        is garbage collected, exactly as for lazily-discovered chains.
        """
        self._cache(chain)
        return self

    @property
    def num_registered_chains(self) -> int:
        """Number of chains the engine currently tracks caches for."""
        return len(self._chains)

    # ------------------------------------------------------------------
    # Linear-system kernel
    # ------------------------------------------------------------------
    def solve_subsystem(
        self, chain: DTMC, unknown: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(I - P[unknown][:, unknown]) x = rhs``.

        This is the single equation shape of probabilistic model
        checking — unbounded until, reachability rewards, and
        absorption probabilities all reduce to it — dispatched to the
        configured backend.
        """
        unknown = np.asarray(unknown, dtype=np.int64)
        rhs = np.asarray(rhs, dtype=np.float64)
        self.stats.solves += 1
        method = self.config.method
        if method == "lu":
            lu = self._factorization(chain, unknown)
            return np.atleast_1d(lu.solve(rhs))
        sub = chain.transition_matrix[unknown][:, unknown]
        if method == "direct":
            identity = sparse.identity(unknown.size, format="csr")
            return np.atleast_1d(
                sparse_linalg.spsolve((identity - sub).tocsc(), rhs)
            )
        solver = {
            "power": power_solve,
            "jacobi": jacobi_solve,
            "gauss-seidel": gauss_seidel_solve,
        }[method]
        return solver(
            as_csr(sub),
            rhs,
            tolerance=self.config.tolerance,
            max_iterations=self.config.max_iterations,
        )

    def _factorization(self, chain: DTMC, unknown: np.ndarray):
        """Cached sparse LU of ``(I - P[unknown][:, unknown])``."""
        cache = self._cache(chain)
        key = unknown.tobytes()
        lu = cache.lu.get(key)
        if lu is not None:
            self.stats.lu_cache_hits += 1
            return lu
        sub = chain.transition_matrix[unknown][:, unknown]
        identity = sparse.identity(unknown.size, format="csr")
        lu = sparse_linalg.splu((identity - sub).tocsc())
        cache.lu[key] = lu
        self.stats.lu_factorizations += 1
        return lu

    # ------------------------------------------------------------------
    # Graph precomputations
    # ------------------------------------------------------------------
    def prob01(
        self, chain: DTMC, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized Prob0/Prob1 sets for ``P(left U right)``.

        Returns boolean vectors ``(prob0, prob1)``: states whose until
        probability is exactly 0 (cannot reach ``right`` along ``left``
        paths) and exactly 1.
        """
        left = np.asarray(left, dtype=bool)
        right = np.asarray(right, dtype=bool)
        cache = self._cache(chain)
        key = (_bits(left), _bits(right))
        hit = cache.prob01.get(key)
        if hit is not None:
            self.stats.prob01_cache_hits += 1
            return hit[0].copy(), hit[1].copy()
        through = left & ~right

        # Prob0: complement of backward reachability from `right`.
        prob0 = ~backward_reachable_mask(chain, np.flatnonzero(right), through)

        # Prob1 = complement of states that, staying within left&!right,
        # can reach a Prob0 state (Baier & Katoen, Lemma 10.16).
        can_fail = backward_reachable_mask(chain, np.flatnonzero(prob0), through)
        prob1 = ~can_fail & ~prob0
        prob1 |= right  # target states trivially satisfy

        cache.prob01[key] = (prob0, prob1)
        self.stats.prob01_computations += 1
        # Copies, like the solution caches: callers may use the vectors
        # as scratch masks without poisoning the cache.
        return prob0.copy(), prob1.copy()

    # ------------------------------------------------------------------
    # Property-level solves
    # ------------------------------------------------------------------
    def unbounded_until(
        self, chain: DTMC, left: np.ndarray, right: np.ndarray
    ) -> np.ndarray:
        """Per-state ``P(left U right)`` via Prob0/Prob1 + linear solve."""
        left = np.asarray(left, dtype=bool)
        right = np.asarray(right, dtype=bool)
        cache = self._cache(chain)
        key = (_bits(left), _bits(right))
        hit = cache.until.get(key)
        if hit is not None:
            self.stats.solution_cache_hits += 1
            return hit.copy()

        prob0, prob1 = self.prob01(chain, left, right)
        n = chain.num_states
        result = np.zeros(n)
        result[prob1] = 1.0
        unknown = np.nonzero(~prob0 & ~prob1)[0]
        if unknown.size:
            matrix = chain.transition_matrix
            rhs = np.asarray(
                matrix[unknown][:, np.nonzero(prob1)[0]].sum(axis=1)
            ).ravel()
            solution = self.solve_subsystem(chain, unknown, rhs)
            result[unknown] = np.clip(solution, 0.0, 1.0)
        cache.until[key] = result
        return result.copy()

    def reachability_reward(
        self, chain: DTMC, rho: np.ndarray, target: np.ndarray
    ) -> np.ndarray:
        """``R=? [F target]`` with the standard infinity semantics:
        states that do not reach ``target`` almost surely get ``inf``."""
        rho = np.asarray(rho, dtype=np.float64)
        target = np.asarray(target, dtype=bool)
        cache = self._cache(chain)
        key = (rho.tobytes(), _bits(target))
        hit = cache.reach_reward.get(key)
        if hit is not None:
            self.stats.solution_cache_hits += 1
            return hit.copy()

        n = chain.num_states
        # Finite exactly on the graph Prob1 set of `F target`: a solved
        # reach probability cannot tell 1 - 1e-13 from 1.
        _, finite = self.prob01(chain, np.ones(n, dtype=bool), target)
        result = np.full(n, np.inf)
        result[target] = 0.0
        solve_states = np.nonzero(finite & ~target)[0]
        if solve_states.size:
            result[solve_states] = self.solve_subsystem(
                chain, solve_states, rho[solve_states]
            )
        cache.reach_reward[key] = result
        return result.copy()

    # ------------------------------------------------------------------
    # Long-run structure
    # ------------------------------------------------------------------
    def bottom_sccs(self, chain: DTMC) -> List[List[int]]:
        """Memoized BSCC decomposition of ``chain``."""
        cache = self._cache(chain)
        if cache.bsccs is None:
            cache.bsccs = bottom_sccs(chain)
            self.stats.bscc_computations += 1
        else:
            self.stats.bscc_cache_hits += 1
        return cache.bsccs

    def stationary_distribution(
        self, chain: DTMC, assume_irreducible: bool = False
    ) -> np.ndarray:
        """Memoized stationary distribution of an irreducible chain."""
        cache = self._cache(chain)
        if cache.stationary is None:
            cache.stationary = self._stationary_solve(
                chain, assume_irreducible=assume_irreducible
            )
            self.stats.stationary_computations += 1
        else:
            self.stats.stationary_cache_hits += 1
        return cache.stationary

    def _stationary_solve(
        self, chain: DTMC, *, assume_irreducible: bool
    ) -> np.ndarray:
        """One uncached stationary solve on the configured method,
        counted as iterated or factorised."""
        solve = _steady._stationary_impl(
            chain,
            assume_irreducible=assume_irreducible,
            method=self.config.method,
            tolerance=self.config.tolerance,
            max_iterations=self.config.max_iterations,
        )
        s = self.stats
        if solve.factorised:
            s.stationary_factorised += 1
        else:
            s.stationary_iterated += 1
        s.stationary_iterations += solve.iterations
        if solve.error is not None:
            s.stationary_max_error = max(s.stationary_max_error, solve.error)
        return solve.pi

    def path_sampler(self, chain: DTMC) -> PathSampler:
        """Memoized :class:`~repro.dtmc.simulate.PathSampler`.

        The sampler's Walker alias tables are built once per chain and
        cached alongside the LU/Prob0-Prob1 structure, so statistical
        checks of many properties (or many SMC runs in a sweep) share
        one table build.  The cached sampler is stateless with respect
        to randomness when callers pass explicit generators, as the
        SMC layer does — safe to share across threads.
        """
        cache = self._cache(chain)
        if cache.sampler is None:
            cache.sampler = PathSampler(chain)
            self.stats.sampler_builds += 1
        else:
            self.stats.sampler_cache_hits += 1
        return cache.sampler

    def long_run_distribution(self, chain: DTMC) -> np.ndarray:
        """Memoized long-run (limiting average) distribution."""
        cache = self._cache(chain)
        if cache.long_run is None:
            cache.long_run = _steady._long_run_impl(chain, engine=self)
            self.stats.long_run_computations += 1
        else:
            self.stats.long_run_cache_hits += 1
        return cache.long_run

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def count_matvecs(self, count: int) -> None:
        """Record sparse matrix-vector products done on the engine's
        behalf (the transient layer reports its work here)."""
        self.stats.matvecs += int(count)

    def describe(self) -> str:
        """One-line summary for provenance records and logs."""
        s = self.stats
        return (
            f"engine[{self.config.method}] solves={s.solves}"
            f" lu={s.lu_factorizations}(+{s.lu_cache_hits} hits)"
            f" prob01={s.prob01_computations}(+{s.prob01_cache_hits} hits)"
            f" stationary={s.stationary_iterated} iterated"
            f"/{s.stationary_factorised} factorised"
            f" ({s.stationary_iterations} its, err<={s.stationary_max_error:.1e})"
            f" cache_hits={s.cache_hits}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(method={self.config.method!r}, chains={len(self._chains)})"


def default_engine(
    config: Union[SolverConfig, str, None] = None,
    engine: Optional[Engine] = None,
) -> Engine:
    """Resolve the common ``(engine=None, config=None)`` call pattern."""
    if engine is not None:
        if not isinstance(engine, Engine):
            raise TypeError(
                f"engine must be an Engine, got {type(engine).__name__}"
                f" ({engine!r}); pass method names and SolverConfigs via"
                " the config/solver parameter"
            )
        if config is not None:
            raise ValueError("pass either an engine or a config, not both")
        return engine
    return Engine(config)
