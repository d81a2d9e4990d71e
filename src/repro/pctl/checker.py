"""pCTL model checker over explicit-state DTMCs.

Implements the standard algorithms (Hansson & Jonsson; Baier & Katoen,
*Principles of Model Checking*, ch. 10):

* bounded operators by iterated sparse matrix-vector products,
* unbounded until via the Prob0/Prob1 graph precomputations plus a
  linear solve on the remaining states,
* instantaneous / cumulative / long-run rewards via the transient and
  steady-state solvers of :mod:`repro.dtmc`,
* reachability rewards with the standard infinite-value treatment for
  states that do not reach the target almost surely.

Every linear solve routes through a :class:`repro.engine.Engine`, so
the backend (direct, LU-cached, power, Jacobi, Gauss-Seidel) is
selectable via :class:`repro.engine.SolverConfig` and factorizations,
Prob0/Prob1 sets and long-run structure are reused across the
properties checked by one :class:`ModelChecker`.

The public entry point is :func:`check` (or the :class:`ModelChecker`
class when several properties are checked against one chain —
:meth:`ModelChecker.check_many` batches them over shared caches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..dtmc import DTMC
from ..dtmc.sparse_utils import matvec_step, step_vector
from ..dtmc.transient import (
    bounded_invariance,
    bounded_reachability,
)
from ..engine import Engine, SolverConfig, default_engine
from .ast import (
    And,
    Bound,
    Cumulative,
    Eventually,
    FalseFormula,
    Globally,
    Implies,
    Instantaneous,
    Label,
    LongRunReward,
    Next,
    Not,
    Or,
    PathFormula,
    ProbQuery,
    ReachReward,
    RewardPath,
    RewardQuery,
    StateFormula,
    SteadyQuery,
    TrueFormula,
    Until,
    VarComparison,
    WeakUntil,
)
from .parser import parse_formula

__all__ = ["CheckResult", "ModelChecker", "check", "PctlSemanticsError"]


class PctlSemanticsError(ValueError):
    """Raised when a formula cannot be interpreted over the given chain."""


@dataclass
class CheckResult:
    """Result of checking one property.

    Attributes
    ----------
    formula:
        The checked formula (parsed AST).
    value:
        The result *from the initial distribution*: a probability or
        expected reward for ``=?`` queries, a bool for bounded
        operators.
    vector:
        Per-state values: probabilities/rewards (float array) for
        queries, satisfaction (bool array) for boolean formulas.
    """

    formula: StateFormula
    value: Union[float, bool]
    vector: np.ndarray

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        if isinstance(self.value, (bool, np.bool_)):
            return bool(self.value)
        raise TypeError(
            "numeric query result; compare .value explicitly instead"
        )


class ModelChecker:
    """Checks pCTL properties against one DTMC.

    Parameters
    ----------
    chain:
        The model.  Labels referenced by formulas must either exist on
        the chain or be resolvable as state-variable lookups (states
        that are mappings or have named attributes, e.g. namedtuples).
    engine:
        A :class:`repro.engine.Engine` to route all linear solves
        through.  Sharing one engine across checkers (or reusing one
        checker) shares LU factorizations, Prob0/Prob1 precomputations
        and long-run structure between properties.
    config:
        Shorthand when no engine is shared: a
        :class:`repro.engine.SolverConfig` (or bare method name such as
        ``"gauss-seidel"``) for a private engine.
    """

    def __init__(
        self,
        chain: DTMC,
        engine: Optional[Engine] = None,
        config: Union[SolverConfig, str, None] = None,
    ) -> None:
        self.chain = chain
        self.engine = default_engine(config, engine)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def check(self, formula: Union[str, StateFormula]) -> CheckResult:
        """Check ``formula`` and return the result from the initial states."""
        if isinstance(formula, str):
            formula = parse_formula(formula)
        if isinstance(formula, ProbQuery):
            vector = self.path_probability(formula.path)
            return self._finish_query(formula, vector, formula.bound)
        if isinstance(formula, SteadyQuery):
            vector = self._steady_vector(formula.formula)
            return self._finish_query(formula, vector, formula.bound)
        if isinstance(formula, RewardQuery):
            vector = self.reward_value(formula.path, formula.reward)
            return self._finish_query(formula, vector, formula.bound)
        sat = self.satisfaction(formula)
        init = self.chain.initial_states()
        value = bool(all(sat[i] for i in init))
        return CheckResult(formula, value, sat)

    def check_many(
        self, formulas: Iterable[Union[str, StateFormula]]
    ) -> List[CheckResult]:
        """Check a batch of properties against the chain.

        The properties share this checker's engine, so the expensive
        per-chain work — LU factorizations, Prob0/Prob1 graph
        precomputations, BSCC decomposition, stationary distributions —
        is performed at most once per ``(chain, target-set)`` and
        reused across the whole batch.  Results are returned in input
        order.
        """
        return [self.check(formula) for formula in formulas]

    def _finish_query(
        self, formula: StateFormula, vector: np.ndarray, bound: Bound
    ) -> CheckResult:
        # Restrict to supported initial states so that infinite rewards on
        # unreachable states do not produce inf * 0 = nan.
        init = self.chain.initial_distribution
        mask = init > 0
        initial_value = float(vector[mask] @ init[mask])
        if bound.is_query():
            return CheckResult(formula, initial_value, vector)
        return CheckResult(formula, bound.holds(initial_value), vector)

    # ------------------------------------------------------------------
    # State formulas -> boolean satisfaction vectors
    # ------------------------------------------------------------------
    def satisfaction(self, formula: StateFormula) -> np.ndarray:
        """Boolean satisfaction vector of a state formula."""
        chain = self.chain
        if isinstance(formula, TrueFormula):
            return np.ones(chain.num_states, dtype=bool)
        if isinstance(formula, FalseFormula):
            return np.zeros(chain.num_states, dtype=bool)
        if isinstance(formula, Label):
            return self._atom_vector(formula.name)
        if isinstance(formula, VarComparison):
            values = self._variable_values(formula.name)
            return np.fromiter(
                (formula.evaluate(v) for v in values),
                dtype=bool,
                count=chain.num_states,
            )
        if isinstance(formula, Not):
            return ~self.satisfaction(formula.operand)
        if isinstance(formula, And):
            return self.satisfaction(formula.left) & self.satisfaction(formula.right)
        if isinstance(formula, Or):
            return self.satisfaction(formula.left) | self.satisfaction(formula.right)
        if isinstance(formula, Implies):
            return ~self.satisfaction(formula.left) | self.satisfaction(formula.right)
        if isinstance(formula, ProbQuery):
            if formula.bound.is_query():
                raise PctlSemanticsError(
                    "'=?' query used as a nested state formula; give it a bound"
                )
            vector = self.path_probability(formula.path)
            return self._bound_vector(vector, formula.bound)
        if isinstance(formula, SteadyQuery):
            if formula.bound.is_query():
                raise PctlSemanticsError(
                    "'=?' query used as a nested state formula; give it a bound"
                )
            vector = self._steady_vector(formula.formula)
            return self._bound_vector(vector, formula.bound)
        if isinstance(formula, RewardQuery):
            if formula.bound.is_query():
                raise PctlSemanticsError(
                    "'=?' query used as a nested state formula; give it a bound"
                )
            vector = self.reward_value(formula.path, formula.reward)
            return self._bound_vector(vector, formula.bound)
        raise PctlSemanticsError(f"unsupported state formula {formula!r}")

    @staticmethod
    def _bound_vector(vector: np.ndarray, bound: Bound) -> np.ndarray:
        ops = {
            "<=": vector <= bound.threshold,
            "<": vector < bound.threshold,
            ">=": vector >= bound.threshold,
            ">": vector > bound.threshold,
            "=": vector == bound.threshold,
        }
        return ops[bound.op]

    def _atom_vector(self, name: str) -> np.ndarray:
        chain = self.chain
        if name in chain.labels:
            return chain.label_vector(name)
        # Fall back to a boolean state variable.
        values = self._variable_values(name)
        return np.fromiter(
            (bool(v) for v in values), dtype=bool, count=chain.num_states
        )

    def _variable_values(self, name: str) -> Sequence[Any]:
        chain = self.chain
        if chain.states is None:
            raise PctlSemanticsError(
                f"{name!r} is not a label and the chain carries no state"
                " objects to look it up on"
            )
        probe = chain.states[0]
        if isinstance(probe, Mapping):
            getter = lambda s: s[name]  # noqa: E731
        elif hasattr(probe, name):
            getter = lambda s: getattr(s, name)  # noqa: E731
        else:
            raise PctlSemanticsError(
                f"cannot resolve atom {name!r}: not a chain label and not a"
                f" state variable of {type(probe).__name__}"
            )
        try:
            return [getter(s) for s in chain.states]
        except (KeyError, AttributeError) as exc:
            raise PctlSemanticsError(
                f"state variable {name!r} missing on some states"
            ) from exc

    # ------------------------------------------------------------------
    # Path formulas -> per-state probability vectors
    # ------------------------------------------------------------------
    def path_probability(self, path: PathFormula) -> np.ndarray:
        chain = self.chain
        if isinstance(path, Next):
            target = self.satisfaction(path.operand).astype(np.float64)
            return chain.transition_matrix @ target
        if isinstance(path, Eventually):
            return self._until(
                np.ones(chain.num_states, dtype=bool),
                self.satisfaction(path.operand),
                path.bound,
                lower=path.lower,
            )
        if isinstance(path, Globally):
            # G[a,b] f == !(F[a,b] !f)
            inner = self.satisfaction(path.operand)
            if path.lower == 0 and path.bound is not None:
                return bounded_invariance(
                    chain, inner, path.bound, engine=self.engine
                )
            reach_bad = self._until(
                np.ones(chain.num_states, dtype=bool),
                ~inner,
                path.bound,
                lower=path.lower,
            )
            return 1.0 - reach_bad
        if isinstance(path, Until):
            return self._until(
                self.satisfaction(path.left),
                self.satisfaction(path.right),
                path.bound,
                lower=path.lower,
            )
        if isinstance(path, WeakUntil):
            # left W right  ==  !((left & !right) U (!left & !right)):
            # the only way to violate it is to leave `left` before
            # `right` has occurred.
            left = self.satisfaction(path.left)
            right = self.satisfaction(path.right)
            violate = self._until(left & ~right, ~left & ~right, path.bound)
            return 1.0 - violate
        raise PctlSemanticsError(f"unsupported path formula {path!r}")

    def _until(
        self,
        left: np.ndarray,
        right: np.ndarray,
        bound: Optional[int],
        lower: int = 0,
    ) -> np.ndarray:
        """``P(left U[lower, bound] right)`` per state.

        For a positive ``lower``, the window phase (a standard bounded
        or unbounded until over the remaining horizon) is prefixed by
        ``lower`` "ramp" steps during which the path must stay inside
        ``left`` and ``right`` does not yet count.
        """
        chain = self.chain
        if bound is not None and lower > bound:
            raise PctlSemanticsError(
                f"empty step window [{lower},{bound}]"
            )
        if bound is not None:
            window = bounded_reachability(
                chain, right, bound - lower, avoid=~left, engine=self.engine
            )
        else:
            window = self._unbounded_until(left, right)
        if lower == 0:
            return window
        # Ramp steps ``left * (P @ value)`` as the CSR of the `left`
        # rows into a zeroed buffer: the same bits for the finite,
        # non-negative vectors seen here.
        step = matvec_step(chain.transition_matrix, left)
        value = step_vector(window, chain.num_states)
        spare = np.empty_like(value)
        for _ in range(lower):
            spare.fill(0.0)
            step(value, spare)
            value, spare = spare, value
        self.engine.count_matvecs(lower)
        return value

    def _unbounded_until(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """P(left U right): Prob0/Prob1 + linear solve, on the engine."""
        return self.engine.unbounded_until(self.chain, left, right)

    # ------------------------------------------------------------------
    # Steady-state operator
    # ------------------------------------------------------------------
    def _steady_vector(self, formula: StateFormula) -> np.ndarray:
        """``S=? [f]``: long-run probability of residing in ``f`` states.

        For the (common) single-BSCC case this is independent of the
        start state; in general it is computed from the chain's initial
        distribution, so the per-state vector is constant.
        """
        sat = self.satisfaction(formula)
        pi = self.engine.long_run_distribution(self.chain)
        value = float(pi @ sat.astype(np.float64))
        return np.full(self.chain.num_states, value)

    # ------------------------------------------------------------------
    # Reward operators
    # ------------------------------------------------------------------
    def _reward_vector(self, name: Optional[str]) -> np.ndarray:
        chain = self.chain
        if name is not None:
            return chain.reward_vector(name)
        if len(chain.rewards) == 1:
            return next(iter(chain.rewards.values()))
        raise PctlSemanticsError(
            f"chain has {len(chain.rewards)} reward structures; name one with"
            ' R{"name"}=? [...]'
        )

    def reward_value(self, path: RewardPath, reward: Optional[str]) -> np.ndarray:
        chain = self.chain
        rho = self._reward_vector(reward)
        if isinstance(path, Instantaneous):
            # Per-state vector: expected reward t steps after starting there.
            return self._reward_steps(rho, path.time, None)
        if isinstance(path, Cumulative):
            total = np.zeros(chain.num_states)
            self._reward_steps(rho, path.time, total)
            return total
        if isinstance(path, LongRunReward):
            pi = self.engine.long_run_distribution(chain)
            value = float(pi @ rho)
            return np.full(chain.num_states, value)
        if isinstance(path, ReachReward):
            return self._reachability_reward(rho, self.satisfaction(path.target))
        raise PctlSemanticsError(f"unsupported reward path {path!r}")

    def _reward_steps(
        self, rho: np.ndarray, steps: int, total: Optional[np.ndarray]
    ) -> np.ndarray:
        """``P^steps @ rho``, one kernel call per step; with ``total``,
        each of ``rho .. P^(steps-1) @ rho`` is added into it first."""
        current = step_vector(rho, self.chain.num_states)
        spare = np.empty_like(current)
        step = matvec_step(self.chain.transition_matrix)
        for _ in range(steps):
            if total is not None:
                total += current
            spare.fill(0.0)
            step(current, spare)
            current, spare = spare, current
        self.engine.count_matvecs(steps)
        return current

    def _reachability_reward(
        self, rho: np.ndarray, target: np.ndarray
    ) -> np.ndarray:
        """``R=? [F target]`` with the standard infinity semantics."""
        return self.engine.reachability_reward(self.chain, rho, target)


def check(
    chain: DTMC,
    formula: Union[str, StateFormula],
    *,
    engine: Optional[Engine] = None,
    config: Union[SolverConfig, str, None] = None,
) -> CheckResult:
    """Check one pCTL property against ``chain``.

    Convenience wrapper around :class:`ModelChecker`:

    >>> from repro.dtmc import dtmc_from_dict
    >>> chain = dtmc_from_dict(
    ...     {"a": {"a": 0.5, "b": 0.5}, "b": {"b": 1.0}},
    ...     initial="a", labels={"done": ["b"]})
    >>> check(chain, "P=? [ F<=2 done ]").value
    0.75

    ``engine``/``config`` select the solver backend exactly as for
    :class:`ModelChecker`; pass a shared engine to reuse factorizations
    across calls.
    """
    return ModelChecker(chain, engine=engine, config=config).check(formula)
