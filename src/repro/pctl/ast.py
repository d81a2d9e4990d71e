"""Abstract syntax of pCTL (Probabilistic Computation Tree Logic).

The fragment implemented is the one PRISM exposes and the paper uses
(Hansson & Jonsson's pCTL plus the reward extension of Andova et al.):

State formulas
    ``true`` | ``false`` | label | ``var op const`` | ``!f`` | ``f & g``
    | ``f | g`` | ``f => g`` | ``P bowtie [path]`` | ``S bowtie [f]``
    | ``R bowtie [rpath]``

Path formulas
    ``X f`` | ``f U g`` | ``f U<=t g`` | ``F f`` | ``F<=t f`` | ``G f``
    | ``G<=t f``

Reward path formulas
    ``I=t`` (instantaneous) | ``C<=t`` (cumulative) | ``F f``
    (reachability reward) | ``S`` (long-run average)

``bowtie`` is either a numeric query (``=?``) or a probability/reward
bound (``>= 0.99`` etc.).  The paper's properties are:

* P1 best case:     ``P=? [ G<=T !flag ]``
* P2 average case:  ``R=? [ I=T ]``
* P3 worst case:    ``P=? [ F<=T errcnt>1 ]``
* C1 convergence:   ``R=? [ I=T ]`` on the convergence model
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "StateFormula",
    "PathFormula",
    "RewardPath",
    "TrueFormula",
    "FalseFormula",
    "Label",
    "VarComparison",
    "Not",
    "And",
    "Or",
    "Implies",
    "ProbQuery",
    "SteadyQuery",
    "RewardQuery",
    "Next",
    "Until",
    "WeakUntil",
    "Eventually",
    "Globally",
    "Instantaneous",
    "Cumulative",
    "ReachReward",
    "LongRunReward",
    "Bound",
    "COMPARISON_OPS",
    "step_horizon",
]

#: Comparison operators allowed in atomic variable predicates and bounds.
COMPARISON_OPS = ("<=", ">=", "!=", "<", ">", "=")


# ----------------------------------------------------------------------
# Bounds (the "bowtie" of P / R / S operators)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bound:
    """A probability/reward bound such as ``>= 0.99``; ``None`` op means ``=?``."""

    op: Optional[str]
    threshold: Optional[float] = None

    def is_query(self) -> bool:
        """True for numeric queries (``=?``)."""
        return self.op is None

    def holds(self, value: float) -> bool:
        """Evaluate ``value bowtie threshold``."""
        if self.op is None:
            raise ValueError("'=?' query has no boolean value")
        table = {
            "<=": value <= self.threshold,
            "<": value < self.threshold,
            ">=": value >= self.threshold,
            ">": value > self.threshold,
            "=": value == self.threshold,
        }
        return bool(table[self.op])

    def __str__(self) -> str:
        if self.op is None:
            return "=?"
        return f"{self.op}{self.threshold}"


QUERY = Bound(op=None)


# ----------------------------------------------------------------------
# State formulas
# ----------------------------------------------------------------------
class StateFormula:
    """Base class for state formulas."""

    def __and__(self, other: "StateFormula") -> "And":
        return And(self, other)

    def __or__(self, other: "StateFormula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class TrueFormula(StateFormula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(StateFormula):
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Label(StateFormula):
    """An atomic proposition: a chain label or a boolean state variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VarComparison(StateFormula):
    """Comparison of a state variable against a constant, e.g. ``errcnt > 1``."""

    name: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, variable_value: float) -> bool:
        table = {
            "<=": variable_value <= self.value,
            "<": variable_value < self.value,
            ">=": variable_value >= self.value,
            ">": variable_value > self.value,
            "=": variable_value == self.value,
            "!=": variable_value != self.value,
        }
        return bool(table[self.op])

    def __str__(self) -> str:
        # Sweeps key and check a formula by this text, so it must parse
        # back to the same value; ``:g`` alone keeps six digits.
        text = f"{self.value:g}"
        if float(text) != self.value:
            text = repr(self.value)
        return f"{self.name}{self.op}{text}"


@dataclass(frozen=True)
class Not(StateFormula):
    operand: StateFormula

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(StateFormula):
    left: StateFormula
    right: StateFormula

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Implies(StateFormula):
    left: StateFormula
    right: StateFormula

    def __str__(self) -> str:
        return f"({self.left} => {self.right})"


# ----------------------------------------------------------------------
# Path formulas
# ----------------------------------------------------------------------
class PathFormula:
    """Base class for path formulas appearing inside ``P bowtie [..]``."""


@dataclass(frozen=True)
class Next(PathFormula):
    operand: StateFormula

    def __str__(self) -> str:
        return f"X {self.operand}"


def _window_suffix(lower: int, bound: Optional[int]) -> str:
    """Render a step window: ``""``, ``<=b``, ``[a,b]``, or ``[a,inf]``
    (no upper bound), each of which parses back to the same window."""
    if lower == 0:
        return "" if bound is None else f"<={bound}"
    upper = "inf" if bound is None else str(bound)
    return f"[{lower},{upper}]"


@dataclass(frozen=True)
class Until(PathFormula):
    """``left U right``, ``left U<=b right``, or ``left U[a,b] right``.

    ``bound=None`` means no upper bound; ``lower`` (default 0) is the
    earliest step at which ``right`` may count (PRISM's interval
    bound).
    """

    left: StateFormula
    right: StateFormula
    bound: Optional[int] = None
    lower: int = 0

    def __str__(self) -> str:
        return f"{self.left} U{_window_suffix(self.lower, self.bound)} {self.right}"


@dataclass(frozen=True)
class WeakUntil(PathFormula):
    """``left W right``: ``left`` holds until ``right`` — or forever.

    Equivalent to ``(G left) | (left U right)``; the bounded form
    requires ``left`` to hold up to the bound unless ``right`` occurred
    earlier.
    """

    left: StateFormula
    right: StateFormula
    bound: Optional[int] = None

    def __str__(self) -> str:
        w = "W" if self.bound is None else f"W<={self.bound}"
        return f"{self.left} {w} {self.right}"


@dataclass(frozen=True)
class Eventually(PathFormula):
    """``F f``, ``F<=b f``, or ``F[a,b] f`` (satisfaction within a window)."""

    operand: StateFormula
    bound: Optional[int] = None
    lower: int = 0

    def __str__(self) -> str:
        return f"F{_window_suffix(self.lower, self.bound)} {self.operand}"


@dataclass(frozen=True)
class Globally(PathFormula):
    """``G f``, ``G<=b f``, or ``G[a,b] f`` (invariance over a window)."""

    operand: StateFormula
    bound: Optional[int] = None
    lower: int = 0

    def __str__(self) -> str:
        return f"G{_window_suffix(self.lower, self.bound)} {self.operand}"


# ----------------------------------------------------------------------
# Reward path formulas
# ----------------------------------------------------------------------
class RewardPath:
    """Base class for the operand of ``R bowtie [..]``."""


@dataclass(frozen=True)
class Instantaneous(RewardPath):
    """``I=t``: expected state reward at exactly step ``t`` (paper's P2/C1)."""

    time: int

    def __str__(self) -> str:
        return f"I={self.time}"


@dataclass(frozen=True)
class Cumulative(RewardPath):
    """``C<=t``: expected reward accumulated over the first ``t`` steps."""

    time: int

    def __str__(self) -> str:
        return f"C<={self.time}"


@dataclass(frozen=True)
class ReachReward(RewardPath):
    """``F f``: expected reward accumulated until first reaching ``f``."""

    target: StateFormula

    def __str__(self) -> str:
        return f"F {self.target}"


@dataclass(frozen=True)
class LongRunReward(RewardPath):
    """``S``: long-run average reward per step."""

    def __str__(self) -> str:
        return "S"


# ----------------------------------------------------------------------
# Quantified operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbQuery(StateFormula):
    """``P bowtie [ path ]``."""

    path: PathFormula
    bound: Bound = QUERY

    def __str__(self) -> str:
        return f"P{self.bound} [ {self.path} ]"


@dataclass(frozen=True)
class SteadyQuery(StateFormula):
    """``S bowtie [ f ]``: long-run probability of being in ``f`` states."""

    formula: StateFormula
    bound: Bound = QUERY

    def __str__(self) -> str:
        return f"S{self.bound} [ {self.formula} ]"


@dataclass(frozen=True)
class RewardQuery(StateFormula):
    """``R{"name"} bowtie [ rpath ]``; ``reward=None`` uses the chain's only reward."""

    path: RewardPath
    bound: Bound = QUERY
    reward: Optional[str] = None

    def __str__(self) -> str:
        name = f'{{"{self.reward}"}}' if self.reward else ""
        return f"R{name}{self.bound} [ {self.path} ]"


Formula = Union[StateFormula]


def step_horizon(node) -> Optional[int]:
    """Total steps a formula's path operators look ahead, or ``None``.

    Each bounded ``U``/``W``/``F``/``G`` counts its upper bound, ``X``
    counts 1, and ``I=t`` and ``C<=t`` count ``t``; nested queries add
    up.  ``None`` when any operator is unbounded (an unbounded path
    operator, ``S``, ``R [ F ]`` or ``R [ S ]``): checking such a
    formula costs solves, not a known number of matrix-vector steps.
    """
    if isinstance(node, (SteadyQuery, ReachReward, LongRunReward)):
        return None
    if isinstance(node, (Instantaneous, Cumulative)):
        return node.time
    if isinstance(node, (Until, WeakUntil, Eventually, Globally)):
        if node.bound is None:
            return None
        total = node.bound
    else:
        total = 1 if isinstance(node, Next) else 0
    for child in vars(node).values():
        if isinstance(child, (StateFormula, PathFormula, RewardPath)):
            steps = step_horizon(child)
            if steps is None:
                return None
            total += steps
    return total
