"""Probabilistic Computation Tree Logic: syntax, parser, and model checker.

The property language the paper uses to state its BER-like performance
metrics (P1/P2/P3/C1), with PRISM-compatible surface syntax.
"""

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
    step_horizon,
)
from .checker import CheckResult, ModelChecker, PctlSemanticsError, check
from .parser import PctlSyntaxError, parse_formula

__all__ = [
    "And",
    "Bound",
    "Cumulative",
    "Eventually",
    "FalseFormula",
    "Globally",
    "Implies",
    "Instantaneous",
    "Label",
    "LongRunReward",
    "Next",
    "Not",
    "Or",
    "PathFormula",
    "ProbQuery",
    "ReachReward",
    "RewardPath",
    "RewardQuery",
    "StateFormula",
    "SteadyQuery",
    "TrueFormula",
    "Until",
    "VarComparison",
    "WeakUntil",
    "step_horizon",
    "CheckResult",
    "ModelChecker",
    "PctlSemanticsError",
    "check",
    "PctlSyntaxError",
    "parse_formula",
]
