"""Parser for PRISM-style pCTL property strings.

Accepts the syntax used throughout the paper, e.g.::

    P=? [ G<=300 !flag ]
    R=? [ I=300 ]
    P=? [ F<=300 errcnt>1 ]
    P>=0.99 [ !flag U<=50 done ]
    S=? [ flag ]
    R{"errors"}=? [ C<=100 ]

Quoted labels (PRISM writes ``"flag"``) and bare identifiers are both
accepted.  The grammar is a small recursive-descent parser over a
hand-rolled tokenizer; precedence for state formulas is
``! > & > | > =>``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

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

__all__ = ["parse_formula", "PctlSyntaxError", "MAX_NESTING"]

#: Deepest formula the parser accepts.  Every ``!``, parenthesis and
#: P/R/S operator opens one level, and so does every further operand
#: of an ``&``/``|``/``=>`` chain, so a formula within the cap stays
#: well inside Python's recursion limit in the parser and the checker.
MAX_NESTING = 100


class PctlSyntaxError(ValueError):
    """Raised on malformed property strings."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
  | (?P<quoted>"[A-Za-z_][A-Za-z0-9_]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=\?|<=|>=|!=|=>|[<>=!&|()\[\]{},])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise PctlSyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.position = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.position]

    def advance(self) -> Tuple[str, str]:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def accept(self, value: str) -> bool:
        if self.peek()[1] == value:
            self.advance()
            return True
        return False

    def expect(self, value: str) -> None:
        kind, got = self.advance()
        if got != value:
            raise PctlSyntaxError(
                f"expected {value!r} but found {got!r} in {self.text!r}"
            )

    def nest(self) -> None:
        """Open one nesting level; the caller restores ``depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PctlSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels"
            )

    def expect_kind(self, kind: str) -> str:
        got_kind, got = self.advance()
        if got_kind != kind:
            raise PctlSyntaxError(
                f"expected {kind} but found {got!r} in {self.text!r}"
            )
        return got

    # -- entry point ----------------------------------------------------
    def parse(self) -> StateFormula:
        formula = self.state_formula()
        if self.peek()[0] != "eof":
            raise PctlSyntaxError(
                f"trailing input {self.peek()[1]!r} in {self.text!r}"
            )
        return formula

    # -- state formulas ---------------------------------------------------
    def state_formula(self) -> StateFormula:
        return self.implies()

    def implies(self) -> StateFormula:
        depth = self.depth
        operands = [self.disjunction()]
        while self.accept("=>"):
            self.nest()
            operands.append(self.disjunction())
        self.depth = depth
        formula = operands.pop()
        while operands:  # right-associative
            formula = Implies(operands.pop(), formula)
        return formula

    def disjunction(self) -> StateFormula:
        depth = self.depth
        left = self.conjunction()
        while self.accept("|"):
            self.nest()
            left = Or(left, self.conjunction())
        self.depth = depth
        return left

    def conjunction(self) -> StateFormula:
        depth = self.depth
        left = self.unary()
        while self.accept("&"):
            self.nest()
            left = And(left, self.unary())
        self.depth = depth
        return left

    def unary(self) -> StateFormula:
        kind, value = self.peek()
        depth = self.depth
        self.nest()
        if value == "!":
            self.advance()
            formula = Not(self.unary())
        elif value == "(":
            self.advance()
            formula = self.state_formula()
            self.expect(")")
        elif value in ("P", "R", "S") and self._looks_like_operator():
            formula = self.quantified()
        else:
            formula = self.atom()
        self.depth = depth
        return formula

    def _looks_like_operator(self) -> bool:
        """Distinguish the P/R/S operators from identifiers named P/R/S.

        An operator is always followed by a bound (``=?``, ``>=`` ...)
        or, for R, a ``{`` reward designator.
        """
        nxt = self.tokens[self.position + 1][1]
        return nxt in ("=?", "<=", ">=", "<", ">", "=", "{")

    def atom(self) -> StateFormula:
        kind, value = self.advance()
        if kind == "quoted":
            name = value.strip('"')
            return self._maybe_comparison(name)
        if kind != "ident":
            raise PctlSyntaxError(
                f"expected an atomic proposition, found {value!r} in {self.text!r}"
            )
        if value == "true":
            return TrueFormula()
        if value == "false":
            return FalseFormula()
        return self._maybe_comparison(value)

    def _maybe_comparison(self, name: str) -> StateFormula:
        kind, value = self.peek()
        if value in ("<=", ">=", "!=", "<", ">", "="):
            # "=?" never reaches here: it is a single token.
            self.advance()
            number = float(self.expect_kind("number"))
            return VarComparison(name, value, number)
        return Label(name)

    # -- P / R / S operators -------------------------------------------
    def quantified(self) -> StateFormula:
        kind, operator = self.advance()
        if operator == "P":
            bound = self.bound()
            self.expect("[")
            path = self.path_formula()
            self.expect("]")
            return ProbQuery(path, bound)
        if operator == "S":
            bound = self.bound()
            self.expect("[")
            inner = self.state_formula()
            self.expect("]")
            return SteadyQuery(inner, bound)
        if operator == "R":
            reward: Optional[str] = None
            if self.accept("{"):
                token_kind, token = self.advance()
                if token_kind not in ("quoted", "ident"):
                    raise PctlSyntaxError(
                        f"expected reward name, found {token!r} in {self.text!r}"
                    )
                reward = token.strip('"')
                self.expect("}")
            bound = self.bound()
            self.expect("[")
            path = self.reward_path()
            self.expect("]")
            return RewardQuery(path, bound, reward)
        raise PctlSyntaxError(f"unknown operator {operator!r}")

    def bound(self) -> Bound:
        kind, value = self.advance()
        if value == "=?":
            return Bound(op=None)
        if value in ("<=", ">=", "<", ">", "="):
            number = float(self.expect_kind("number"))
            return Bound(op=value, threshold=number)
        raise PctlSyntaxError(
            f"expected a bound ('=?', '>=p', ...), found {value!r} in {self.text!r}"
        )

    # -- path formulas ---------------------------------------------------
    def path_formula(self) -> PathFormula:
        kind, value = self.peek()
        if value == "X":
            self.advance()
            return Next(self.state_formula())
        if value == "F":
            self.advance()
            lower, bound = self.step_window()
            return Eventually(self.state_formula(), bound, lower)
        if value == "G":
            self.advance()
            lower, bound = self.step_window()
            return Globally(self.state_formula(), bound, lower)
        left = self.state_formula()
        if self.accept("U"):
            lower, bound = self.step_window()
            right = self.state_formula()
            return Until(left, right, bound, lower)
        if self.accept("W"):
            lower, bound = self.step_window()
            if lower != 0:
                raise PctlSyntaxError(
                    "interval bounds are not defined for weak until"
                )
            right = self.state_formula()
            return WeakUntil(left, right, bound)
        raise PctlSyntaxError(
            f"expected 'U' or 'W' in path formula of {self.text!r}"
        )

    def step_window(self) -> Tuple[int, Optional[int]]:
        """Parse ``<=b``, ``[a,b]``, ``[a,inf]`` or nothing ->
        ``(lower, upper)``; ``upper`` is ``None`` for no bound."""
        if self.accept("<="):
            return 0, self._int_token()
        if self.peek()[1] == "[" and self.tokens[self.position + 1][0] == "number":
            self.advance()  # '['
            lower = self._int_token()
            self.expect(",")
            upper = None if self.accept("inf") else self._int_token()
            self.expect("]")
            if upper is not None and upper < lower:
                raise PctlSyntaxError(
                    f"empty step window [{lower},{upper}]"
                )
            return lower, upper
        return 0, None

    def _int_token(self) -> int:
        number = self.expect_kind("number")
        value = float(number)
        if value != int(value):
            raise PctlSyntaxError(f"step bound must be an integer, got {number}")
        return int(value)

    # -- reward path formulas ---------------------------------------------
    def reward_path(self) -> RewardPath:
        kind, value = self.peek()
        if value == "I":
            self.advance()
            self.expect("=")
            return Instantaneous(self._int_token())
        if value == "C":
            self.advance()
            self.expect("<=")
            return Cumulative(self._int_token())
        if value == "F":
            self.advance()
            return ReachReward(self.state_formula())
        if value == "S":
            self.advance()
            return LongRunReward()
        raise PctlSyntaxError(
            f"expected a reward path (I=t, C<=t, F f, S), found {value!r}"
        )


def parse_formula(text: str) -> StateFormula:
    """Parse a PRISM-style pCTL property string into an AST.

    >>> parse_formula("P=? [ G<=300 !flag ]")
    ProbQuery(path=Globally(operand=Not(operand=Label(name='flag')), bound=300, lower=0), bound=Bound(op=None, threshold=None))
    """
    return _Parser(text).parse()
