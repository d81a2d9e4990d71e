"""Unit tests for the pCTL parser (repro.pctl.parser)."""

import pytest

from repro.pctl import (
    And,
    Bound,
    Cumulative,
    Eventually,
    Globally,
    Implies,
    Instantaneous,
    Label,
    LongRunReward,
    Next,
    Not,
    Or,
    PctlSyntaxError,
    ProbQuery,
    ReachReward,
    RewardQuery,
    SteadyQuery,
    TrueFormula,
    Until,
    VarComparison,
    parse_formula,
    step_horizon,
)
from repro.pctl.parser import MAX_NESTING


class TestPaperProperties:
    """The four properties the paper checks, verbatim."""

    def test_p1_best_case(self):
        formula = parse_formula("P=? [ G<=300 !flag ]")
        assert formula == ProbQuery(
            Globally(Not(Label("flag")), bound=300), Bound(None)
        )

    def test_p2_average_case(self):
        formula = parse_formula("R=? [ I=300 ]")
        assert formula == RewardQuery(Instantaneous(300), Bound(None), None)

    def test_p3_worst_case(self):
        formula = parse_formula("P=? [ F<=300 flag>1 ]")
        assert formula == ProbQuery(
            Eventually(VarComparison("flag", ">", 1), bound=300), Bound(None)
        )

    def test_c1_convergence(self):
        formula = parse_formula("R=? [ I=1000 ]")
        assert formula == RewardQuery(Instantaneous(1000), Bound(None), None)


class TestStateFormulas:
    def test_constants(self):
        assert parse_formula("true") == TrueFormula()

    def test_precedence_not_and_or(self):
        formula = parse_formula("!a & b | c")
        assert formula == Or(And(Not(Label("a")), Label("b")), Label("c"))

    def test_implies_is_right_associative(self):
        formula = parse_formula("a => b => c")
        assert formula == Implies(Label("a"), Implies(Label("b"), Label("c")))

    def test_parentheses(self):
        formula = parse_formula("a & (b | c)")
        assert formula == And(Label("a"), Or(Label("b"), Label("c")))

    def test_quoted_labels(self):
        assert parse_formula('"flag"') == Label("flag")

    def test_variable_comparisons(self):
        assert parse_formula("count>=3") == VarComparison("count", ">=", 3)
        assert parse_formula("count != 2") == VarComparison("count", "!=", 2)
        assert parse_formula("x = 0.5") == VarComparison("x", "=", 0.5)

    def test_scientific_notation(self):
        formula = parse_formula("P>=1e-3 [ F flag ]")
        assert formula.bound == Bound(">=", 1e-3)


class TestOperators:
    def test_probability_bound(self):
        formula = parse_formula("P>=0.99 [ F done ]")
        assert formula == ProbQuery(Eventually(Label("done")), Bound(">=", 0.99))

    def test_next(self):
        assert parse_formula("P=? [ X done ]") == ProbQuery(
            Next(Label("done")), Bound(None)
        )

    def test_unbounded_until(self):
        formula = parse_formula("P=? [ safe U goal ]")
        assert formula == ProbQuery(Until(Label("safe"), Label("goal")), Bound(None))

    def test_bounded_until(self):
        formula = parse_formula("P=? [ safe U<=10 goal ]")
        assert formula == ProbQuery(
            Until(Label("safe"), Label("goal"), bound=10), Bound(None)
        )

    def test_steady_state_operator(self):
        assert parse_formula("S=? [ flag ]") == SteadyQuery(Label("flag"), Bound(None))

    def test_named_reward(self):
        formula = parse_formula('R{"errors"}=? [ C<=100 ]')
        assert formula == RewardQuery(Cumulative(100), Bound(None), "errors")

    def test_reachability_reward(self):
        formula = parse_formula("R=? [ F done ]")
        assert formula == RewardQuery(ReachReward(Label("done")), Bound(None), None)

    def test_long_run_reward(self):
        formula = parse_formula("R=? [ S ]")
        assert formula == RewardQuery(LongRunReward(), Bound(None), None)

    def test_nested_operator_as_atom(self):
        formula = parse_formula("P>=0.5 [ F done ] & flag")
        assert isinstance(formula, And)
        assert isinstance(formula.left, ProbQuery)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "P=? [ ]",
            "P=? [ F ",
            "P=? F done ]",
            "R=? [ I<300 ]",
            "P=? [ G<=3.5 flag ]",
            "P=? [ done U ]",
            "Q=? [ F done ]",
            "P=? [ F done ] extra",
            "",
            "P=? [ F done@ ]",
        ],
    )
    def test_malformed_strings_rejected(self, text):
        with pytest.raises(PctlSyntaxError):
            parse_formula(text)

    def test_round_trip_via_str(self):
        for text in [
            "P=? [ G<=300 !flag ]",
            "R=? [ I=300 ]",
            "P>=0.99 [ safe U<=10 goal ]",
            "S=? [ flag ]",
            "P=? [ F errcnt>1234567 ]",
            "P=? [ F errcnt<=0.1234567 ]",
        ]:
            formula = parse_formula(text)
            assert parse_formula(str(formula)) == formula


class TestNestingCap:
    @pytest.mark.parametrize(
        "text",
        [
            "!(" * 1000 + "done" + ")" * 1000,
            "P=? [ F " + " & ".join(["done"] * 1000) + " ]",
            " => ".join(["done"] * 1000),
        ],
    )
    def test_deep_formulas_raise_syntax_error(self, text):
        with pytest.raises(PctlSyntaxError, match="nests deeper"):
            parse_formula(text)

    def test_nesting_within_the_cap_parses(self):
        text = "done"
        for _ in range(MAX_NESTING // 2 - 1):
            text = f"P>=0.5 [ F {text} ]"
        assert isinstance(parse_formula(text), ProbQuery)
        chain = parse_formula(" | ".join(["done"] * (MAX_NESTING // 2)))
        assert isinstance(chain, Or)


class TestStepHorizon:
    @pytest.mark.parametrize(
        "text, steps",
        [
            ("P=? [ F<=30 goal ]", 30),
            ("P=? [ G<=300 !flag ]", 300),
            ("P=? [ F[3,7] goal ]", 7),
            ("P=? [ a U<=5 b ]", 5),
            ("P=? [ a W<=5 b ]", 5),
            ("P=? [ X goal ]", 1),
            ("R=? [ I=40 ]", 40),
            ('R{"level"}=? [ C<=12 ]', 12),
            ("P=? [ F<=10 (P>0.5 [ F<=20 goal ]) ]", 30),
            ("P=? [ (P>0.1 [ X a ]) U<=4 b ]", 5),
            ("P>=0.5 [ F<=2 a ] & P<=0.5 [ G<=3 b ]", 5),
            ("goal", 0),
            ("true", 0),
            ("errcnt>1", 0),
            ("P=? [ F goal ]", None),
            ("P=? [ G goal ]", None),
            ("P=? [ a U b ]", None),
            ("P=? [ a W b ]", None),
            ("S=? [ goal ]", None),
            ("R=? [ F goal ]", None),
            ("R=? [ S ]", None),
            ("P=? [ F<=10 (P>0.5 [ true U goal ]) ]", None),
            ("P=? [ X (S>0.5 [ goal ]) ]", None),
            ("!(P>0.5 [ F goal ])", None),
        ],
    )
    def test_counts_bounded_steps(self, text, steps):
        assert step_horizon(parse_formula(text)) == steps

    def test_lower_bound_without_upper_is_unbounded(self):
        assert step_horizon(ProbQuery(Eventually(Label("goal"), None, 2))) is None


class TestOpenStepWindows:
    """``[a,inf]`` is the printed form of a window with no upper bound,
    so every window parses back from its own text (rows are keyed by
    ``str(tree)``)."""

    @staticmethod
    def _paths(lower, bound):
        goal = Label("goal")
        return (
            Eventually(goal, bound, lower),
            Globally(goal, bound, lower),
            Until(Label("safe"), goal, bound, lower),
        )

    @pytest.mark.parametrize("lower", [0, 1, 2])
    @pytest.mark.parametrize("width", [None, 0, 3])
    def test_every_window_round_trips(self, lower, width):
        bound = None if width is None else lower + width
        for path in self._paths(lower, bound):
            tree = ProbQuery(path)
            assert parse_formula(str(tree)) == tree
            if bound is None:
                assert step_horizon(tree) is None
            else:
                assert step_horizon(tree) == bound

    def test_inf_parses_as_no_upper_bound(self):
        assert parse_formula("P=? [ F[2,inf] goal ]") == ProbQuery(
            Eventually(Label("goal"), None, 2)
        )

    @pytest.mark.parametrize(
        "text",
        ["P=? [ F[inf,3] goal ]", "P=? [ F[inf,inf] goal ]", "P=? [ G<=inf goal ]"],
    )
    def test_inf_is_only_an_upper_end(self, text):
        with pytest.raises(PctlSyntaxError):
            parse_formula(text)
