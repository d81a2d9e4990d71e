"""Tests for the core metrics and PerformanceAnalyzer API."""

import pytest

from repro import PerformanceAnalyzer
from repro.core import (
    Guarantee,
    PAPER_METRICS,
    average_case_error,
    best_case_error,
    convergence_rate,
    steady_state_ber,
    worst_case_error,
)
from repro.pctl import parse_formula
from repro.viterbi import ViterbiModelConfig

from helpers import count_parses, two_state_chain

CFG = ViterbiModelConfig()


class TestMetricSpecs:
    def test_p1_renders_paper_property(self):
        spec = best_case_error(300)
        assert spec.property_string == "P=? [ G<=300 !flag ]"
        parse_formula(spec.property_string)  # must be valid pCTL

    def test_p2_renders_paper_property(self):
        spec = average_case_error(300)
        assert spec.property_string == "R=? [ I=300 ]"

    def test_p2_with_named_reward(self):
        spec = average_case_error(100, reward="err")
        assert spec.property_string == 'R{"err"}=? [ I=100 ]'
        parse_formula(spec.property_string)

    def test_p3_renders_paper_property(self):
        spec = worst_case_error(300, threshold=1)
        assert spec.property_string == "P=? [ F<=300 errcnt>1 ]"
        parse_formula(spec.property_string)

    def test_c1_renders_convergence_property(self):
        spec = convergence_rate(1000)
        assert spec.property_string == 'R{"nonconv"}=? [ I=1000 ]'
        parse_formula(spec.property_string)

    def test_ber_spec(self):
        assert steady_state_ber().property_string == "S=? [ flag ]"

    def test_paper_metrics_triple(self):
        specs = PAPER_METRICS(300)
        assert [s.name for s in specs] == ["P1", "P2", "P3"]

    def test_str_mentions_name_and_property(self):
        text = str(best_case_error(10))
        assert "P1" in text and "G<=10" in text


class TestAnalyzer:
    @pytest.fixture(scope="class")
    def analyzer(self):
        return PerformanceAnalyzer.for_viterbi(CFG)

    def test_table1_shape(self, analyzer):
        p1 = analyzer.best_case(300).value
        p2 = analyzer.average_case(300).value
        assert p1 < 1e-3
        assert 0.001 < p2 < 0.5
        p3 = PerformanceAnalyzer.for_viterbi_worst_case(CFG).worst_case(300).value
        assert p3 > 0.99
        assert p1 < p2 < p3

    def test_guarantee_provenance(self, analyzer):
        guarantee = analyzer.average_case(100)
        assert isinstance(guarantee, Guarantee)
        assert guarantee.model_states == analyzer.chain.num_states
        assert guarantee.check_seconds >= 0
        assert "I=100" in guarantee.property_string

    def test_history_accumulates(self):
        analyzer = PerformanceAnalyzer.for_viterbi(CFG)
        analyzer.ber()
        analyzer.average_case(10)
        assert len(analyzer.history) == 2
        assert "BER" in analyzer.summary()

    def test_raw_property_check(self, analyzer):
        guarantee = analyzer.check("P=? [ F<=10 flag ]")
        assert 0 <= guarantee.value <= 1

    def test_ber_equals_large_horizon_p2(self, analyzer):
        ber = analyzer.ber().value
        p2 = analyzer.average_case(400).value
        assert ber == pytest.approx(p2, rel=1e-6)

    def test_steady_state_preconditions(self, analyzer):
        conditions = analyzer.steady_state_preconditions()
        assert conditions["aperiodic"]

    def test_reachability_iterations_positive(self, analyzer):
        assert analyzer.reachability_iterations() >= 1

    def test_full_vs_reduced_factories_agree(self):
        full = PerformanceAnalyzer.for_viterbi(CFG, reduced=False)
        reduced = PerformanceAnalyzer.for_viterbi(CFG, reduced=True)
        assert full.average_case(50).value == pytest.approx(
            reduced.average_case(50).value, abs=1e-10
        )
        assert full.chain.num_states > reduced.chain.num_states

    def test_convergence_factory(self):
        analyzer = PerformanceAnalyzer.for_viterbi_convergence(CFG)
        c1 = analyzer.convergence(400)
        assert 0 < c1.value < 1
        assert "nonconv" in c1.property_string

    def test_mimo_factory(self):
        analyzer = PerformanceAnalyzer.for_mimo_detector()
        ber = analyzer.ber().value
        assert 0 < ber < 0.01

    def test_check_parses_the_property_once(self, monkeypatch):
        analyzer = PerformanceAnalyzer(two_state_chain(), name="toy")
        parses = count_parses(monkeypatch)
        guarantee = analyzer.check("P=? [ F<=2 in_b ]")
        assert len(parses) == 1
        assert guarantee.property_string == "P=? [ F<=2 in_b ]"
        assert guarantee.warnings == ()

    def test_generic_chain_constructor(self):
        chain = two_state_chain(p=0.5, q=0.3)
        analyzer = PerformanceAnalyzer(chain, name="toy")
        guarantee = analyzer.check("S=? [ in_b ]")
        assert guarantee.value == pytest.approx(0.625)
        assert "toy" in analyzer.summary()
