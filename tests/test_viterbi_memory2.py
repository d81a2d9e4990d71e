"""Tests for the memory-m generalization of the Viterbi full model.

The paper's case studies fix m = 1 ("our methodology is not limited to
these assumptions"); the full model here supports any memory-m
partial-response channel with a 2^m-state trellis.
"""

import numpy as np
import pytest

from repro.engine import Engine
from repro.pctl import check
from repro.sim import simulate_viterbi_ber
from repro.viterbi import (
    ViterbiModelConfig,
    build_convergence_model,
    build_full_model,
    build_reduced_model,
)

MEM2 = ViterbiModelConfig(
    snr_db=6.0,
    traceback_length=4,
    num_levels=5,
    pm_max=4,
    taps=(1.0, 0.5, 0.5),
)


#: ``S=? [ flag ]`` of MEM2 by the direct factorisation.  It takes about
#: a minute there (SuperLU fill-in on the 21k-state BSCC), so the value
#: is pinned here rather than recomputed.
MEM2_DIRECT_BER = 0.029320245400258342


class TestConfigValidation:
    def test_memory_property(self):
        assert MEM2.memory == 2
        assert ViterbiModelConfig().memory == 1

    def test_single_tap_rejected(self):
        with pytest.raises(ValueError, match="taps"):
            ViterbiModelConfig(taps=(1.0,))

    def test_traceback_must_exceed_memory(self):
        with pytest.raises(ValueError, match="memory"):
            ViterbiModelConfig(taps=(1.0, 0.5, 0.5), traceback_length=2)


class TestMemory2Model:
    @pytest.fixture(scope="class")
    def model(self):
        return build_full_model(MEM2)

    def test_four_trellis_states(self, model):
        state = model.states[0]
        assert len(state.pm) == 4
        assert len(state.prev[0]) == 4

    def test_chain_valid_and_nontrivial(self, model):
        assert model.num_states > 100
        sums = np.asarray(model.chain.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_ber_checkable(self, model):
        ber = check(model.chain, "S=? [ flag ]").value
        assert 0 < ber < 0.5

    def test_ber_matches_direct_and_power(self, model):
        """The default engine answers from a certified iterate that agrees
        with the direct factorisation and the power iteration to 1e-12."""
        engine = Engine()
        ber = check(model.chain, "S=? [ flag ]", engine=engine).value
        assert engine.stats.stationary_iterated == 1
        assert ber == pytest.approx(MEM2_DIRECT_BER, abs=1e-12)
        power = check(model.chain, "S=? [ flag ]", config="power").value
        assert ber == pytest.approx(power, abs=1e-12)

    def test_ber_decreases_with_snr(self):
        bers = []
        for snr in (2.0, 6.0, 10.0):
            config = ViterbiModelConfig(
                snr_db=snr,
                traceback_length=4,
                num_levels=5,
                pm_max=4,
                taps=(1.0, 0.5, 0.5),
            )
            chain = build_full_model(config).chain
            bers.append(check(chain, "S=? [ flag ]").value)
        assert bers[0] > bers[1] > bers[2]

    def test_monte_carlo_agreement(self, model):
        """The m=2 DTMC matches the bit-true decoder on the same channel."""
        model_ber = check(model.chain, "S=? [ flag ]").value
        estimate = simulate_viterbi_ber(MEM2, num_steps=80_000, seed=13)
        low, high = estimate.interval
        assert low * 0.7 <= model_ber <= high * 1.3


class TestMemory1Restrictions:
    def test_reduced_model_rejects_memory2(self):
        with pytest.raises(ValueError, match="memory"):
            build_reduced_model(MEM2)

    def test_convergence_model_rejects_memory2(self):
        with pytest.raises(ValueError, match="memory"):
            build_convergence_model(MEM2)
