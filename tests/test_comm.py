"""Unit + property tests for the communication substrate (repro.comm)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    AWGNChannel,
    BPSK,
    ConvolutionalEncoder,
    PartialResponseTransmitter,
    QPSK,
    RayleighFadingChannel,
    UniformQuantizer,
    bpsk_awgn_ber,
    bpsk_diversity_ber,
    bpsk_rayleigh_ber,
    db_to_linear,
    linear_to_db,
    noise_sigma,
    noise_variance,
    q_function,
    q_function_inverse,
    sigma_to_snr_db,
)


class TestSnr:
    def test_db_round_trip(self):
        for db in [-10, 0, 3, 8, 12]:
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db)

    def test_known_values(self):
        assert db_to_linear(0) == pytest.approx(1.0)
        assert db_to_linear(10) == pytest.approx(10.0)
        assert db_to_linear(3) == pytest.approx(1.9953, abs=1e-3)

    def test_noise_variance_convention(self):
        # Es/N0 = 1 (0 dB) with Es=1 -> N0 = 1 -> per-dimension var 0.5.
        assert noise_variance(0.0) == pytest.approx(0.5)

    def test_sigma_round_trip(self):
        for db in [0.0, 5.0, 8.0, 12.0]:
            assert sigma_to_snr_db(noise_sigma(db)) == pytest.approx(db)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            noise_variance(5.0, symbol_energy=-1.0)
        with pytest.raises(ValueError):
            sigma_to_snr_db(0.0)


class TestModulation:
    def test_bpsk_mapping(self):
        mod = BPSK()
        assert mod.modulate([0, 1]).tolist() == [-1.0, 1.0]

    def test_bpsk_round_trip(self):
        mod = BPSK()
        bits = np.array([0, 1, 1, 0, 1])
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), bits)

    def test_bpsk_energy(self):
        mod = BPSK(symbol_energy=4.0)
        assert np.allclose(np.abs(mod.modulate([0, 1])), 2.0)

    def test_bpsk_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BPSK().modulate([0, 2])

    def test_qpsk_round_trip(self):
        mod = QPSK()
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), bits)

    def test_qpsk_unit_energy(self):
        mod = QPSK(symbol_energy=1.0)
        assert np.allclose(np.abs(mod.constellation()), 1.0)

    def test_qpsk_needs_even_bits(self):
        with pytest.raises(ValueError, match="even"):
            QPSK().modulate([0, 1, 1])

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
    def test_bpsk_round_trip_property(self, bits):
        mod = BPSK()
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), np.asarray(bits))


class TestQuantizer:
    def test_level_layout(self):
        q = UniformQuantizer(4, -2.0, 2.0)
        assert q.thresholds.tolist() == [-1.0, 0.0, 1.0]
        assert q.levels.tolist() == [-1.5, -0.5, 0.5, 1.5]

    def test_for_bits(self):
        q = UniformQuantizer.for_bits(3, -1, 1)
        assert q.num_levels == 8

    def test_quantize_saturates(self):
        q = UniformQuantizer(4, -2.0, 2.0)
        assert q.quantize([-100.0, 100.0]).tolist() == [-1.5, 1.5]

    def test_quantize_index(self):
        q = UniformQuantizer(4, -2.0, 2.0)
        assert q.quantize_index([-1.5, -0.5, 0.5, 1.5]).tolist() == [0, 1, 2, 3]

    def test_cell_probabilities_sum_to_one(self):
        q = UniformQuantizer(8, -3, 3)
        probs = q.cell_probabilities(mean=0.7, sigma=0.5)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_cell_probabilities_concentrate_at_mean(self):
        q = UniformQuantizer(8, -4, 4)
        probs = q.cell_probabilities(mean=2.5, sigma=0.1)
        assert q.levels[np.argmax(probs)] == pytest.approx(2.5)
        assert probs.max() > 0.99

    def test_cell_probabilities_match_empirical(self):
        q = UniformQuantizer(5, -2, 2)
        sigma, mean = 0.8, 0.3
        rng = np.random.default_rng(7)
        samples = rng.normal(mean, sigma, 200_000)
        counts = np.bincount(q.quantize_index(samples), minlength=5) / samples.size
        assert np.allclose(counts, q.cell_probabilities(mean, sigma), atol=5e-3)

    def test_output_distribution_cutoff(self):
        q = UniformQuantizer(8, -4, 4)
        pairs = q.output_distribution(0.0, 0.3, cutoff=1e-6)
        assert len(pairs) < 8
        assert sum(p for p, _ in pairs) == pytest.approx(1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UniformQuantizer(1, -1, 1)
        with pytest.raises(ValueError):
            UniformQuantizer(4, 1, -1)
        with pytest.raises(ValueError):
            UniformQuantizer(4, -1, 1).cell_probabilities(0.0, 0.0)

    def test_cell_probabilities_bit_identical_to_norm_cdf(self):
        from scipy import stats

        q = UniformQuantizer(8, -3, 3)
        rng = np.random.default_rng(11)
        for mean, sigma in zip(rng.normal(0, 3, 500), rng.uniform(1e-3, 5, 500)):
            cdf = stats.norm.cdf(q.thresholds, loc=mean, scale=sigma)
            probabilities = np.append(cdf, 1.0) - np.insert(cdf, 0, 0.0)
            expected = probabilities / probabilities.sum()
            got = q.cell_probabilities(mean, sigma)
            assert got.tobytes() == expected.tobytes()

    def test_import_paths_skip_scipy_stats(self):
        import os
        import subprocess
        import sys

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, repro, repro.zoo.cli;"
            " print('scipy.stats' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @given(
        st.integers(min_value=2, max_value=16),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=60)
    def test_probabilities_always_stochastic(self, levels, mean, sigma):
        q = UniformQuantizer(levels, -5, 5)
        probs = q.cell_probabilities(mean, sigma)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()


class TestChannels:
    def test_awgn_statistics(self):
        channel = AWGNChannel(sigma=0.5, rng=np.random.default_rng(1))
        out = channel(np.zeros(100_000))
        assert out.mean() == pytest.approx(0.0, abs=1e-2)
        assert out.std() == pytest.approx(0.5, abs=1e-2)

    def test_awgn_complex(self):
        channel = AWGNChannel(sigma=0.5, complex_valued=True, rng=np.random.default_rng(2))
        out = channel(np.zeros(100_000, dtype=complex))
        assert out.real.std() == pytest.approx(0.5, abs=1e-2)
        assert out.imag.std() == pytest.approx(0.5, abs=1e-2)

    def test_rayleigh_unit_energy(self):
        channel = RayleighFadingChannel(2, 2, 0.1, rng=np.random.default_rng(3))
        hs = np.stack([channel.sample_h() for _ in range(20_000)])
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, abs=2e-2)

    def test_transmit_shape_checked(self):
        channel = RayleighFadingChannel(2, 2, 0.1)
        with pytest.raises(ValueError, match="shape"):
            channel.transmit(np.ones(3))

    def test_transmit_block_matches_loop(self):
        channel = RayleighFadingChannel(2, 1, 0.0, rng=np.random.default_rng(4))
        x = np.ones((5, 1))
        y, h = channel.transmit_block(x)
        assert y.shape == (5, 2)
        assert np.allclose(y, np.einsum("nij,nj->ni", h, x))


class TestPartialResponse:
    def test_duobinary_alphabet(self):
        tx = PartialResponseTransmitter((1.0, 1.0))
        assert tx.alphabet() == [-2.0, 0.0, 2.0]
        assert tx.memory == 1

    def test_output_values(self):
        tx = PartialResponseTransmitter((1.0, 1.0))
        assert tx.output([1, 1]) == 2.0
        assert tx.output([0, 0]) == -2.0
        assert tx.output([1, 0]) == 0.0

    def test_sequence_matches_stepwise(self):
        tx = PartialResponseTransmitter((1.0, 1.0))
        bits = [1, 0, 0, 1, 1]
        seq = tx.transmit_sequence(bits, initial=0)
        expected = []
        prev = 0
        for b in bits:
            expected.append(tx.output([b, prev]))
            prev = b
        assert seq.tolist() == expected

    def test_memory_two(self):
        tx = PartialResponseTransmitter((1.0, 0.5, 0.5))
        assert tx.memory == 2
        assert tx.output([1, 1, 1]) == 2.0
        assert tx.output([1, 0, 0]) == 0.0


class TestConvolutional:
    def test_k3_rate_half_known_vector(self):
        # Standard (7,5) code: input 1011 -> output 11 10 00 01 (zero state).
        enc = ConvolutionalEncoder((0b111, 0b101), 3)
        out = enc.encode([1, 0, 1, 1])
        assert out.tolist() == [1, 1, 1, 0, 0, 0, 0, 1]

    def test_termination_returns_to_zero(self):
        enc = ConvolutionalEncoder((0b111, 0b101), 3)
        state = 0
        for bit in [1, 0, 1, 1] + [0, 0]:
            state, _ = enc.step(state, bit)
        assert state == 0

    def test_rate(self):
        enc = ConvolutionalEncoder((0b111, 0b101), 3)
        assert enc.rate == (1, 2)
        assert enc.num_states == 4

    def test_invalid_generator(self):
        with pytest.raises(ValueError):
            ConvolutionalEncoder((0b1111,), 3)

    def test_expected_outputs_bpsk(self):
        enc = ConvolutionalEncoder((0b1,), 1)
        assert enc.expected_outputs(0, 1) == (1.0,)
        assert enc.expected_outputs(0, 0) == (-1.0,)


class TestTheory:
    def test_q_function_values(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.96) == pytest.approx(0.025, abs=1e-3)
        assert q_function(-10) == pytest.approx(1.0)

    def test_q_function_inverse(self):
        for p in [0.4, 0.1, 1e-3, 1e-7]:
            assert q_function(q_function_inverse(p)) == pytest.approx(p, rel=1e-6)

    def test_bpsk_awgn_known_points(self):
        # Es/N0 = 0 dB -> Q(sqrt 2) ~ 0.0786; 9.6 dB -> ~1e-5.
        assert bpsk_awgn_ber(0.0) == pytest.approx(0.0786, abs=1e-3)
        assert bpsk_awgn_ber(9.6) == pytest.approx(1e-5, rel=0.15)

    def test_rayleigh_worse_than_awgn(self):
        for snr in [0.0, 5.0, 10.0]:
            assert bpsk_rayleigh_ber(snr) > bpsk_awgn_ber(snr)

    def test_diversity_reduces_ber(self):
        snr = 8.0
        bers = [bpsk_diversity_ber(snr, branches) for branches in (1, 2, 4)]
        assert bers[0] > bers[1] > bers[2]
        assert bpsk_diversity_ber(snr, 1) == pytest.approx(bpsk_rayleigh_ber(snr))

    def test_diversity_order_asymptotics(self):
        # Doubling branches roughly squares the BER slope: at high SNR,
        # BER(L=2) ~ BER(L=1)^2 up to a constant.
        b1 = bpsk_diversity_ber(25.0, 1)
        b2 = bpsk_diversity_ber(25.0, 2)
        assert b2 < 10 * b1**2

    def test_monte_carlo_agrees_with_awgn_formula(self):
        snr_db = 4.0
        mod = BPSK()
        rng = np.random.default_rng(11)
        channel = AWGNChannel(noise_sigma(snr_db), rng=rng)
        bits = rng.integers(0, 2, 400_000)
        decoded = mod.demodulate(channel(mod.modulate(bits)))
        ber = np.mean(decoded != bits)
        assert ber == pytest.approx(bpsk_awgn_ber(snr_db), rel=0.05)

    def test_monte_carlo_agrees_with_diversity_formula(self):
        snr_db = 5.0
        rng = np.random.default_rng(12)
        channel = RayleighFadingChannel(2, 1, noise_sigma(snr_db), rng=rng)
        n = 200_000
        bits = rng.integers(0, 2, n)
        x = (2.0 * bits - 1.0).reshape(-1, 1).astype(complex)
        y, h = channel.transmit_block(x)
        # ML/MRC decision for BPSK: sign of Re(h^H y).
        decision = (np.einsum("ni,ni->n", h[:, :, 0].conj(), y).real >= 0).astype(int)
        ber = np.mean(decision != bits)
        assert ber == pytest.approx(bpsk_diversity_ber(snr_db, 2), rel=0.08)
