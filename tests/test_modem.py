import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim import modem as md
from icsim.harness import measure_ber


def test_bytes_to_bits_is_lsb_first():
    assert md.bytes_to_bits(bytes([0x01])).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert md.bytes_to_bits(bytes([0x00])).tolist() == [0] * 8
    assert md.bytes_to_bits(bytes([0x12, 0x34])).tolist() == [0, 1, 0, 0, 1, 0, 0, 0,
                                                              0, 0, 1, 0, 1, 1, 0, 0]


def test_bits_to_bytes_inverts_bytes_to_bits():
    rng = random.Random(3)
    data = bytes(rng.randrange(256) for _ in range(64))
    assert md.bits_to_bytes(md.bytes_to_bits(data)) == data


class TestModemConfig:
    def test_defaults(self):
        cfg = md.ModemConfig()
        assert cfg.carrier_hz == 1.67e6
        assert cfg.sample_rate_hz == 16 * 1.67e6
        assert cfg.amplitude_v == 12.0
        assert cfg.cycles_per_bit == 14

    @pytest.mark.parametrize("rate,cycles", [(4800, 348), (9600, 174), (115200, 14)])
    def test_integer_cycles_per_bit(self, rate, cycles):
        cfg = md.ModemConfig(bit_rate_bps=rate)
        assert cfg.cycles_per_bit == cycles
        # effective rate stays within 4% of the nominal setting
        assert abs(cfg.effective_bit_rate_bps - rate) / rate < 0.04


class TestModulate:
    def test_reference_symbol_only(self):
        cfg = md.ModemConfig()
        wave = md.modulate([], cfg)
        assert len(wave) == 14 * 16
        n = np.arange(len(wave))
        assert np.allclose(wave, 12.0 * np.cos(2 * math.pi * n / 16))

    def test_one_bit_negates_second_symbol(self):
        cfg = md.ModemConfig()
        wave = md.modulate([1], cfg)
        spb = cfg.samples_per_bit
        assert np.array_equal(wave[spb:], -wave[:spb])

    @pytest.mark.parametrize("rate", md.SUPPORTED_BIT_RATES)
    def test_every_symbol_is_exactly_plus_or_minus_the_template(self, rate):
        cfg = md.ModemConfig(bit_rate_bps=rate)
        spb = cfg.samples_per_bit
        bits = np.random.default_rng(rate).integers(0, 2, 200)
        symbols = md.modulate(bits, cfg).reshape(len(bits) + 1, spb)
        template = 12.0 * np.cos(2 * math.pi * np.arange(spb) / 16)
        sign = 1 - 2 * (np.cumsum(np.concatenate(([0], bits))) % 2)
        assert np.array_equal(symbols, sign[:, None] * template)

    @pytest.mark.parametrize("rate", md.SUPPORTED_BIT_RATES)
    def test_template_is_the_cached_cos_row(self, rate):
        cfg = md.ModemConfig(bit_rate_bps=rate, amplitude_v=7.5)
        spb = cfg.samples_per_bit
        template = md._carrier(spb, cfg.samples_per_cycle)[0] * cfg.amplitude_v
        assert np.array_equal(md.modulate([], cfg), template)

    def test_each_symbol_is_its_sign_times_the_reference_symbol(self):
        cfg = md.ModemConfig(bit_rate_bps=9600)
        bits = np.random.default_rng(3).integers(0, 2, 40)
        signs = md.symbol_signs(bits)
        assert signs[0] == 1 and set(signs.tolist()) == {-1, 1}
        expected = (signs[:, None] * md.modulate([], cfg)).ravel()
        assert np.array_equal(md.modulate(bits, cfg), expected)

    def test_peak_bounded_and_first_sample_at_amplitude(self):
        cfg = md.ModemConfig()
        rng = random.Random(5)
        wave = md.modulate([rng.randrange(2) for _ in range(50)], cfg)
        assert np.max(np.abs(wave)) <= 12.0 + 1e-9
        assert wave[0] == pytest.approx(12.0)

    def test_duration(self):
        cfg = md.ModemConfig()
        wave = md.modulate([0] * 10, cfg)
        assert len(wave) / cfg.sample_rate_hz == pytest.approx(11 * 14 / 1.67e6)


class TestDemodulate:
    @pytest.mark.parametrize("rate", md.SUPPORTED_BIT_RATES)
    def test_noiseless_round_trip(self, rate):
        cfg = md.ModemConfig(bit_rate_bps=rate)
        rng = random.Random(rate)
        bits = [rng.randrange(2) for _ in range(300)]
        assert md.demodulate(md.modulate(bits, cfg), cfg, len(bits)).tolist() == bits

    def test_long_noiseless_round_trip(self):
        cfg = md.ModemConfig()
        rng = random.Random(11)
        bits = [rng.randrange(2) for _ in range(10_000)]
        assert md.demodulate(md.modulate(bits, cfg), cfg, len(bits)).tolist() == bits

    def test_global_sign_invariance(self):
        cfg = md.ModemConfig()
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        wave = md.modulate(bits, cfg)
        assert md.demodulate(-wave, cfg, len(bits)).tolist() == bits

    def test_amplitude_scale_invariance(self):
        cfg = md.ModemConfig()
        bits = [1, 0, 1, 1, 0]
        wave = md.modulate(bits, cfg)
        for scale in (1e-6, 0.5, 40.0, 2.0**-600):
            assert md.demodulate(scale * wave, cfg, len(bits)).tolist() == bits

    @pytest.mark.parametrize("ebn0_db", [0.0, 2.0, 4.0])
    @pytest.mark.parametrize("rate, samples_per_cycle",
                             [(rate, 16) for rate in md.SUPPORTED_BIT_RATES] + [(4800, 40)])
    def test_correlator_matches_the_dot_product_reference(self, rate, samples_per_cycle, ebn0_db):
        cfg = md.ModemConfig(bit_rate_bps=rate, samples_per_cycle=samples_per_cycle)
        spb = cfg.samples_per_bit
        n_bits = 96
        rng = np.random.default_rng([rate, samples_per_cycle, int(ebn0_db)])
        wave = md.modulate(rng.integers(0, 2, n_bits), cfg)
        sigma = md.ebn0_to_noise_sigma(10 ** (ebn0_db / 10), cfg)
        noisy = wave + rng.normal(0.0, sigma, len(wave))
        sym = noisy.reshape(n_bits + 1, spb)
        # Reference: one dot product per quadrature, as demodulate once did.
        phase = 2 * math.pi * np.arange(spb) / samples_per_cycle
        basis = (np.cos(phase), np.sin(phase))
        i_ref, q_ref = (sym @ row for row in basis)
        stats = i_ref[1:] * i_ref[:-1] + q_ref[1:] * q_ref[:-1]
        assert np.array_equal(md.demodulate(noisy, cfg, n_bits), (stats < 0).view(np.uint8))
        # Each correlation lies within 1e-12 * |symbol| * |basis row| of the exact sum.
        for row, corr in zip(basis, md.correlations(noisy, cfg, n_bits)):
            for i in range(n_bits + 1):
                exact = math.fsum(sym[i] * row)
                assert abs(corr[i] - exact) <= 1e-12 * np.linalg.norm(sym[i]) * np.linalg.norm(row)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_raise(self, bad):
        cfg = md.ModemConfig()
        wave = md.modulate([1, 0, 1], cfg)
        wave[cfg.samples_per_bit + 3] = bad
        with pytest.raises(md.NonFiniteSignal):
            md.demodulate(wave, cfg, 3)

    @pytest.mark.parametrize("symbols_per_block", [1, 3, 40])
    def test_blocks_of_whole_symbols_equal_one_array(self, symbols_per_block):
        cfg = md.ModemConfig(bit_rate_bps=9600)
        spb, n_bits = cfg.samples_per_bit, 40
        rng = np.random.default_rng(symbols_per_block)
        noisy = md.modulate(rng.integers(0, 2, n_bits), cfg)
        noisy += rng.normal(0.0, 40.0, len(noisy))
        step = symbols_per_block * spb
        blocks = (noisy[lo : lo + step] for lo in range(0, len(noisy), step))
        whole = md.demodulate(noisy, cfg, n_bits)
        assert np.array_equal(md.demodulate(blocks, cfg, n_bits), whole)
        assert 0 < np.count_nonzero(whole) < n_bits

    def test_a_block_ending_inside_a_symbol_raises(self):
        cfg = md.ModemConfig()
        wave = md.modulate([1, 0, 1], cfg)
        with pytest.raises(ValueError, match="into a symbol"):
            md.demodulate(iter((wave[:5], wave[5:])), cfg, 3)

    def test_insufficient_samples_in_blocks(self):
        cfg = md.ModemConfig()
        wave = md.modulate([1, 0], cfg)
        spb = cfg.samples_per_bit
        with pytest.raises(md.InsufficientSamples, match=f"got {len(wave)}$"):
            md.demodulate(iter((wave[:spb], wave[spb:])), cfg, 5)

    def test_insufficient_samples(self):
        cfg = md.ModemConfig()
        wave = md.modulate([1, 0], cfg)
        with pytest.raises(md.InsufficientSamples):
            md.demodulate(wave, cfg, 5)


class TestDecide:
    EPS = 1e-3
    # Each phase step and its bit: 1 when the step turns the phase by more
    # than pi/2 either way.
    STEPS = {0.0: 0, math.pi: 1, math.pi / 2 - EPS: 0, math.pi / 2 + EPS: 1,
             -math.pi / 2 + EPS: 0, -math.pi / 2 - EPS: 1}

    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 2.0**1000])
    def test_bits_follow_the_phase_steps(self, scale):
        # Exact powers of two, whose products would underflow or overflow unscaled.
        steps = np.array(list(self.STEPS) * 3)
        phase = 0.7 + np.concatenate(([0.0], np.cumsum(steps)))
        radius = np.random.default_rng(0).uniform(0.5, 2.0, len(phase))
        iq = scale * radius * np.stack((np.cos(phase), np.sin(phase)))
        bits = md.decide(iq)
        assert bits.dtype == np.uint8
        assert bits.tolist() == list(self.STEPS.values()) * 3

    def test_all_zero_correlations_give_zero_bits(self):
        assert md.decide(np.zeros((2, 6))).tolist() == [0] * 5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [(0, 0), (1, 3)])
    def test_a_non_finite_correlation_raises(self, bad, at):
        iq = np.ones((2, 5))
        iq[at] = bad
        with pytest.raises(md.NonFiniteSignal):
            md.decide(iq)


@given(st.data())
@settings(max_examples=60)
def test_decide_of_correlations_is_demodulate(data):
    """Bitwise, over whole-symbol block splits, every rate, and amplitudes
    from float64's subnormals up."""
    cfg = md.ModemConfig(bit_rate_bps=data.draw(st.sampled_from(md.SUPPORTED_BIT_RATES)))
    spb, n_bits = cfg.samples_per_bit, data.draw(st.integers(1, 24))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # A noisy frame, then part of a symbol past its end that is ignored.
    extra = data.draw(st.integers(0, spb - 1))
    noisy = np.concatenate((md.modulate(rng.integers(0, 2, n_bits), cfg), np.zeros(extra)))
    noisy = np.ldexp(noisy + rng.normal(0.0, 20.0, len(noisy)), data.draw(st.integers(-1074, 40)))
    symbols_per_block = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=n_bits + 1))
    edges = [e for e in np.cumsum(symbols_per_block) * spb if e < len(noisy)]
    blocks = np.split(noisy, edges)
    whole = md.demodulate(noisy, cfg, n_bits)
    iq = md.correlations(iter(blocks), cfg, n_bits)
    assert iq.shape == (2, n_bits + 1)
    assert np.array_equal(iq, md.correlations(noisy, cfg, n_bits))
    assert np.array_equal(md.decide(iq), whole)
    assert np.array_equal(md.demodulate(iter(blocks), cfg, n_bits), whole)


def test_theoretical_ber_values():
    assert md.theoretical_dpsk_ber(0.0) == 0.5
    assert md.theoretical_dpsk_ber(5.0119) == pytest.approx(3.33e-3, abs=1e-5)
    assert md.theoretical_dpsk_ber(10.0) == pytest.approx(2.27e-5, abs=1e-7)


class TestNoiseSigma:
    def _cfg(self, amplitude, samples_per_bit):
        # 100 samples per bit: 25 cycles of 4 samples
        return md.ModemConfig(carrier_hz=1e6, samples_per_cycle=4,
                              bit_rate_bps=40_000, amplitude_v=amplitude)

    def test_formula_values(self):
        cfg = self._cfg(1.0, 100)
        assert cfg.samples_per_bit == 100
        assert md.ebn0_to_noise_sigma(25.0, cfg) == pytest.approx(1.0)
        assert md.ebn0_to_noise_sigma(100.0, cfg) == pytest.approx(0.5)

    def test_monotone_decreasing_in_ebn0(self):
        cfg = md.ModemConfig()
        sigmas = [md.ebn0_to_noise_sigma(e, cfg) for e in (1.0, 2.0, 5.0, 20.0)]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_rejects_nonpositive_ebn0(self):
        with pytest.raises(ValueError):
            md.ebn0_to_noise_sigma(0.0, md.ModemConfig())

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError, match="amplitude 0.0 V must be positive"):
            md.ebn0_to_noise_sigma(10.0, md.ModemConfig(amplitude_v=0.0))

    @pytest.mark.parametrize("amplitude_v, ebn0_linear, sigma",
                             [(5e-324, 1e30, "0.0"), (1e308, 1e-30, "inf")])
    def test_rejects_a_sigma_that_cannot_realize_the_eb_n0(self, amplitude_v, ebn0_linear, sigma):
        with pytest.raises(ValueError, match=f"noise sigma {sigma} V"):
            md.ebn0_to_noise_sigma(ebn0_linear, md.ModemConfig(amplitude_v=amplitude_v))


def test_carrier_basis_is_cached_and_read_only():
    basis = md._carrier(224, 16)
    assert md._carrier(224, 16) is basis
    assert basis.shape == (2, 224)
    assert not basis.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.0


def test_monte_carlo_ber_tracks_theory():
    cfg = md.ModemConfig()
    results = measure_ber(cfg, [5.0, 7.0, 9.0], 100_000, seed=1)
    for ebn0_db, measured in results:
        expected = md.theoretical_dpsk_ber(10 ** (ebn0_db / 10))
        assert measured == pytest.approx(expected, rel=0.20)
    # non-increasing across the grid for a fixed seed
    bers = [b for _, b in results]
    assert bers == sorted(bers, reverse=True)


@pytest.mark.parametrize("kwargs", [
    {"carrier_hz": 0.0},
    {"amplitude_v": -1.0},
    {"bit_rate_bps": 0},
    {"bit_rate_bps": 2_000_000},  # above the 1.67 MHz carrier: one cycle per bit regardless
    {"carrier_hz": 1e308},  # sample rate overflows to inf
])
def test_config_rejects_unusable_values(kwargs):
    with pytest.raises(ValueError):
        md.ModemConfig(**kwargs)

