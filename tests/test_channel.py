import math

import numpy as np
import pytest

from icsim import channel as ch

FS = 16 * 1.67e6


def carrier_tone(amplitude=12.0, cycles=400, freq=1.67e6, fs=FS):
    n = np.arange(round(cycles * fs / freq))
    return amplitude * np.cos(2 * math.pi * freq * n / fs)


def tail_peak(wave):
    tail = wave[3 * len(wave) // 4 :]
    return float(np.max(np.abs(tail)))


class TestCouplingGain:
    # Receive mV per 12 V transmit, by turns, from the bench measurements.
    TABLE = {2: 264.0, 3: 284.0, 4: 392.0, 5: 308.0, 6: 296.0, 7: 296.0, 8: 260.0}

    @pytest.mark.parametrize("turns", sorted(TABLE))
    def test_matches_measurement_table(self, turns):
        assert ch.coupling_gain(turns) == self.TABLE[turns] / 12000.0

    @pytest.mark.parametrize("turns", [0, 1, 9, -3])
    def test_out_of_table(self, turns):
        with pytest.raises(ch.OutOfTable):
            ch.coupling_gain(turns)

    def test_config_rejects_untabulated_turns(self):
        with pytest.raises(ch.OutOfTable):
            ch.ChannelConfig(turns=9)


class TestPropagate:
    def test_four_turn_amplitude(self):
        out = ch.propagate(carrier_tone(), ch.ChannelConfig(turns=4), FS, seed=0)
        assert tail_peak(out) == pytest.approx(0.392, rel=0.005)

    def test_empty_in_empty_out(self):
        assert len(ch.propagate(np.array([]), ch.ChannelConfig(), FS, seed=0)) == 0

    def test_deterministic_for_fixed_seed(self):
        cfg = ch.ChannelConfig(noise_sigma_v=0.05)
        wave = carrier_tone(cycles=20)
        a = ch.propagate(wave, cfg, FS, seed=42)
        b = ch.propagate(wave, cfg, FS, seed=42)
        assert np.array_equal(a, b)
        c = ch.propagate(wave, cfg, FS, seed=43)
        assert not np.array_equal(a, c)

    def test_delay_in_whole_samples(self):
        cfg = ch.ChannelConfig(cable_length_m=700.0)
        d = ch.delay_samples(cfg, FS)
        assert d == round(700.0 / 2e8 * FS)
        wave = carrier_tone(cycles=10)
        out = ch.propagate(wave, cfg, FS, seed=0)
        assert len(out) == len(wave) + d
        assert np.allclose(out[:d], 0.0)

    def test_attenuation_factor(self):
        cfg = ch.ChannelConfig(turns=2, cable_length_m=100.0, attenuation_per_m=0.001)
        out = ch.propagate(carrier_tone(), cfg, FS, seed=0)
        expected = 12.0 * ch.coupling_gain(2) * math.exp(-0.1)
        assert tail_peak(out) == pytest.approx(expected, rel=0.005)

    def test_linearity_with_noise_off(self):
        cfg = ch.ChannelConfig()
        rng = np.random.default_rng(9)
        a = rng.normal(size=512)
        b = rng.normal(size=512)
        lhs = ch.propagate(a + b, cfg, FS, seed=0)
        rhs = ch.propagate(a, cfg, FS, seed=0) + ch.propagate(b, cfg, FS, seed=0)
        assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_interference_tone_added(self):
        cfg = ch.ChannelConfig(interference=((50e3, 0.5),))
        out = ch.propagate(np.zeros(4096), cfg, FS, seed=0)
        assert np.max(np.abs(out)) == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("interference", [(), ((50e3, 0.5), (3e6, 0.1))])
    @pytest.mark.parametrize("noise_sigma_v", [0.0, 0.05])
    def test_bitwise_equal_to_reference_sum(self, interference, noise_sigma_v):
        # Reference: signal, then each tone, then noise, added in that order.
        cfg = ch.ChannelConfig(noise_sigma_v=noise_sigma_v, interference=interference)
        wave = carrier_tone(cycles=30)
        gain = ch.coupling_gain(cfg.turns)
        d = ch.delay_samples(cfg, FS)
        ref = np.zeros(len(wave) + d)
        ref[d:] = wave * gain
        t = np.arange(len(ref)) / FS
        for freq_hz, amplitude_v in interference:
            ref += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
        if noise_sigma_v:
            ref += np.random.default_rng(7).normal(0.0, noise_sigma_v, len(ref))
        assert np.array_equal(ch.propagate(wave, cfg, FS, seed=7), ref)


class TestCondition:
    def test_passband_gain_at_center(self):
        tone = carrier_tone(amplitude=0.392)
        out = ch.condition(tone, ch.FrontEndConfig(), FS)
        assert tail_peak(out) == pytest.approx(3.0 * 0.392, rel=0.02)

    def test_low_frequency_rejection(self):
        fe = ch.FrontEndConfig()
        low_tone = carrier_tone(freq=50e3, cycles=40)
        out = ch.condition(low_tone, fe, FS)
        assert tail_peak(out) < tail_peak(low_tone) * 0.1

    def test_zero_in_zero_out(self):
        assert np.allclose(ch.condition(np.zeros(1024), ch.FrontEndConfig(), FS), 0.0)

    def test_linearity(self):
        fe = ch.FrontEndConfig()
        rng = np.random.default_rng(13)
        a = rng.normal(size=512)
        b = rng.normal(size=512)
        lhs = ch.condition(a + b, fe, FS)
        rhs = ch.condition(a, fe, FS) + ch.condition(b, fe, FS)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_rejects_undersampled_input(self):
        with pytest.raises(ValueError):
            ch.condition(np.zeros(16), ch.FrontEndConfig(), 2e6)


class TestFrontendCoefficients:
    def test_cached_per_config_and_rate(self):
        fe = ch.FrontEndConfig()
        b, a = ch.frontend_coefficients(fe, FS)
        again = ch.frontend_coefficients(ch.FrontEndConfig(), FS)
        assert again[0] is b and again[1] is a
        other = ch.frontend_coefficients(ch.FrontEndConfig(quality_factor=2.0), FS)
        assert not np.array_equal(other[1], a)
        assert ch.frontend_coefficients(fe, 2 * FS)[0] is not b

    def test_shared_result_is_read_only(self):
        b, a = ch.frontend_coefficients(ch.FrontEndConfig(), FS)
        with pytest.raises(ValueError):
            b[0] = 0.0
        with pytest.raises(ValueError):
            a[1] = 0.0


class TestSuperpose:
    def test_single_waveform_identity(self):
        w = carrier_tone(cycles=5)
        assert np.array_equal(ch.superpose([w], [0], len(w)), w)

    def test_cancellation(self):
        w = carrier_tone(cycles=5)
        assert np.allclose(ch.superpose([w, -w], [0, 0], len(w)), 0.0)

    def test_offsets_place_each_waveform(self):
        out = ch.superpose([np.ones(3), np.full(2, 2.0)], [0, 4], length=6)
        assert out.tolist() == [1.0, 1.0, 1.0, 0.0, 2.0, 2.0]

    def test_length_clips_both_ends(self):
        base = np.ones(5)
        early = np.arange(1.0, 5.0)  # starts two samples early
        late = np.full(4, 10.0)  # runs past the end
        out = ch.superpose([base, early, late], [0, -2, 3], length=5)
        assert out.tolist() == [4.0, 5.0, 1.0, 11.0, 11.0]

    def test_waveform_outside_the_span_adds_nothing(self):
        for offset in (-2, -5, 4, 9):
            out = ch.superpose([np.ones(4), np.ones(2)], [0, offset], length=4)
            assert out.tolist() == [1.0] * 4
