import math

import numpy as np
import pytest

from icsim import channel as ch
from icsim import modem as md

FS = 16 * 1.67e6


def carrier_tone(amplitude=12.0, cycles=400, freq=1.67e6, fs=FS):
    n = np.arange(round(cycles * fs / freq))
    return md.Waveform(amplitude * np.cos(2 * math.pi * freq * n / fs), fs)


def tail_peak(wave):
    tail = wave.samples[3 * len(wave) // 4 :]
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
        out = ch.propagate(carrier_tone(), ch.ChannelConfig(turns=4), seed=0)
        assert tail_peak(out) == pytest.approx(0.392, rel=0.005)

    def test_empty_in_empty_out(self):
        empty = md.Waveform(np.array([]), FS)
        assert len(ch.propagate(empty, ch.ChannelConfig(), seed=0)) == 0

    def test_deterministic_for_fixed_seed(self):
        cfg = ch.ChannelConfig(noise_sigma_v=0.05)
        wave = carrier_tone(cycles=20)
        a = ch.propagate(wave, cfg, seed=42)
        b = ch.propagate(wave, cfg, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = ch.propagate(wave, cfg, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_delay_in_whole_samples(self):
        cfg = ch.ChannelConfig(cable_length_m=700.0)
        d = ch.delay_samples(cfg, FS)
        assert d == round(700.0 / 2e8 * FS)
        wave = carrier_tone(cycles=10)
        out = ch.propagate(wave, cfg, seed=0)
        assert len(out) == len(wave) + d
        assert np.allclose(out.samples[:d], 0.0)

    def test_attenuation_factor(self):
        cfg = ch.ChannelConfig(turns=2, cable_length_m=100.0, attenuation_per_m=0.001)
        out = ch.propagate(carrier_tone(), cfg, seed=0)
        expected = 12.0 * ch.coupling_gain(2) * math.exp(-0.1)
        assert tail_peak(out) == pytest.approx(expected, rel=0.005)

    def test_linearity_with_noise_off(self):
        cfg = ch.ChannelConfig()
        rng = np.random.default_rng(9)
        a = md.Waveform(rng.normal(size=512), FS)
        b = md.Waveform(rng.normal(size=512), FS)
        ab = md.Waveform(a.samples + b.samples, FS)
        lhs = ch.propagate(ab, cfg, seed=0).samples
        rhs = ch.propagate(a, cfg, seed=0).samples + ch.propagate(b, cfg, seed=0).samples
        assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_interference_tone_added(self):
        cfg = ch.ChannelConfig(interference=((50e3, 0.5),))
        silence = md.Waveform(np.zeros(4096), FS)
        out = ch.propagate(silence, cfg, seed=0)
        assert np.max(np.abs(out.samples)) == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("interference", [(), ((50e3, 0.5), (3e6, 0.1))])
    @pytest.mark.parametrize("noise_sigma_v", [0.0, 0.05])
    def test_bitwise_equal_to_reference_sum(self, interference, noise_sigma_v):
        # Reference: signal, then each tone, then noise, added in that order.
        cfg = ch.ChannelConfig(noise_sigma_v=noise_sigma_v, interference=interference)
        wave = carrier_tone(cycles=30)
        gain = ch.coupling_gain(cfg.turns)
        d = ch.delay_samples(cfg, FS)
        ref = np.zeros(len(wave) + d)
        ref[d:] = wave.samples * gain
        t = np.arange(len(ref)) / FS
        for freq_hz, amplitude_v in interference:
            ref += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
        if noise_sigma_v:
            ref += np.random.default_rng(7).normal(0.0, noise_sigma_v, len(ref))
        assert np.array_equal(ch.propagate(wave, cfg, seed=7).samples, ref)


class TestCondition:
    def test_passband_gain_at_center(self):
        tone = carrier_tone(amplitude=0.392)
        out = ch.condition(tone, ch.FrontEndConfig())
        assert tail_peak(out) == pytest.approx(3.0 * 0.392, rel=0.02)

    def test_low_frequency_rejection(self):
        fe = ch.FrontEndConfig()
        low_tone = carrier_tone(freq=50e3, cycles=40)
        out = ch.condition(low_tone, fe)
        assert tail_peak(out) < tail_peak(low_tone) * 0.1

    def test_zero_in_zero_out(self):
        silence = md.Waveform(np.zeros(1024), FS)
        assert np.allclose(ch.condition(silence, ch.FrontEndConfig()).samples, 0.0)

    def test_linearity(self):
        fe = ch.FrontEndConfig()
        rng = np.random.default_rng(13)
        a = md.Waveform(rng.normal(size=512), FS)
        b = md.Waveform(rng.normal(size=512), FS)
        ab = md.Waveform(a.samples + b.samples, FS)
        lhs = ch.condition(ab, fe).samples
        rhs = ch.condition(a, fe).samples + ch.condition(b, fe).samples
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_rejects_undersampled_input(self):
        with pytest.raises(ValueError):
            ch.condition(md.Waveform(np.zeros(16), 2e6), ch.FrontEndConfig())


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
        assert np.array_equal(ch.superpose([w]).samples, w.samples)

    def test_cancellation(self):
        w = carrier_tone(cycles=5)
        neg = md.Waveform(-w.samples, w.sample_rate_hz)
        assert np.allclose(ch.superpose([w, neg]).samples, 0.0)

    def test_zero_pads_to_longest(self):
        a = md.Waveform(np.ones(10), FS)
        b = md.Waveform(np.ones(4), FS)
        out = ch.superpose([a, b])
        assert out.samples.tolist() == [2.0] * 4 + [1.0] * 6

    def test_sample_rate_mismatch(self):
        with pytest.raises(ch.SampleRateMismatch):
            ch.superpose([md.Waveform(np.ones(4), FS), md.Waveform(np.ones(4), FS / 2)])

    def test_offsets_place_each_waveform(self):
        a = md.Waveform(np.ones(3), FS)
        b = md.Waveform(np.full(2, 2.0), FS)
        out = ch.superpose([a, b], [0, 4])
        assert out.samples.tolist() == [1.0, 1.0, 1.0, 0.0, 2.0, 2.0]

    def test_length_clips_both_ends(self):
        base = md.Waveform(np.ones(5), FS)
        early = md.Waveform(np.arange(1.0, 5.0), FS)  # starts two samples early
        late = md.Waveform(np.full(4, 10.0), FS)  # runs past the end
        out = ch.superpose([base, early, late], [0, -2, 3], length=5)
        assert out.samples.tolist() == [4.0, 5.0, 1.0, 11.0, 11.0]

    def test_waveform_outside_the_span_adds_nothing(self):
        base = md.Waveform(np.ones(4), FS)
        outside = md.Waveform(np.ones(2), FS)
        for offset in (-2, -5, 4, 9):
            out = ch.superpose([base, outside], [0, offset], length=4)
            assert out.samples.tolist() == [1.0] * 4
