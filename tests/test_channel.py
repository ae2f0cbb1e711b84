import math

import numpy as np
import pytest

from icsim import channel as ch
from icsim import modem as md

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


# One 115200 bps symbol of the 12 V carrier, 224 samples: all-+1 signs are the carrier.
SYMBOL = md.modulate((), md.ModemConfig())


def channel_output(cfg, waves, offsets, n, start=0):
    """Samples start to start + n of the noiseless channel's output."""
    out = np.zeros(n)
    assert ch.propagate(waves, offsets, SYMBOL, cfg, FS, out, start) is out
    return out


def carrier_output(cfg, symbols=29):
    """A reception of the 12 V carrier sent as all-+1 symbols."""
    n = ch.delay_samples(cfg, FS) + symbols * len(SYMBOL)
    return channel_output(cfg, [np.ones(symbols, dtype=np.int64)], [0], n)


def random_signs(seed, n):
    return 1 - 2 * np.random.default_rng(seed).integers(0, 2, n)


class TestPropagate:
    def test_four_turn_amplitude(self):
        out = carrier_output(ch.ChannelConfig(turns=4))
        assert tail_peak(out) == pytest.approx(0.392, rel=0.005)

    def test_empty_in_empty_out(self):
        cfg = ch.ChannelConfig(interference=((50e3, 0.5),))
        out = np.empty(0)
        assert ch.propagate([np.ones(3, dtype=np.int64)], [0], SYMBOL, cfg, FS, out, 100) is out
        assert len(channel_output(cfg, [], [], 0)) == 0

    def test_deterministic_for_fixed_seed(self):
        # The channel itself draws nothing: the seed is channel_noise's alone.
        cfg = ch.ChannelConfig(noise_sigma_v=0.05)
        signs, n = random_signs(1, 20), 21 * len(SYMBOL)
        assert np.array_equal(channel_output(cfg, [signs], [0], n),
                              channel_output(cfg, [signs], [0], n))
        a = ch.channel_noise(cfg.noise_sigma_v, n, 42)
        assert np.array_equal(a, ch.channel_noise(cfg.noise_sigma_v, n, 42))
        assert not np.array_equal(a, ch.channel_noise(cfg.noise_sigma_v, n, 43))

    def test_delay_in_whole_samples(self):
        cfg = ch.ChannelConfig(cable_length_m=700.0)
        d = ch.delay_samples(cfg, FS)
        assert d == round(700.0 / 2e8 * FS)
        # The second wave started 5 symbols early: before the delay it is cut off.
        ones = np.ones(10, dtype=np.int64)
        out = channel_output(cfg, [ones, ones], [0, -5 * len(SYMBOL)], d + 10 * len(SYMBOL))
        assert not out[:d].any()
        assert out[d] == 2 * ch.channel_gain(cfg) * SYMBOL[0]
        assert out[-1] == ch.channel_gain(cfg) * SYMBOL[-1]

    def test_attenuation_factor(self):
        cfg = ch.ChannelConfig(turns=2, cable_length_m=100.0, attenuation_per_m=0.001)
        expected = 12.0 * ch.coupling_gain(2) * math.exp(-0.1)
        assert tail_peak(carrier_output(cfg)) == pytest.approx(expected, rel=0.005)

    def test_linearity_with_noise_off(self):
        cfg = ch.ChannelConfig()
        waves, offsets, n = [random_signs(3, 12), random_signs(4, 9)], [0, 517], 13 * len(SYMBOL)
        lhs = channel_output(cfg, waves, offsets, n)
        rhs = (channel_output(cfg, waves[:1], offsets[:1], n)
               + channel_output(cfg, waves[1:], offsets[1:], n))
        assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_interference_tone_added(self):
        cfg = ch.ChannelConfig(interference=((50e3, 0.5),))
        out = channel_output(cfg, [], [], 4096)
        assert np.max(np.abs(out)) == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("interference", [(), ((50e3, 0.5), (3e6, 0.1))])
    @pytest.mark.parametrize("noise_sigma_v", [0.0, 0.05])
    def test_bitwise_equal_to_reference_sum(self, interference, noise_sigma_v):
        # Reference: noise, then each wave, then each tone, added in that order.
        cfg = ch.ChannelConfig(noise_sigma_v=noise_sigma_v, interference=interference)
        waves, offsets = [random_signs(5, 30), random_signs(6, 20)], [0, 3000]
        gain, d = ch.coupling_gain(cfg.turns), ch.delay_samples(cfg, FS)
        n = d + 30 * len(SYMBOL)
        ref = np.random.default_rng(7).normal(0.0, noise_sigma_v, n)
        for signs, off in zip(waves, offsets):
            wave = (signs[:, None] * (gain * SYMBOL)).ravel()
            ref[d + off :] += wave[: n - d - off]
        t = np.arange(n) / FS
        for freq_hz, amplitude_v in interference:
            ref += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
        received = ch.channel_noise(cfg.noise_sigma_v, n, 7)
        ch.propagate(waves, offsets, SYMBOL, cfg, FS, received)
        assert np.array_equal(received, ref)

    @pytest.mark.parametrize("n, block", [(3 * (1 << 16) + 5, 1 << 16), (2500, 1000), (7, 1000)])
    def test_tones_added_in_blocks_equal_the_whole_array_formula(self, n, block, monkeypatch):
        monkeypatch.setattr(ch, "_TONE_SAMPLES", block)
        cfg = ch.ChannelConfig(interference=((50e3, 0.5), (3e6, 0.1)))
        signs, d = random_signs(8, n // len(SYMBOL) + 1), ch.delay_samples(cfg, FS)
        ref = np.zeros(n)
        wave = (signs[:, None] * (ch.channel_gain(cfg) * SYMBOL)).ravel()
        ref[d:] += wave[: max(0, n - d)]
        t = np.arange(n) / FS
        for freq_hz, amplitude_v in cfg.interference:
            ref += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
        # Received whole, or a block at a time, one starting within the delay.
        for split in (n, 701, 50):
            out = np.zeros(n)
            for lo in range(0, n, split):
                ch.propagate([signs], [0], SYMBOL, cfg, FS, out[lo : lo + split], lo)
            assert np.array_equal(out, ref), split

    def test_in_place_equals_a_new_array(self):
        # One wave and no tones added into noise: bitwise noise plus the output alone.
        cfg = ch.ChannelConfig()
        signs = random_signs(9, 30)
        noise = ch.channel_noise(0.05, ch.delay_samples(cfg, FS) + 30 * len(SYMBOL), 11)
        out = noise.copy()
        ch.propagate([signs], [0], SYMBOL, cfg, FS, out)
        assert np.array_equal(out, noise + channel_output(cfg, [signs], [0], len(noise)))


class TestNoiseDrawnAhead:
    CFG = ch.ChannelConfig(noise_sigma_v=0.05)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_normal_draw(self, seed):
        ref = np.random.default_rng(seed).normal(0.0, self.CFG.noise_sigma_v, 5000)
        assert np.array_equal(ch.channel_noise(self.CFG.noise_sigma_v, 5000, seed), ref)
        out = np.empty(5000)
        assert ch.channel_noise(self.CFG.noise_sigma_v, 5000, seed, out) is out
        assert np.array_equal(out, ref)

    def test_a_generator_continues_its_stream(self):
        ref = np.random.default_rng(11)
        bits = ref.integers(0, 2, 100)
        expected = ref.normal(0.0, 0.05, 5000)
        rng = np.random.default_rng(11)
        assert np.array_equal(rng.integers(0, 2, 100), bits)
        assert np.array_equal(ch.channel_noise(0.05, 5000, rng), expected)
        # The draw advanced rng exactly as far as normal did.
        assert np.array_equal(rng.standard_normal(10), ref.standard_normal(10))


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

    @pytest.mark.parametrize("block", [1, 7, 1000, 4096])
    def test_blocks_sharing_a_state_equal_one_call(self, block):
        fe = ch.FrontEndConfig()
        x = np.random.default_rng(block).normal(size=4096)
        state = np.zeros(2)
        # An empty block before each one must leave the carried state alone.
        blocks = [ch.condition(x[lo:hi], fe, FS, state)
                  for lo in range(0, len(x), block) for hi in (lo, lo + block)]
        assert np.array_equal(np.concatenate(blocks), ch.condition(x, fe, FS))

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

    @pytest.mark.parametrize("fe", [
        ch.FrontEndConfig(center_hz=5e-324),
        ch.FrontEndConfig(center_hz=1e-300, quality_factor=1e-300, passband_gain=1e-9),
        ch.FrontEndConfig(quality_factor=1e-300),
    ])
    def test_a_rejected_front_end_raises_on_every_call(self, fe):
        for _ in range(2):
            with pytest.raises(ValueError, match="^its biquad"):
                ch.frontend_coefficients(fe, FS)

    def test_shared_result_is_read_only(self):
        b, a = ch.frontend_coefficients(ch.FrontEndConfig(), FS)
        with pytest.raises(ValueError):
            b[0] = 0.0
        with pytest.raises(ValueError):
            a[1] = 0.0

    @pytest.mark.parametrize("quality_factor", [0.3, 1.0, 20.0, 1000.0])
    def test_l1_bound_is_at_least_the_impulse_responses_sum(self, quality_factor):
        # 400,000 samples: even at Q = 1000 the response has decayed past 1e-30.
        fe = ch.FrontEndConfig(quality_factor=quality_factor)
        impulse = np.zeros(400_000)
        impulse[0] = 1.0
        h = np.abs(ch.condition(impulse, fe, FS))
        assert h[-1000:].max() < 1e-30 * h.max()
        assert ch.frontend_l1_bound(fe, FS) >= h.sum()


def expanded_sum(waves, offsets, length, template, out=None):
    """What superpose must give bitwise: each wave of signs expanded whole,
    ``(s[:, None] * t).ravel()``, and added into out in list order."""
    out = np.zeros(length) if out is None else out.copy()
    for signs, off in zip(waves, offsets):
        wave = (np.asarray(signs)[:, None] * template).ravel()
        lo, hi = max(0, off), min(length, off + len(wave))
        if lo < hi:
            out[lo:hi] += wave[lo - off : hi - off]
    return out


class TestSuperpose:
    TEMPLATE = carrier_tone(amplitude=0.3, cycles=14)  # 224 samples, a 115200 bps symbol
    SIGNS = [np.array([1, -1, -1, 1, -1, 1, 1]), np.array([-1, -1, 1, 1, -1, 1, -1])]

    def test_single_waveform_identity(self):
        n = len(self.SIGNS[0]) * len(self.TEMPLATE)
        out = ch.superpose(self.SIGNS[:1], [0], n, self.TEMPLATE)
        assert np.array_equal(out, (self.SIGNS[0][:, None] * self.TEMPLATE).ravel())

    def test_cancellation(self):
        s = self.SIGNS[0]
        out = ch.superpose([s, -s], [0, 0], len(s) * len(self.TEMPLATE), self.TEMPLATE)
        assert not out.any()

    def test_offsets_place_each_waveform(self):
        out = ch.superpose([np.array([1, -1]), np.array([1])], [0, 5], 8, np.array([1.0, 2.0]))
        assert out.tolist() == [1.0, 2.0, -1.0, -2.0, 0.0, 1.0, 2.0, 0.0]

    def test_length_clips_both_ends(self):
        template = np.array([1.0, 2.0, 3.0])
        waves = [np.array([1, -1]), np.array([-1, 1]), np.array([1])]
        # The second wave starts two samples early and the third runs past the end.
        out = ch.superpose(waves, [0, -2, 3], 5, template)
        assert out.tolist() == [-2.0, 3.0, 5.0, 3.0, 0.0]

    @pytest.mark.parametrize("offset", [-1, -2, -4])
    def test_one_symbol_clipped_at_both_ends(self, offset):
        template = np.arange(1.0, 9.0)
        out = ch.superpose([np.array([-1, 1])], [offset], 3, template)
        assert out.tolist() == (-template[-offset : 3 - offset]).tolist()

    def test_waveform_outside_the_span_adds_nothing(self):
        n = 4 * len(self.TEMPLATE)
        ones = np.ones(4, dtype=np.int64)
        for offset in (-2 * 224, -3 * 224 - 5, 4 * 224, 9 * 224 + 1):
            out = ch.superpose([ones, self.SIGNS[0][:2]], [0, offset], n, self.TEMPLATE)
            assert np.array_equal(out, np.tile(self.TEMPLATE, 4)), offset

    @pytest.mark.parametrize("offset", [-1600, -700, -224, -3, 0, 5, 224, 1000, 1570])
    def test_symbol_signs_equal_their_samples(self, offset):
        # Including offsets off the symbol grid, which clip a symbol at each end.
        n = len(self.SIGNS[0]) * len(self.TEMPLATE)
        out = np.zeros(n)
        assert ch.superpose(self.SIGNS, [0, offset], n, self.TEMPLATE, out=out) is out
        assert np.array_equal(out, expanded_sum(self.SIGNS, [0, offset], n, self.TEMPLATE))

    def test_long_symbols_clipped_at_both_ends_are_bitwise(self):
        # 4800 bps symbols of 5568 samples: whole ones are added 11 at a time,
        # so 28 take three groups, and the first and last are clipped.
        template = md.modulate((), md.ModemConfig(bit_rate_bps=4800))
        assert len(template) == 5568 and ch._TONE_SAMPLES // 5568 == 11
        rng = np.random.default_rng(4)
        waves, offsets = [1 - 2 * rng.integers(0, 2, 31), 1 - 2 * rng.integers(0, 2, 9)], [-2000, 7]
        noise = rng.standard_normal(29 * 5568)
        out = noise.copy()
        ch.superpose(waves, offsets, len(out), template, out=out)
        ref = expanded_sum(waves, offsets, len(noise), template, noise)
        assert out.tobytes() == ref.tobytes()

    def test_adds_into_out_in_list_order(self):
        # Onto noise, the order of the additions shows in the rounding.
        noise = np.random.default_rng(3).standard_normal(len(self.SIGNS[0]) * len(self.TEMPLATE))
        waves, offsets = [*self.SIGNS, -self.SIGNS[0]], [0, 101, -37]
        ref = expanded_sum(waves, offsets, len(noise), self.TEMPLATE, noise)
        assert not np.array_equal(
            ref, expanded_sum(waves[::-1], offsets[::-1], len(noise), self.TEMPLATE, noise))
        out = noise.copy()
        ch.superpose(waves, offsets, len(out), self.TEMPLATE, out=out)
        assert np.array_equal(out, ref)
