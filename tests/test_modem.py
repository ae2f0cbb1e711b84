import csv
import math
import random

import numpy as np
import pytest

from icsim import modem as md
from icsim.harness import measure_ber


def test_bytes_to_bits_is_lsb_first():
    assert md.bytes_to_bits(bytes([0x01])) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert md.bytes_to_bits(bytes([0x00])) == [0] * 8
    assert md.bytes_to_bits(bytes([0x12, 0x34])) == [0, 1, 0, 0, 1, 0, 0, 0,
                                                     0, 0, 1, 0, 1, 1, 0, 0]


def test_bits_to_bytes_inverts_bytes_to_bits():
    rng = random.Random(3)
    data = bytes(rng.randrange(256) for _ in range(64))
    assert md.bits_to_bytes(md.bytes_to_bits(data)) == data


def test_diff_encode_examples():
    assert md.diff_encode([]).tolist() == [0.0]
    assert np.allclose(md.diff_encode([1, 1]), [0, math.pi, 0])
    assert np.allclose(md.diff_encode([0, 1, 0]), [0, 0, math.pi, math.pi])


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
        assert np.allclose(wave.samples, 12.0 * np.cos(2 * math.pi * n / 16))

    def test_one_bit_negates_second_symbol(self):
        cfg = md.ModemConfig()
        wave = md.modulate([1], cfg)
        spb = cfg.samples_per_bit
        assert np.allclose(wave.samples[spb:], -wave.samples[:spb])

    def test_peak_bounded_and_first_sample_at_amplitude(self):
        cfg = md.ModemConfig()
        rng = random.Random(5)
        wave = md.modulate([rng.randrange(2) for _ in range(50)], cfg)
        assert np.max(np.abs(wave.samples)) <= 12.0 + 1e-9
        assert wave.samples[0] == pytest.approx(12.0)

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
        assert md.demodulate(md.modulate(bits, cfg), cfg, len(bits)) == bits

    def test_long_noiseless_round_trip(self):
        cfg = md.ModemConfig()
        rng = random.Random(11)
        bits = [rng.randrange(2) for _ in range(10_000)]
        assert md.demodulate(md.modulate(bits, cfg), cfg, len(bits)) == bits

    def test_global_sign_invariance(self):
        cfg = md.ModemConfig()
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        wave = md.modulate(bits, cfg)
        negated = md.Waveform(-wave.samples, wave.sample_rate_hz)
        assert md.demodulate(negated, cfg, len(bits)) == bits

    def test_amplitude_scale_invariance(self):
        cfg = md.ModemConfig()
        bits = [1, 0, 1, 1, 0]
        wave = md.modulate(bits, cfg)
        for scale in (1e-6, 0.5, 40.0):
            scaled = md.Waveform(scale * wave.samples, wave.sample_rate_hz)
            assert md.demodulate(scaled, cfg, len(bits)) == bits

    def test_insufficient_samples(self):
        cfg = md.ModemConfig()
        wave = md.modulate([1, 0], cfg)
        with pytest.raises(md.InsufficientSamples):
            md.demodulate(wave, cfg, 5)


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


def test_monte_carlo_ber_tracks_theory():
    cfg = md.ModemConfig()
    results = measure_ber(cfg, [5.0, 7.0, 9.0], 100_000, seed=1)
    for ebn0_db, measured in results:
        expected = md.theoretical_dpsk_ber(10 ** (ebn0_db / 10))
        assert measured == pytest.approx(expected, rel=0.20)
    # non-increasing across the grid for a fixed seed
    bers = [b for _, b in results]
    assert bers == sorted(bers, reverse=True)


def test_waveform_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        md.Waveform(np.zeros(4), 0.0)


def test_waveform_csv_export(tmp_path):
    wave = md.Waveform(np.array([1.0, -0.5]), 10.0)
    path = tmp_path / "wave.csv"
    wave.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,volts"
    assert lines[1].startswith("0.0,1.0")
    assert lines[2].startswith("0.1,-0.5")


def test_waveform_csv_matches_csv_writer(tmp_path):
    # Reference: one csv.writer row per sample, as the export was first written.
    fs = 23.38e6
    wave = md.Waveform(np.random.default_rng(3).normal(0.0, 1e-3, 70_001), fs)
    wave.to_csv(tmp_path / "wave.csv")
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "volts"])
        for i, v in enumerate(wave.samples):
            writer.writerow([i / fs, repr(float(v))])
    assert (tmp_path / "wave.csv").read_bytes() == ref.read_bytes()
