"""Sampled-waveform DPSK modulator and differential-detection demodulator.

Symbols occupy an integer number of carrier cycles, so a bit value of 1
(a pi phase step) negates the waveform exactly and the delay-and-multiply
detection statistic carries no residual carrier term.  A reference symbol is
prepended by the modulator; the receiver is assumed symbol-synchronous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SUPPORTED_BIT_RATES = (4800, 9600, 115200)
_CSV_BLOCK_ROWS = 1 << 16


class InsufficientSamples(ValueError):
    pass


@dataclass(frozen=True)
class ModemConfig:
    carrier_hz: float = 1.67e6
    samples_per_cycle: int = 16
    bit_rate_bps: int = 115200
    amplitude_v: float = 12.0

    def __post_init__(self):
        if self.samples_per_cycle < 3:
            raise ValueError("samples_per_cycle must be at least 3")
        if self.bit_rate_bps <= 0:
            raise ValueError("bit_rate_bps must be positive")

    @property
    def sample_rate_hz(self) -> float:
        # Integer samples per carrier cycle by construction.
        return self.carrier_hz * self.samples_per_cycle

    @property
    def cycles_per_bit(self) -> int:
        return max(1, round(self.carrier_hz / self.bit_rate_bps))

    @property
    def samples_per_bit(self) -> int:
        return self.cycles_per_bit * self.samples_per_cycle

    @property
    def effective_bit_rate_bps(self) -> float:
        """On-channel rate after rounding to whole carrier cycles per bit."""
        return self.carrier_hz / self.cycles_per_bit


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    def to_csv(self, path) -> None:
        """Two-column (time_s, volts) dump for plotting, values in repr form.

        Rows are formatted a block at a time, so memory stays bounded for
        long waveforms.
        """
        with open(path, "w", newline="") as fh:
            fh.write("time_s,volts\r\n")
            for lo in range(0, len(self), _CSV_BLOCK_ROWS):
                volts = self.samples[lo : lo + _CSV_BLOCK_ROWS]
                times = np.arange(lo, lo + len(volts)) / self.sample_rate_hz
                fh.writelines(map("%r,%r\r\n".__mod__, zip(times.tolist(), volts.tolist())))


def frame_airtime_s(n_bytes: int, cfg: ModemConfig) -> float:
    """On-air time of an n-byte frame: its data bits plus the reference symbol."""
    return (8 * n_bytes + 1) * cfg.cycles_per_bit / cfg.carrier_hz


def bytes_to_bits(data: bytes) -> list[int]:
    """LSB-first expansion, eight bits per byte (serial-port order)."""
    return [(b >> i) & 1 for b in data for i in range(8)]


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    if len(bits) % 8:
        raise ValueError("bit count must be a multiple of 8")
    out = bytearray()
    for k in range(0, len(bits), 8):
        out.append(sum(bit << i for i, bit in enumerate(bits[k : k + 8])))
    return bytes(out)


def diff_encode(bits: Sequence[int]) -> np.ndarray:
    """Per-symbol absolute phases: reference 0, then +pi for each 1 bit."""
    phases = np.zeros(len(bits) + 1)
    phases[1:] = np.cumsum(np.asarray(bits) * math.pi)
    return np.mod(phases, 2 * math.pi)


def modulate(bits: Sequence[int], cfg: ModemConfig) -> Waveform:
    phases = diff_encode(bits)
    spb = cfg.samples_per_bit
    n = np.arange(len(phases) * spb)
    phase_per_sample = np.repeat(phases, spb)
    samples = cfg.amplitude_v * np.cos(2 * math.pi * n / cfg.samples_per_cycle + phase_per_sample)
    return Waveform(samples, cfg.sample_rate_hz)


def demodulate(wave: Waveform, cfg: ModemConfig, n_bits: int) -> list[int]:
    """Differential detection over whole symbols.

    Each symbol is first correlated against the carrier quadratures, which
    rejects out-of-band noise; the statistic for symbol k >= 1 is then the
    product with the previous symbol's correlation.  A negative value means
    the phase stepped by pi (bit 1).  For in-band components this equals the
    plain sample-wise delayed product up to a positive scale.
    """
    spb = cfg.samples_per_bit
    needed = (n_bits + 1) * spb
    if len(wave) < needed:
        raise InsufficientSamples(f"need {needed} samples, got {len(wave)}")
    sym = wave.samples[:needed].reshape(n_bits + 1, spb)
    angle = 2 * math.pi * np.arange(spb) / cfg.samples_per_cycle
    in_phase = sym @ np.cos(angle)
    quadrature = sym @ np.sin(angle)
    stats = in_phase[1:] * in_phase[:-1] + quadrature[1:] * quadrature[:-1]
    return [1 if s < 0 else 0 for s in stats]


def theoretical_dpsk_ber(ebn0_linear: float) -> float:
    """Closed-form bit error probability for differentially detected DPSK."""
    return 0.5 * math.exp(-ebn0_linear)


def ebn0_to_noise_sigma(ebn0_linear: float, cfg: ModemConfig) -> float:
    """Per-sample Gaussian noise std dev realizing the requested Eb/N0.

    With n samples per bit at amplitude A the bit energy is n*A^2/2 and the
    delay-and-multiply detector sees one-sided density 2*sigma^2, giving
    sigma = A * sqrt(n / (4 * Eb/N0)).
    """
    if ebn0_linear <= 0:
        raise ValueError("ebn0_linear must be positive")
    return cfg.amplitude_v * math.sqrt(cfg.samples_per_bit / (4.0 * ebn0_linear))
