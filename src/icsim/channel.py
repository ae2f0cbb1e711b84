"""Inductive-coupling channel and receive front end.

The channel is linear: a measured coupling gain per coil-turn count, an
optional exponential cable attenuation, a whole-sample propagation delay,
plus additive interference tones and seeded Gaussian noise.  The front end
is a single biquad band-pass (bilinear transform, prewarped at the center
frequency) with a configurable passband gain.  Samples are 1-D float64
arrays; the functions that depend on time take the sample rate as an
argument, which in a run is always ``ModemConfig.sample_rate_hz``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

# Measured receive amplitude in mV for a 12.0 V transmit tone, by coil turns.
_COUPLING_TABLE_MV = {2: 264.0, 3: 284.0, 4: 392.0, 5: 308.0, 6: 296.0, 7: 296.0, 8: 260.0}
_TX_REFERENCE_MV = 12000.0


class OutOfTable(ValueError):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    turns: int = 4
    cable_length_m: float = 700.0
    attenuation_per_m: float = 0.0  # nepers/m on amplitude
    noise_sigma_v: float = 0.0
    interference: tuple[tuple[float, float], ...] = ()  # (freq_hz, amplitude_v) tones
    propagation_speed_mps: float = 2e8

    def __post_init__(self):
        if self.turns not in _COUPLING_TABLE_MV:
            raise OutOfTable(f"no coupling measurement for turns={self.turns}")
        if min(self.cable_length_m, self.attenuation_per_m, self.noise_sigma_v) < 0:
            raise ValueError("channel magnitudes must be nonnegative")
        if self.propagation_speed_mps <= 0:
            raise ValueError("propagation_speed_mps must be positive")


@dataclass(frozen=True)
class FrontEndConfig:
    center_hz: float = 1.67e6
    passband_gain: float = 3.0
    quality_factor: float = 1.0

    def __post_init__(self):
        if min(self.center_hz, self.passband_gain, self.quality_factor) <= 0:
            raise ValueError("front-end parameters must be positive")


def coupling_gain(turns: int) -> float:
    """Receive/transmit amplitude ratio for the given coil turn count."""
    try:
        return _COUPLING_TABLE_MV[turns] / _TX_REFERENCE_MV
    except KeyError:
        raise OutOfTable(f"no coupling measurement for turns={turns}") from None


def channel_gain(cfg: ChannelConfig) -> float:
    """Receive/transmit amplitude ratio: coil coupling times cable attenuation."""
    return coupling_gain(cfg.turns) * math.exp(-cfg.attenuation_per_m * cfg.cable_length_m)


def delay_samples(cfg: ChannelConfig, sample_rate_hz: float) -> int:
    return round(cfg.cable_length_m / cfg.propagation_speed_mps * sample_rate_hz)


def propagate(samples: np.ndarray, cfg: ChannelConfig, sample_rate_hz: float,
              seed: int) -> np.ndarray:
    """Apply gain, attenuation, delay, interference tones and seeded noise."""
    if len(samples) == 0:
        return samples
    gain = channel_gain(cfg)
    d = delay_samples(cfg, sample_rate_hz)
    n = len(samples) + d
    if cfg.noise_sigma_v > 0 and not cfg.interference:
        # Noise drawn first into the output is bitwise the same sum as noise
        # added last: normal(0, s) is s * standard_normal and a + b == b + a.
        out = np.random.default_rng(seed).standard_normal(n)
        out *= cfg.noise_sigma_v
        out[d:] += samples * gain
        return out
    out = np.zeros(n)
    np.multiply(samples, gain, out=out[d:])
    if cfg.interference:
        t = np.arange(n) / sample_rate_hz
        for freq_hz, amplitude_v in cfg.interference:
            out += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
    if cfg.noise_sigma_v > 0:
        out += np.random.default_rng(seed).normal(0.0, cfg.noise_sigma_v, n)
    return out


def frontend_coefficients(fe: FrontEndConfig, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital biquad (b, a) for the band-pass front end, cached and read-only.

    Analog prototype G * (w0/Q) s / (s^2 + (w0/Q) s + w0^2), bilinear
    transformed with the center frequency prewarped so the passband gain is
    exact at center_hz.
    """
    if sample_rate_hz <= 2 * fe.center_hz:
        raise ValueError("sample rate must exceed twice the center frequency")
    w0 = 2 * math.pi * fe.center_hz
    wa = 2 * sample_rate_hz * math.tan(w0 / (2 * sample_rate_hz))
    b = (fe.passband_gain * wa / fe.quality_factor, 0.0)
    a = (1.0, wa / fe.quality_factor, wa**2)
    return _bilinear(b, a, sample_rate_hz)


@functools.lru_cache
def _bilinear(b: tuple, a: tuple, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Memoised bilinear transform; every caller shares the read-only result."""
    bz, az = sps.bilinear(b, a, fs=sample_rate_hz)
    bz.flags.writeable = False
    az.flags.writeable = False
    return bz, az


def condition(samples: np.ndarray, fe: FrontEndConfig, sample_rate_hz: float) -> np.ndarray:
    """Band-pass filter and amplify the received samples."""
    if len(samples) == 0:
        return samples
    b, a = frontend_coefficients(fe, sample_rate_hz)
    return sps.lfilter(b, a, samples)


def superpose(waves: list[np.ndarray], offsets: list[int], length: int) -> np.ndarray:
    """Sample-wise sum over ``[0, length)`` of waveforms placed at start offsets.

    ``offsets[k]`` is the output index of ``waves[k]``'s first sample;
    samples outside the span are dropped and gaps are zero.  The waves are
    added in list order, so the floating-point sum is reproducible.
    """
    out = np.zeros(length)
    for w, off in zip(waves, offsets):
        src_lo = max(0, -off)
        dst_lo = max(0, off)
        n = min(len(w) - src_lo, length - dst_lo)
        if n > 0:
            out[dst_lo : dst_lo + n] += w[src_lo : src_lo + n]
    return out
