"""Inductive-coupling channel and receive front end.

The channel is linear: a measured coupling gain per coil-turn count, an
optional exponential cable attenuation, a whole-sample propagation delay
and additive interference tones, all in ``propagate``, which draws nothing.
The transmissions on air add up, ``superpose``, which can expand each from
its symbol signs a block at a time.  Every node hears the one noiseless
signal plus its own seeded Gaussian noise, ``channel_noise``: a reception is
the two summed.  The front end is a single biquad band-pass (bilinear
transform, prewarped at the center frequency) with a configurable passband
gain; ``condition`` can run it over a reception in consecutive blocks.
Samples are 1-D float64 arrays; the functions that depend on time take the
sample rate as an argument, which in a run is always
``ModemConfig.sample_rate_hz``.
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


def channel_noise(cfg: ChannelConfig, n: int, seed: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The seeded noise of one reception: n samples of N(0, noise_sigma_v).

    Written into ``out`` when given.  numpy releases the interpreter lock
    while it draws and scales, so receptions can draw on worker threads.
    """
    noise = np.random.default_rng(seed).standard_normal(n, out=out)
    noise *= cfg.noise_sigma_v
    return noise


def propagate(samples: np.ndarray, cfg: ChannelConfig, sample_rate_hz: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """The noiseless channel: gain, attenuation, delay and interference tones.

    Every receiver hears this same signal; a reception adds its own
    ``channel_noise`` to it.  The result is the delay's silent samples, then
    the signal.  It is written into ``out`` when given, and ``samples`` may
    then be out's own tail, so a signal superposed there propagates in place.
    """
    if len(samples) == 0:
        return samples
    d = delay_samples(cfg, sample_rate_hz)
    if out is None:
        out = np.empty(len(samples) + d)
    out[:d] = 0.0
    np.multiply(samples, channel_gain(cfg), out=out[d:])
    if cfg.interference:
        t = np.arange(len(out)) / sample_rate_hz
        for freq_hz, amplitude_v in cfg.interference:
            out += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
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


def condition(samples: np.ndarray, fe: FrontEndConfig, sample_rate_hz: float,
              state: np.ndarray | None = None) -> np.ndarray:
    """Band-pass filter and amplify the received samples.

    A reception can be conditioned in consecutive blocks that share one
    ``state``, the biquad's two delay values: zeros before the first block,
    updated in place by each call.  The blocks then come out bitwise as one
    call over the whole reception would give them.
    """
    if len(samples) == 0:
        return samples
    b, a = frontend_coefficients(fe, sample_rate_hz)
    if state is None:
        return sps.lfilter(b, a, samples)
    out, state[:] = sps.lfilter(b, a, samples, zi=state)
    return out


# A wave given by symbol signs is expanded about this many samples at a
# time, so no whole wave is built.
_EXPAND_SAMPLES = 1 << 16
# The template of one sample of 1.0, with which a wave is its own samples.
_SAMPLE = np.ones(1)
_SAMPLE.flags.writeable = False


def superpose(waves, offsets, length: int, template: np.ndarray = _SAMPLE,
              out: np.ndarray | None = None) -> np.ndarray:
    """Sample-wise sum over ``[0, length)`` of waveforms placed at start offsets.

    Each wave is a sequence of symbols, symbol k being ``wave[k] * template``:
    with the default template a wave is its samples, and with a modem's
    symbol template it is its symbol signs.  ``offsets[k]`` is the output
    index of ``waves[k]``'s first sample; samples outside the span are
    dropped and gaps are zero.  The waves are added in list order, so the
    floating-point sum is reproducible.  The sum is added into ``out``, zeros
    of ``length`` samples, when given.
    """
    out = np.zeros(length) if out is None else out
    spb = len(template)
    step = max(1, _EXPAND_SAMPLES // spb)
    for signs, off in zip(waves, offsets):
        # Symbols first to last - 1 reach into the span.
        first = max(0, -off) // spb
        last = min(len(signs), -(-(length - off) // spb))
        for k in range(first, last, step):
            block = (signs[k : min(k + step, last), None] * template).ravel()
            lo = off + k * spb  # the output index of block[0]
            src = max(0, -lo)
            n = min(len(block), length - lo) - src
            out[lo + src : lo + src + n] += block[src : src + n]
    return out
