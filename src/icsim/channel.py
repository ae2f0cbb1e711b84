"""Inductive-coupling channel and receive front end.

The channel is linear: a measured coupling gain per coil-turn count, an
optional exponential cable attenuation, a whole-sample propagation delay
and additive interference tones, all in ``propagate``, which draws nothing.
The transmissions on air add up, ``superpose``, which adds each in place
from its symbol signs as plus or minus one symbol template.  Every node
hears the one noiseless channel output plus its own seeded Gaussian noise,
``channel_noise``.  The front end is a single biquad band-pass (bilinear
transform, prewarped at the center frequency) with the bench's passband
gain of 3; ``frontend_biquad`` builds and checks it once.  A reception can
be received, ``propagate`` adding into its noise, and conditioned a block at
a time; nothing here chunks, so the caller's blocks bound every temporary.
Samples are 1-D float64 arrays; the functions that depend on time take the
sample rate as an argument, in a run always ``ModemConfig.sample_rate_hz``.
"""

from __future__ import annotations

import functools
import math
import warnings
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
    passband_gain: float = 3.0  # the bench's gain, the only one a Scenario accepts
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


# channel_noise's samples lie within about 14 sigma; bounds allow for this many.
NOISE_PEAK_SIGMAS = 64


def channel_noise(sigma_v: float, n: int, seed, out: np.ndarray | None = None) -> np.ndarray:
    """The seeded noise of one reception: n samples of N(0, sigma_v).

    ``seed`` is an int or a numpy Generator, whose stream the draw continues.
    Written into ``out`` when given.  numpy releases the interpreter lock
    while it draws and scales, so receptions can draw on worker threads.
    """
    noise = np.random.default_rng(seed).standard_normal(n, out=out)
    noise *= sigma_v
    return noise


def propagate(waves, offsets, template: np.ndarray, cfg: ChannelConfig,
              sample_rate_hz: float, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Add the noiseless channel's output from reception sample ``start`` on into ``out``.

    A reception is the delay's silent samples, then the transmissions on air
    received: ``waves`` and ``offsets`` as ``superpose`` takes them, counted
    from the delay's end, each symbol plus or minus gain times ``template``.
    Then each interference tone, ``amplitude_v * sin(2 pi freq_hz t)`` at
    t = reception sample index / sample_rate_hz, is added through one buffer
    as long as ``out``.  Every receiver hears this same output, added into
    its own ``channel_noise``; any split of a reception into blocks gives
    the same samples.  Returns ``out``.
    """
    d = delay_samples(cfg, sample_rate_hz)
    skip = min(len(out), max(0, d - start))
    signal = out[skip:]
    first = start + skip - d  # the signal sample at signal[0]
    superpose(waves, [off - first for off in offsets], channel_gain(cfg) * template, signal)
    if cfg.interference:
        # Whole numbers as floats are exact, so t is bitwise index / sample_rate_hz.
        t = np.arange(start, start + len(out), dtype=float)
        t /= sample_rate_hz
        tone = np.empty(len(out))
        for freq_hz, amplitude_v in cfg.interference:
            # amplitude_v * sin(2 * pi * freq_hz * t) in place: elementwise,
            # so bitwise what the expression over the whole reception gives.
            np.multiply(2 * math.pi * freq_hz, t, out=tone)
            np.sin(tone, out=tone)
            tone *= amplitude_v
            out += tone
    return out


def frontend_coefficients(fe: FrontEndConfig, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """The front end's biquad (b, a), as ``condition`` reads it for each block."""
    return frontend_biquad(fe, sample_rate_hz)


@functools.lru_cache
def frontend_biquad(fe: FrontEndConfig, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital biquad (b, a) for the band-pass front end, checked, cached and read-only.

    Analog prototype G * (w0/Q) s / (s^2 + (w0/Q) s + w0^2), bilinear
    transformed with the center frequency prewarped so the passband gain is
    exact at center_hz.  ValueError, which is not cached, unless it builds
    with no warning (scipy warns as it trims a badly conditioned numerator)
    into finite coefficients with poles strictly inside the unit circle.
    """
    if sample_rate_hz <= 2 * fe.center_hz:
        raise ValueError("sample rate must exceed twice the center frequency")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w0 = 2 * math.pi * fe.center_hz
            wa = 2 * sample_rate_hz * math.tan(w0 / (2 * sample_rate_hz))
            b, a = sps.bilinear((fe.passband_gain * wa / fe.quality_factor, 0.0),
                                (1.0, wa / fe.quality_factor, wa**2), fs=sample_rate_hz)
    except Exception as err:  # scipy fails on a degenerate prototype in several ways
        raise ValueError(f"its biquad cannot be built ({type(err).__name__}: {err})") from err
    if not (np.isfinite(b).all() and np.isfinite(a).all() and len(b) == len(a) == 3
            and abs(a[2]) < 1 and abs(a[1]) < 1 + a[2]):
        raise ValueError(f"its biquad, b={b.tolist()} and a={a.tolist()}, is not finite "
                         "or badly conditioned")
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


_L1_SAMPLES = 1 << 18  # frontend_l1_bound's sample budget, 2 MiB


@functools.lru_cache
def frontend_l1_bound(fe: FrontEndConfig, sample_rate_hz: float) -> float:
    """A bound L on the front end's l1 gain sum |h|: |output| <= L max |input| (BIBO
    stability; Oppenheim & Schafer).  For the larger pole radius r, |h[n]| <= ||b||_1
    (n + 1) r**(n - 2) from n = 2 on, h being b convolved with 1/A(z)'s response, at most
    (n + 1) r**n.  L is sum |h| over N samples, raised 1e-6 for rounding, plus that bound's
    tail past them, N the first power of 2 whose tail is within 1% of ||b||_1 / ||a||_1 <=
    sum |h| (b = a * h), which is within 2% of sum |h|, or _L1_SAMPLES if none up to it is;
    inf if r rounds up to 1.  lfilter's states, z1[n] = sum_{k>=1} h[k] x[n+1-k] and z2[n] =
    sum_{k>=2} h[k] x[n+2-k] + a1 z1[n] (|a1| < 2), and its partial sums (|b1|, |b2| <= 2L)
    stay within 5L max |x|, inside a Scenario's 2 samples_per_bit L max |x| as
    samples_per_bit >= 3.
    """
    b, a = frontend_biquad(fe, sample_rate_hz)
    # The poles are (-a[1] +/- d) / 2, a[0] being 1: np.roots would load LAPACK, ~1 MiB RSS.
    d = (a[1] ** 2 - 4 * a[2] + 0j) ** 0.5
    r = float(max(abs(a[1] + d), abs(a[1] - d))) / 2
    b_l1, n, tail = float(np.abs(b).sum()), 1, math.inf
    while r < 1 and n < _L1_SAMPLES and tail > 0.01 * b_l1 / float(np.abs(a).sum()):
        n *= 2
        tail = b_l1 * r ** (n - 2) * ((n + 1) / (1 - r) + r / (1 - r) ** 2)
    return float(np.abs(sps.lfilter(b, a, sps.unit_impulse(n))).sum()) * (1 + 1e-6) + tail


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


def superpose(waves, offsets, template: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add waves placed at start offsets into ``out``, clipped to its span; returns ``out``.

    Each wave is an array of symbol signs, +1 or -1, symbol k being
    ``wave[k] * template``; ``offsets[k]`` is the index in ``out`` of
    ``waves[k]``'s first sample.  The waves are added in list order, so the
    floating-point sum is reproducible.  Each wave's symbols that overlap
    the span are one gather of rows from (template, -template), which is
    bitwise ``sign * template``, raveled, sliced to the span and added.
    """
    spb, length = len(template), len(out)
    both = np.stack((template, -template))
    for signs, off in zip(waves, offsets):
        # Symbols lo to hi - 1 overlap [0, length); the first and last may be clipped.
        lo, hi = max(0, -off // spb), min(len(signs), -((off - length) // spb))
        if lo < hi:
            first = off + lo * spb  # the gathered samples' first index in out
            a, b = max(0, first), min(length, off + hi * spb)
            out[a:b] += both[(signs[lo:hi] < 0).view(np.uint8)].ravel()[a - first : b - first]
    return out
