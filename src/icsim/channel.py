"""Inductive-coupling channel and receive front end.

The channel is linear: a measured coupling gain per coil-turn count, an
optional exponential cable attenuation, a whole-sample propagation delay
and additive interference tones, all in ``propagate``, which draws nothing.
The transmissions on air add up, ``superpose``, which adds each in place
from its symbol signs as plus or minus one symbol template.  Every node
hears the one noiseless channel output plus its own seeded Gaussian noise,
``channel_noise``: a reception is its noise with ``propagate`` adding the
channel's output into it, which can be done a block at a time, so no array
need hold a whole reception.  The front end is a single
biquad band-pass (bilinear transform, prewarped at the center frequency)
with the bench's passband gain of 3; ``frontend_biquad`` builds and checks
it once, and ``condition`` can run it over a reception in consecutive blocks.
Samples are 1-D float64 arrays; the functions that depend on time take the
sample rate as an argument, which in a run is always
``ModemConfig.sample_rate_hz``.
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


# Interference tones and superposed symbols are added this many samples at a
# time, so no temporary is built over a whole reception.
_TONE_SAMPLES = 1 << 16


def propagate(waves, offsets, template: np.ndarray, cfg: ChannelConfig,
              sample_rate_hz: float, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Add the noiseless channel's output from reception sample ``start`` on into ``out``.

    A reception is the delay's silent samples, then the transmissions on air
    received: ``waves`` and ``offsets`` as ``superpose`` takes them, counted
    from the delay's end, each symbol plus or minus gain times ``template``.
    Then each interference tone, ``amplitude_v * sin(2 pi freq_hz t)`` at
    t = reception sample index / sample_rate_hz, is added a block at a time
    through one reused buffer.  Every receiver hears this same output, added
    into its own ``channel_noise``; any split of a reception into blocks
    gives the same samples.  Returns ``out``.
    """
    d = delay_samples(cfg, sample_rate_hz)
    skip = min(len(out), max(0, d - start))
    signal = out[skip:]
    first = start + skip - d  # the signal sample at signal[0]
    superpose(waves, [off - first for off in offsets], len(signal),
              channel_gain(cfg) * template, out=signal)
    if cfg.interference:
        tone = np.empty(min(len(out), _TONE_SAMPLES))
        for lo in range(0, len(out), _TONE_SAMPLES):
            # Whole numbers as floats are exact, so t is bitwise index / sample_rate_hz.
            t = np.arange(start + lo, start + min(lo + _TONE_SAMPLES, len(out)), dtype=float)
            t /= sample_rate_hz
            for freq_hz, amplitude_v in cfg.interference:
                # amplitude_v * sin(2 * pi * freq_hz * t) in place: elementwise,
                # so bitwise what the expression over the whole reception gives.
                block = np.multiply(2 * math.pi * freq_hz, t, out=tone[: len(t)])
                np.sin(block, out=block)
                block *= amplitude_v
                out[lo : lo + len(t)] += block
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


@functools.lru_cache
def frontend_l1_bound(fe: FrontEndConfig, sample_rate_hz: float) -> float:
    """A bound on the front end's l1 gain sum |h|: |output| <= bound * max |input| (BIBO
    stability; Oppenheim & Schafer, *Discrete-Time Signal Processing*).  h is b convolved
    with 1/A(z)'s impulse response, at most (n + 1) r**n at sample n for the larger pole
    radius r, so sum |h| <= ||b||_1 / (1 - r)**2."""
    b, a = frontend_biquad(fe, sample_rate_hz)
    # The poles are (-a[1] +/- d) / 2, a[0] being 1: np.roots would load LAPACK, ~1 MiB RSS.
    d = (a[1] ** 2 - 4 * a[2] + 0j) ** 0.5
    r = float(max(abs(a[1] + d), abs(a[1] - d))) / 2
    return float(np.abs(b).sum()) / (1 - r) ** 2 if r < 1 else math.inf


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


def superpose(waves, offsets, length: int, template: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Sample-wise sum over ``[0, length)`` of waves placed at start offsets.

    Each wave is an array of symbol signs, +1 or -1, symbol k being
    ``wave[k] * template``; ``offsets[k]`` is the output index of
    ``waves[k]``'s first sample.  Samples outside the span are dropped and
    gaps are zero.  The waves are added in list order, so the floating-point
    sum is reproducible, and in place into ``out``, zeros of ``length``
    samples unless given: each symbol adds the template or its negation,
    which is bitwise adding ``sign * template``.  Whole symbols are added
    as rows gathered from (template, -template), as many at a time as fit
    in _TONE_SAMPLES samples (at least one), so no temporary outgrows that.
    """
    out = np.zeros(length) if out is None else out
    spb = len(template)
    both, group = np.stack((template, -template)), max(1, _TONE_SAMPLES // spb)
    for signs, off in zip(waves, offsets):
        # Symbols lo to hi - 1 lie wholly in the span and are added as the
        # rows of views of out; only symbols lo - 1 and hi can be clipped.
        lo, hi = max(0, -(off // spb)), min(len(signs), (length - off) // spb)
        for a in range(lo, hi, group):
            b = min(hi, a + group)
            rows = out[off + a * spb : off + b * spb].reshape(b - a, spb)
            rows += both[(signs[a:b] < 0).view(np.uint8)]
        for k in {lo - 1, hi}:
            if 0 <= k < len(signs):
                start = off + k * spb
                a, b = max(0, start), min(length, start + spb)
                out[a:b] += signs[k] * template[a - start : b - start]
    return out
