"""Sampled-waveform DPSK modulator and differential-detection demodulator.

Symbols occupy an integer number of carrier cycles, so every symbol is
exactly plus or minus one carrier template: a bit value of 1 (a pi phase
step) negates the waveform exactly and the delay-and-multiply detection
statistic carries no residual carrier term.  A reference symbol is prepended
by the modulator; the receiver is assumed symbol-synchronous.  A frame is
thus fully described by its ``symbol_signs`` and the template.  Bits travel
as uint8 numpy arrays, LSB first within each byte; samples travel as 1-D
float64 arrays at ``ModemConfig.sample_rate_hz``, and the demodulator also
takes them as consecutive blocks of whole symbols.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_BIT_RATES = (4800, 9600, 115200)


class InsufficientSamples(ValueError):
    pass


class NonFiniteSignal(ValueError):
    """The received samples overflowed float64: no decision can be made."""


@dataclass(frozen=True)
class ModemConfig:
    carrier_hz: float = 1.67e6
    samples_per_cycle: int = 16
    bit_rate_bps: int = 115200
    amplitude_v: float = 12.0

    def __post_init__(self):
        if self.samples_per_cycle < 3:
            raise ValueError("samples_per_cycle must be at least 3")
        if self.carrier_hz <= 0 or self.amplitude_v < 0:
            raise ValueError("carrier_hz must be positive and amplitude_v nonnegative")
        if not 0 < self.bit_rate_bps <= self.carrier_hz:
            raise ValueError("bit_rate_bps must be positive and at most carrier_hz")
        if not math.isfinite(self.sample_rate_hz):
            raise ValueError("carrier_hz * samples_per_cycle must be finite")

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


def frame_airtime_s(n_bytes: int, cfg: ModemConfig) -> float:
    """On-air time of an n-byte frame: its data bits plus the reference symbol."""
    return (8 * n_bytes + 1) * cfg.cycles_per_bit / cfg.carrier_hz


def frame_samples(n_bytes: int, cfg: ModemConfig) -> int:
    """Samples in a modulated n-byte frame: its data bits plus the reference symbol."""
    return (8 * n_bytes + 1) * cfg.samples_per_bit


def bytes_to_bits(data: bytes) -> np.ndarray:
    """LSB-first expansion, eight uint8 bits per byte (serial-port order)."""
    return np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")


def bits_to_bytes(bits) -> bytes:
    if len(bits) % 8:
        raise ValueError("bit count must be a multiple of 8")
    return np.packbits(bits, bitorder="little").tobytes()


@functools.lru_cache
def _carrier(samples_per_bit: int, samples_per_cycle: int) -> np.ndarray:
    """Memoised (2, spb) basis: cos and sin of the carrier phase over one
    symbol, starting at phase 0; every caller shares the read-only result."""
    phase = 2 * math.pi * np.arange(samples_per_bit) / samples_per_cycle
    basis = np.stack((np.cos(phase), np.sin(phase)))
    basis.flags.writeable = False
    return basis


def _correlate(symbols: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """(2, n) in-phase and quadrature correlations of n rows of spb samples.

    einsum, unlike matmul, never calls BLAS, so no BLAS helper thread runs.
    """
    return np.einsum("kj,ij->ki", _carrier(cfg.samples_per_bit, cfg.samples_per_cycle), symbols)


def symbol_signs(bits) -> np.ndarray:
    """Each symbol's sign, +1 or -1, from the reference symbol's +1 on.

    A 1 bit negates the symbol before it, so symbol k's sign is -1 to the
    parity of the first k bits.  Symbol k of ``modulate(bits, cfg)`` is sign k
    times the template, which is ``modulate((), cfg)``.
    """
    parity = np.cumsum(np.asarray(bits, dtype=np.int64)) & 1
    return 1 - 2 * np.concatenate(([0], parity))


def modulate(bits, cfg: ModemConfig) -> np.ndarray:
    """The reference symbol, then one symbol per bit, each +/- one template."""
    template = cfg.amplitude_v * _carrier(cfg.samples_per_bit, cfg.samples_per_cycle)[0]
    return (symbol_signs(bits)[:, None] * template).ravel()


def demodulate(samples, cfg: ModemConfig, n_bits: int) -> np.ndarray:
    """Differential detection over whole symbols, returning uint8 bits.

    Each symbol is first correlated against the carrier quadratures, which
    rejects out-of-band noise; the statistic for symbol k >= 1 is then the
    product with the previous symbol's correlation.  A negative value means
    the phase stepped by pi (bit 1).  For in-band components this equals the
    plain sample-wise delayed product up to a positive scale.  The
    correlations are first scaled by a power of two, which is exact, so that
    a faint signal's products do not underflow to 0.  A correlation that is
    inf or nan, from samples that overflowed float64, raises NonFiniteSignal.

    ``samples`` is one array, or an iterable of consecutive blocks that each
    hold whole symbols, so a long reception need never be held whole;
    samples past the last symbol are ignored.  Each symbol's correlations
    do not depend on the blocks it came in.

    Both quadratures come from one einsum pass over the samples, which never
    calls BLAS: no BLAS helper thread runs, so CPU time tracks wall time
    whatever OPENBLAS_NUM_THREADS is.
    """
    spb = cfg.samples_per_bit
    n_symbols = n_bits + 1
    blocks = [samples] if isinstance(samples, np.ndarray) else samples
    parts, done, seen = [], 0, 0
    for block in blocks:
        if seen % spb:
            raise ValueError(f"a block ends {seen % spb} samples into a symbol")
        seen += len(block)
        k = min(len(block) // spb, n_symbols - done)
        parts.append(_correlate(block[: k * spb].reshape(k, spb), cfg))
        done += k
        if done == n_symbols:
            break
    else:
        raise InsufficientSamples(f"need {n_symbols * spb} samples, got {seen}")
    iq = np.concatenate(parts, axis=1)
    peak = np.max(np.abs(iq))
    if not math.isfinite(peak):
        raise NonFiniteSignal(f"the symbol correlations reach {float(peak)!r}")
    if peak > 0:
        iq = np.ldexp(iq, -np.frexp(peak)[1])
    in_phase, quadrature = iq
    stats = in_phase[1:] * in_phase[:-1] + quadrature[1:] * quadrature[:-1]
    return (stats < 0).view(np.uint8)


def theoretical_dpsk_ber(ebn0_linear: float) -> float:
    """Closed-form bit error probability for differentially detected DPSK."""
    return 0.5 * math.exp(-ebn0_linear)


def ebn0_to_noise_sigma(ebn0_linear: float, cfg: ModemConfig) -> float:
    """Per-sample Gaussian noise std dev realizing the requested Eb/N0.

    With n samples per bit at amplitude A the bit energy is n*A^2/2 and the
    delay-and-multiply detector sees one-sided density 2*sigma^2, giving
    sigma = A * sqrt(n / (4 * Eb/N0)).  No noise level realizes an Eb/N0 for
    a signal of 0 V, and a sigma of 0 or inf would not realize it either, so
    those raise ValueError.
    """
    if ebn0_linear <= 0:
        raise ValueError("ebn0_linear must be positive")
    if cfg.amplitude_v <= 0:
        raise ValueError(f"signal amplitude {cfg.amplitude_v!r} V must be positive "
                         "to set an Eb/N0")
    sigma = cfg.amplitude_v * math.sqrt(cfg.samples_per_bit / (4.0 * ebn0_linear))
    if not 0 < sigma < math.inf:
        raise ValueError(f"noise sigma {sigma!r} V for this Eb/N0 is not a positive finite float")
    return sigma
