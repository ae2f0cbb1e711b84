"""A whole-array reference receiver: no blocks, no pool.

A run detects each receiver a block at a time, on whichever thread takes
its job.  This receiver builds each reception whole, in the order the
channel model defines its sum:

1. the receiver's noise, one ``channel_noise`` draw over the whole reception
   from its ``_rx_seed``;
2. each transmission on air, its symbols plus or minus gain times the
   template, at its offset past the delay, silent before the delay: the
   received transmission first, then each one overlapping it in index order;
3. each interference tone, one expression over the whole reception.

It then filters the reception with one ``lfilter`` call and correlates it
as one array; ``md.decide`` of those I/Q is the receiver's bits.  A run's
detectors must give its I/Q and bits bitwise.
"""

import math

import numpy as np
from scipy import signal as sps

from icsim import channel as ch
from icsim import harness as hs
from icsim import modem as md


def overlapping(tx, transmissions):
    """The transmissions other than tx that are on air while it is, in index order."""
    return [o for o in sorted(transmissions, key=lambda o: o.index)
            if o is not tx and o.start_s < tx.end_s and tx.start_s < o.end_s]


def reception(sc, sigma, seed, tx, transmissions):
    """One receiver's samples of tx, whole: noise, then each wave, then each tone."""
    fs = sc.modem.sample_rate_hz
    delay = ch.delay_samples(sc.channel, fs)
    n = delay + md.frame_samples(hs.FRAME_LEN, sc.modem)
    samples = ch.channel_noise(sigma, n, seed) if sigma > 0 else np.zeros(n)
    symbol = ch.channel_gain(sc.channel) * md.modulate((), sc.modem)
    for o in [tx, *overlapping(tx, transmissions)]:
        wave = (o.signs[:, None] * symbol).ravel()
        first = delay + round((o.start_s - tx.start_s) * fs)  # wave[0]'s sample
        lo, hi = max(delay, first), min(n, first + len(wave))
        if lo < hi:
            samples[lo:hi] += wave[lo - first : hi - first]
    t = np.arange(n) / fs
    for freq_hz, amplitude_v in sc.channel.interference:
        samples += amplitude_v * np.sin(2 * math.pi * freq_hz * t)
    return samples


def received_iq(sim, tx, transmissions):
    """Each receiver's (node id, symbol I/Q) of tx in node order, from whole arrays.

    ``transmissions`` holds every transmission started so far, as the run's
    ``_Transmission`` records, tx among them.
    """
    sc = sim.sc
    fs = sc.modem.sample_rate_hz
    delay = ch.delay_samples(sc.channel, fs)
    b, a = ch.frontend_coefficients(sc.front_end, fs)
    received = []
    for node_id in sim.nodes:
        if node_id == tx.sender:
            continue
        samples = reception(sc, sim.sigma, sim._rx_seed(tx.index, node_id), tx, transmissions)
        conditioned = sps.lfilter(b, a, samples)
        received.append((node_id, md.correlations(conditioned[delay:], sc.modem, len(tx.bits))))
    return received
