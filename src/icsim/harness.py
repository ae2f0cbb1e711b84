"""Deterministic discrete-event simulation of the full polling link.

Every transmission is carried at waveform level and held as its symbol signs, only
while it or one overlapping it is on air or awaiting reception, so run memory does
not grow with run length.  ``_block_edges`` is the one block plan: receptions, BER
chunks and dumped frames are handled in blocks of whole symbols, none over two
``_BLOCK_SAMPLES`` blocks, whatever the delay.  One loop, ``_demodulated``, receives
every block: a receiver's noise from its own seeded Generator in one buffer, plus the
signal (for a reception, the channel's output, conditioned), correlated.  What every
reception shares is made once per run: the received symbol's two rows, and the 32-bit
words of the seed and of each node id, which with the transmission index's key each
receiver's noise stream.  Each receiver is one job on up to 4 threads, the calling
thread among them, which decodes the bits in node order, so reports are bitwise those
of a serial run.  The event loop is the only clock: a node's wake is an event, at
which it enters its mode and acts on, so the timeline is recorded in time order as it
happens; ``nodes`` decides every frame, timer and frame end.  A run is a pure function
of the Scenario, seed included, and writes no file: ``run_scenario`` returns the
Report, which the writers below write.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import heapq
import itertools
import json
import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import channel as ch
from . import frame_codec as fc
from . import modem as md
from . import nodes as nd
from . import power as pw


class ConfigInvalid(ValueError):
    """Scenario validation failure; message carries the offending field path."""


# A reception, its delay included, and a frame dumped with --dump-waveforms are handled
# a block at a time, so their length costs work but no memory.  The frame and the delay
# are each held to this limit, 31 times a 4800 bps frame at 16 samples per cycle.
MAX_RECEPTION_SAMPLES = 2**24
# The one block size, rounded down to whole symbols by _block_edges: one block holds a
# whole 115200 bps reception, and 9600 and 4800 bps receptions take 5 and 9.
_BLOCK_SAMPLES = 1 << 16
FRAME_LEN = nd.FRAME_LEN


def check_ebn0_db(ebn0_db: float, path: str) -> None:
    """Reject an Eb/N0 whose linear value 10 ** (ebn0_db / 10) is not a positive finite float."""
    if not -300 <= ebn0_db <= 300:
        raise ConfigInvalid(f"{path}: {ebn0_db!r} dB is outside [-300, 300] dB")


@dataclass(frozen=True)
class SlaveSpec:
    address: fc.Address
    mode: str = "function_test"
    temperature_c: float = 20.0
    budget: pw.UnitBudget = pw.UnitBudget()


@dataclass(frozen=True)
class Scenario:
    duration_s: float
    seed: int = 0
    modem: md.ModemConfig = md.ModemConfig()
    channel: ch.ChannelConfig = ch.ChannelConfig()
    front_end: ch.FrontEndConfig = ch.FrontEndConfig()
    slaves: tuple[SlaveSpec, ...] = ()
    poll_schedule: tuple[tuple[float, fc.Address], ...] = ()  # (time_s, Address)
    collision_injections: tuple[tuple[float, str], ...] = ()  # (time_s, node id)
    ebn0_db: float | None = 20.0  # None disables derived channel noise
    master_budget: pw.UnitBudget = pw.UnitBudget()

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ConfigInvalid("duration_s: must be positive and finite")
        if self.seed < 0:
            raise ConfigInvalid("seed: must be nonnegative")
        if self.ebn0_db is not None:
            check_ebn0_db(self.ebn0_db, "ebn0_db")
        try:
            sigma = derived_noise_sigma(self)
        except ValueError as err:
            raise ConfigInvalid(f"ebn0_db: at the receiver, {err}") from err
        if self.ebn0_db is not None and self.channel.noise_sigma_v > 0:
            raise ConfigInvalid("channel.noise_sigma_v: only used when ebn0_db is null")
        if not self.front_end.center_hz < self.modem.sample_rate_hz / 2:
            raise ConfigInvalid("front_end.center_hz: must be below half the sample rate")
        try:
            ch.frontend_biquad(self.front_end, self.modem.sample_rate_hz)
        except ValueError as err:
            raise ConfigInvalid(f"front_end: {err}, so no reception can be conditioned, "
                                "whatever modem.amplitude_v; choose center_hz and quality_factor "
                                "that give a finite, stable filter at the bench's gain of "
                                f"{ch.FrontEndConfig.passband_gain!r}") from err
        if self.front_end.passband_gain != ch.FrontEndConfig.passband_gain:
            raise ConfigInvalid("front_end.passband_gain: the front end scales the signal, "
                                "the noise and every tone alike, so its gain cannot change "
                                f"a report; use {ch.FrontEndConfig.passband_gain!r}")
        # A conditioned sample is at most the biquad's l1 gain times the peak on air (a frame
        # per node and per injection, as an injected node transmits whatever its phase, the
        # tones and 64 sigma of noise); a correlation sums samples_per_bit of them; 2x is
        # headroom, which also holds lfilter's states (ch.frontend_l1_bound).
        on_air = 1 + len(self.slaves) + len(self.collision_injections)
        peaks = {f"modem.amplitude_v: {on_air} transmissions on air at {self.modem.amplitude_v!r}"
                 " V each": on_air * self.modem.amplitude_v * ch.channel_gain(self.channel),
                 "channel.interference: tones": sum(abs(t[1]) for t in self.channel.interference),
                 f"{'channel.noise_sigma_v' if self.ebn0_db is None else 'ebn0_db'}: noise of "
                 f"sigma {sigma!r} V": ch.NOISE_PEAK_SIGMAS * sigma}
        l1 = ch.frontend_l1_bound(self.front_end, self.modem.sample_rate_hz)
        if not math.isfinite(2 * self.modem.samples_per_bit * l1 * sum(peaks.values())):
            raise ConfigInvalid(f"{max(peaks, key=peaks.get)} can overflow float64 in the "
                                "front end or a symbol correlation")
        frame_samples = md.frame_samples(FRAME_LEN, self.modem)
        if frame_samples > MAX_RECEPTION_SAMPLES:
            raise ConfigInvalid(f"modem: a frame of {frame_samples} samples is over "
                                f"the limit of {MAX_RECEPTION_SAMPLES}")
        try:
            delay = ch.delay_samples(self.channel, self.modem.sample_rate_hz)
        except OverflowError:
            delay = math.inf
        if delay > MAX_RECEPTION_SAMPLES:
            raise ConfigInvalid(f"channel: a propagation delay of {delay} samples is over "
                                f"the limit of {MAX_RECEPTION_SAMPLES}")
        # propagate takes sin(2 pi f t) at each t before this, from t = 0.
        reception_s = (frame_samples + delay) / self.modem.sample_rate_hz
        for i, (freq_hz, _) in enumerate(self.channel.interference):
            if not math.isfinite(2 * math.pi * freq_hz * reception_s):
                raise ConfigInvalid(f"channel.interference[{i}]: the phase of a {freq_hz!r} Hz "
                                    "tone passes float64 within a reception; lower freq_hz")
        # A node draws at most RUN's controller current and all its units.
        # uah_to_joules passes a node's charge through uA s times SUPPLY_V;
        # twice that leaves room for the rounding of the charge's sum.
        budgets = [("master_budget", self.master_budget),
                   *((f"slaves[{i}].budget", spec.budget) for i, spec in enumerate(self.slaves))]
        for path, budget in budgets:
            for unit in pw.UNIT_NAMES:
                ua = f"{unit}_ua"
                if unit not in budget.gating and getattr(budget, ua) != getattr(pw.UnitBudget, ua):
                    raise ConfigInvalid(f"{path}.{ua}: only used when {unit!r} is in gating")
            peak_ua = pw.MODE_TABLE["RUN"].mcu_current_ua + pw.standby_current(budget)
            if not math.isfinite(2 * peak_ua * self.duration_s * pw.SUPPLY_V):
                raise ConfigInvalid(f"{path}: {peak_ua!r} uA over duration_s is more "
                                    "energy than float64 holds")
        seen = set()
        for i, spec in enumerate(self.slaves):
            if spec.address.octets in seen:
                raise ConfigInvalid(f"slaves[{i}].address: duplicate")
            seen.add(spec.address.octets)
            if spec.mode not in ("function_test", "sensor"):
                raise ConfigInvalid(f"slaves[{i}].mode: unknown mode {spec.mode!r}")
            if spec.mode == "sensor":
                try:
                    nd.encode_temperature(spec.temperature_c)
                except nd.OutOfRange as err:
                    raise ConfigInvalid(f"slaves[{i}].temperature_c: {err}") from err
            elif spec.temperature_c != SlaveSpec.temperature_c:
                raise ConfigInvalid(f"slaves[{i}].temperature_c: only used in sensor mode")
        for i, (t, _) in enumerate(self.poll_schedule):
            if not 0 <= t <= self.duration_s:
                raise ConfigInvalid(f"poll_schedule[{i}].time_s: outside duration")
        node_ids = {"master"} | {f"slave{i + 1}" for i in range(len(self.slaves))}
        for i, (t, node_id) in enumerate(self.collision_injections):
            if node_id not in node_ids:
                raise ConfigInvalid(f"collision_injections[{i}].node: unknown id {node_id!r}")
            if not 0 <= t <= self.duration_s:
                raise ConfigInvalid(f"collision_injections[{i}].time_s: outside duration")


def derived_noise_sigma(sc: Scenario) -> float:
    """Noise std dev giving the scenario's Eb/N0 for one transmission at the receive coil."""
    if sc.ebn0_db is None:
        return sc.channel.noise_sigma_v
    rx_modem = replace(sc.modem, amplitude_v=sc.modem.amplitude_v * ch.channel_gain(sc.channel))
    return md.ebn0_to_noise_sigma(10 ** (sc.ebn0_db / 10), rx_modem)


# --- report -----------------------------------------------------------------

@dataclass
class NodeStats:
    frames_sent: int = 0
    frames_received: int = 0
    decode_errors: int = 0
    address_filtered: int = 0
    timeouts: int = 0
    energy_uah: float = 0.0
    energy_joules: float = 0.0


@dataclass
class LinkStats:
    physical_bits: int = 0
    bit_errors: int = 0
    measured_ber: float = 0.0
    nominal_bps: float = 0.0
    effective_bps: float = 0.0


@dataclass
class Report:
    nodes: dict
    link: LinkStats
    timeline: list

    def to_dict(self) -> dict:
        return {
            "nodes": {k: asdict(v) for k, v in self.nodes.items()},
            "link": asdict(self.link),
            "timeline": self.timeline,
        }


# --- simulation internals ---------------------------------------------------

@dataclass(eq=False)
class _Transmission:
    index: int
    sender: str
    bits: np.ndarray
    signs: np.ndarray  # md.symbol_signs(bits): symbol k is signs[k] * the template
    start_s: float
    end_s: float
    injected: bool
    # (sample offset from start_s, signs) of each overlapping one, in index order.
    overlapping: list = field(default_factory=list)


class _Node:
    """Runtime wrapper: protocol state plus power/energy bookkeeping."""

    def __init__(self, node_id, state, budget, mode):
        self.id = node_id
        self.state = state
        self.budget = budget
        self.stats = NodeStats()
        self.power_mode = mode
        self.last_change_s = 0.0

    def set_power_mode(self, now_s, mode):
        """Charge the stretch in the current mode up to now_s, and enter mode."""
        self.stats.energy_uah += pw.charge_consumed(self.power_mode, now_s - self.last_change_s,
                                                    self.budget, pw.STANDBY_BUDGET_MODES)
        self.power_mode, self.last_change_s = mode, now_s


def _uint32_words(n: int) -> list[int]:
    """n's little-endian 32-bit words, as SeedSequence takes a nonnegative int: 0 is [0]."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


class _Sim:
    def __init__(self, sc: Scenario):
        self.sc = sc
        self.sigma = derived_noise_sigma(sc)
        self.fs = sc.modem.sample_rate_hz
        self.delay = ch.delay_samples(sc.channel, self.fs)
        self.prop_delay_s = self.delay / self.fs
        # Every symbol on air is received as one of these rows: the reference symbol,
        # +1 times the template, through the channel's gain, and its negation.
        self.rows = ch.symbol_rows(md.modulate((), sc.modem), ch.channel_gain(sc.channel))
        # Every frame is FRAME_LEN bytes, so every reception has these blocks.
        self.edges = _block_edges(md.frame_samples(FRAME_LEN, sc.modem) + self.delay,
                                  sc.modem.samples_per_bit, first=self.delay)
        # Each receiver of a reception is detected by one job on self.threads
        # threads: the calling one and a pool of the others, if any.
        self.threads = _draw_threads()
        self.pool = None  # while the run is on, the pool, if any

        timeout = nd.master_timeout_s(sc.modem, self.prop_delay_s)
        self.nodes: dict[str, _Node] = {
            "master": _Node("master", nd.MasterState(timeout_s=timeout),
                            sc.master_budget, "RUN")
        }
        for i, spec in enumerate(sc.slaves):
            state = nd.SlaveState(address=spec.address, mode=spec.mode,
                                  temperature_c=spec.temperature_c)
            self.nodes[f"slave{i + 1}"] = _Node(f"slave{i + 1}", state, spec.budget, "STOP1")

        # _rx_seed's key words that do not change within a run.
        self.seed_words = _uint32_words(sc.seed)
        self.id_words = {node_id: list(node_id.encode()) for node_id in self.nodes}

        self.queue: list = []
        self.seq = 0
        self.tx_count = 0
        # Transmissions whose tx_done has not run, in index (start) order.
        self.on_air: list[_Transmission] = []
        self.timeline: list = []
        self.link = LinkStats(nominal_bps=float(sc.modem.bit_rate_bps),
                              effective_bps=sc.modem.effective_bit_rate_bps)

    # -- plumbing --

    def push(self, time_s, kind, data):
        heapq.heappush(self.queue, (time_s, self.seq, kind, data))
        self.seq += 1

    def record(self, time_s, node, kind, **detail):
        entry = {"time_s": time_s, "node": node, "kind": kind}
        entry.update(detail)
        self.timeline.append(entry)

    def _rx_seed(self, tx_index, receiver) -> np.ndarray:
        """The seed of receiver's noise in transmission tx_index: one uint32 word of
        SeedSequence([seed, tx_index, *receiver.encode()]), whose ints are given as the
        uint32 words SeedSequence would make of them."""
        key = np.array([*self.seed_words, *_uint32_words(tx_index), *self.id_words[receiver]],
                       dtype=np.uint32)
        return np.random.SeedSequence(key).generate_state(1)

    # -- transmissions --

    def start_transmission(self, now_s, sender, frame: fc.Frame, injected: bool):
        data = fc.encode_frame(frame)
        bits = md.bytes_to_bits(data)
        signs = md.symbol_signs(bits)
        end_s = now_s + md.frame_airtime_s(len(data), self.sc.modem)
        tx = _Transmission(self.tx_count, sender, bits, signs, now_s, end_s, injected)
        self.tx_count += 1
        for o in self.on_air:
            if now_s < o.end_s:
                # Bitwise -(the other side's): a - b == -(b - a) and round(-x) == -round(x).
                offset = round((o.start_s - now_s) * self.fs)
                tx.overlapping.append((offset, o.signs))
                o.overlapping.append((-offset, signs))
        self.on_air.append(tx)
        self.nodes[sender].stats.frames_sent += 1
        self.record(now_s, sender, "tx_start", frame_hex=data.hex(" "))
        self.push(end_s, "tx_done", tx)
        self.push(end_s + self.prop_delay_s, "rx_complete", tx)

    def receive(self, now_s, tx: _Transmission):
        """Demodulate and decode a transmission at every node but its sender."""
        receivers = [node for node in self.nodes.values() if node.id != tx.sender]
        # The transmissions on air: tx at offset 0, then each overlapping one.
        on_air = zip(*[(0, tx.signs), *tx.overlapping])
        detected = _in_order(self.pool, functools.partial(self.detect, tx, *on_air), receivers)
        # zip takes the next receiver first, so it stops with no job pending.
        for node, bits in zip(receivers, detected):
            self.link.physical_bits += len(bits)
            self.link.bit_errors += int(np.count_nonzero(bits != tx.bits))
            try:
                frame = fc.decode_frame(md.bits_to_bytes(bits))
            except fc.CodecError as err:
                node.stats.decode_errors += 1
                self.record(now_s, node.id, "decode_error", reason=err.kind.value)
                continue
            self.deliver(now_s, node, frame)

    def detect(self, tx, offsets, waves, node):
        """The bits node demodulates from tx, received with the waves on air at their offsets."""
        rng = np.random.default_rng(self._rx_seed(tx.index, node.id)) if self.sigma > 0 else None
        state = np.zeros(2)  # the biquad's, carried from block to block

        def received(block, lo):
            ch.propagate(waves, offsets, self.rows, self.sc.channel, self.fs, block, lo)
            return ch.condition(block, self.sc.front_end, self.fs, state)

        return _demodulated(self.edges, self.delay, self.sigma, rng, received, self.sc.modem,
                            len(tx.bits))

    # -- protocol glue --

    def deliver(self, now_s, node: _Node, frame: fc.Frame):
        if not nd.accepts(node.state, frame):
            node.stats.address_filtered += 1
            self.record(now_s, node.id, "address_filtered", frame_addr=frame.address.hex())
            return
        node.stats.frames_received += 1
        self.record(now_s, node.id, "frame_decoded", frame_addr=frame.address.hex(),
                    payload_hex=frame.payload.hex(" "))
        self.dispatch(now_s, node, nd.FrameReceived(frame))

    def dispatch(self, now_s, node: _Node, event):
        if node.id == "master":
            node.state, actions = nd.master_step(node.state, event)
        else:
            node.state, actions = nd.slave_step(node.state, event)
        self.run_actions(now_s, node, actions)

    def run_actions(self, now_s, node: _Node, actions):
        for i, action in enumerate(actions):
            if isinstance(action, nd.SetPowerMode) and action.latency_s > 0:
                # The node reaches the mode, and acts on, at its own event.
                self.push(now_s + action.latency_s, "wake", (node, action, actions[i + 1:]))
                return
            if isinstance(action, nd.SetPowerMode):
                self.set_power_mode(now_s, node, action)
            elif isinstance(action, nd.TransmitFrame):
                self.start_transmission(now_s, node.id, action.frame, action.injected)
            elif isinstance(action, nd.StartTimer):
                self.push(now_s + action.timeout_s, "timeout", action.poll)
            elif isinstance(action, nd.Report):
                if action.payload is None:
                    node.stats.timeouts += 1
                    self.record(now_s, node.id, "timeout")
                    self.record(now_s, node.id, "report_timeout", target=action.target.hex())
                else:
                    self.record(now_s, node.id, "report", target=action.target.hex(),
                                payload_hex=action.payload.hex(" "))
            elif isinstance(action, nd.Log):
                self.record(now_s, node.id, "log", message=action.message)

    def set_power_mode(self, now_s, node: _Node, action: nd.SetPowerMode):
        node.set_power_mode(now_s, action.mode)
        kind = "wake" if action.mode == "RUN" and action.latency_s > 0 else "power_mode"
        self.record(now_s, node.id, kind, mode=action.mode, latency_s=action.latency_s)

    # -- event loop --

    def run(self) -> Report:
        for t, addr in self.sc.poll_schedule:
            self.push(t, "poll", addr)
        for t, node_id in self.sc.collision_injections:
            self.push(t, "injection", node_id)

        with _pool(self.threads - 1) as self.pool:
            while self.queue:
                time_s, _, kind, data = heapq.heappop(self.queue)
                if time_s > self.sc.duration_s:
                    break
                if kind == "poll":
                    self.record(time_s, "master", "poll", target=data.hex())
                    self.dispatch(time_s, self.nodes["master"], nd.PollRequest(data))
                elif kind == "tx_done":
                    self.on_air.remove(data)
                    self.dispatch(time_s, self.nodes[data.sender], nd.TxDone(data.injected))
                elif kind == "rx_complete":
                    self.receive(time_s, data)
                elif kind == "wake":
                    node, action, rest = data
                    self.set_power_mode(time_s, node, action)
                    self.run_actions(time_s, node, rest)
                elif kind == "timeout":
                    self.dispatch(time_s, self.nodes["master"], nd.Timeout(data))
                elif kind == "injection":
                    self.record(time_s, data, "injection")
                    self.dispatch(time_s, self.nodes[data], nd.Inject())

        for node in self.nodes.values():
            node.set_power_mode(self.sc.duration_s, node.power_mode)
            node.stats.energy_joules = pw.uah_to_joules(node.stats.energy_uah)
        if self.link.physical_bits:
            self.link.measured_ber = self.link.bit_errors / self.link.physical_bits
        return Report(nodes={k: v.stats for k, v in self.nodes.items()},
                      link=self.link, timeline=self.timeline)


def run_scenario(sc: Scenario) -> Report:
    """Run a scenario to its report; the run writes no file."""
    return _Sim(sc).run()


# --- pooled detection ----------------------------------------------------------

def _draw_threads() -> int:
    """Threads detecting receptions or BER chunks, the calling thread among
    them: the usable cores, at most 4, since each running job holds its own
    buffers."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return min(cores, 4)


@contextlib.contextmanager
def _pool(threads: int):
    """A pool of ``threads`` workers, or None for none; leaving it cancels
    its queued jobs and waits for its running ones."""
    pool = ThreadPoolExecutor(threads) if threads > 0 else None
    try:
        yield pool
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _in_order(pool, fn, jobs):
    """fn(job) for each job, in job order, whichever thread ran it.

    Jobs are submitted to pool at most 2 * _draw_threads(), read once per
    call, ahead of the one due.  While the due job is not done, the calling
    thread claims each queued job no worker has started, the oldest first,
    and runs it itself; with no pool, it runs each as it falls due.  A job
    that raises raises when its result is due.
    """
    if pool is None:
        yield from map(fn, jobs)
        return
    jobs, pending = iter(jobs), deque()  # [future, job] in job order
    ahead = 1 + 2 * _draw_threads()
    while True:
        for job in itertools.islice(jobs, ahead - len(pending)):
            pending.append([pool.submit(fn, job), job])
        if not pending:
            return
        for entry in pending:
            if pending[0][0].done():
                break
            if entry[0].cancel():
                entry[0] = _ran_here(fn, entry[1])
        yield pending.popleft()[0].result()


def _block_edges(n, spb, first=0):
    """Edges of n samples' blocks: _BLOCK_SAMPLES rounded down to whole symbols
    of spb samples, at least one, up to first, then one ending one block past
    first, so no block is longer than two, then whole blocks to n."""
    block = max(1, _BLOCK_SAMPLES // spb) * spb
    return [0, *range(block, first, block), *range(first + block, n, block), n]


def _demodulated(edges, skip, sigma, rng, received, cfg: md.ModemConfig, n_bits: int):
    """md.demodulate of all but the first skip samples of an array received in the
    blocks between edges: each is its noise of sigma from the Generator rng (zeros if
    sigma is 0) in one buffer, then received(noise, lo) of it, lo its first sample."""
    buffer = np.empty(max(hi - lo for lo, hi in zip(edges, edges[1:])))

    def blocks():
        for lo, hi in zip(edges, edges[1:]):
            noise = buffer[: hi - lo]
            if sigma > 0:
                ch.channel_noise(sigma, hi - lo, rng, noise)
            else:
                noise.fill(0.0)
            # A block wholly within the first skip samples comes out empty.
            yield received(noise, lo)[max(0, skip - lo):]

    return md.demodulate(blocks(), cfg, n_bits)


def _ran_here(fn, job) -> Future:
    """Run ``fn(job)`` on the calling thread; its result or exception in a done Future."""
    future = Future()
    try:
        future.set_result(fn(job))
    except Exception as err:
        future.set_exception(err)
    return future


# --- BER measurement ---------------------------------------------------------

def measure_ber(cfg: md.ModemConfig, ebn0_db_list, n_bits: int, seed: int,
                chunk_bits: int = 2000) -> list[tuple[float, float]]:
    """Seeded Monte Carlo bit error rate over an Eb/N0 grid in dB.

    Trials run in chunks of ``chunk_bits`` whose noise and data derive from
    (seed, grid index, chunk index), so results are reproducible for a given
    seed and ``chunk_bits``; another chunk size draws other trials.

    Each chunk is one job on up to 4 threads, the calling thread among them: it draws
    its bits, then is received as a reception is, by _demodulated, so memory does not
    grow with ``n_bits``, and with ``chunk_bits`` only by the chunk's bits and their
    symbol correlations.  The error counts are summed chunk by chunk in order, so the
    results are bitwise those of drawing, modulating and receiving each chunk in turn.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be at least 1")
    grid = list(ebn0_db_list)
    sigmas = [md.ebn0_to_noise_sigma(10 ** (ebn0_db / 10), cfg) for ebn0_db in grid]
    spb = cfg.samples_per_bit
    rows = ch.symbol_rows(md.modulate((), cfg))
    jobs = ((gi, ci, min(chunk_bits, n_bits - done))
            for gi in range(len(grid)) for ci, done in enumerate(range(0, n_bits, chunk_bits)))
    errors = [0] * len(grid)

    def chunk_errors(job):
        """One chunk's grid index and bit errors."""
        gi, ci, n = job
        rng = np.random.default_rng(np.random.SeedSequence([seed, gi, ci]))
        bits = rng.integers(0, 2, n)
        signs = md.symbol_signs(bits)

        def received(noise, lo):
            # Bitwise signal + normal(0, sigma): channel_noise draws what normal does.
            return ch.superpose([signs], [-lo], rows, noise)

        rx = _demodulated(_block_edges((n + 1) * spb, spb), 0, sigmas[gi], rng, received, cfg, n)
        return gi, int(np.count_nonzero(bits != rx))

    with _pool(_draw_threads() - 1) as pool:
        for gi, e in _in_order(pool, chunk_errors, jobs):
            errors[gi] += e
    return [(float(ebn0_db), e / n_bits) for ebn0_db, e in zip(grid, errors)]


# --- report I/O ---------------------------------------------------------------

def write_waveform_csv(signs, template: np.ndarray, sample_rate_hz: float, path) -> None:
    """Two-column (time_s, volts) dump for plotting of the waveform whose
    symbol k is ``signs[k] * template``, values in repr form, whole or not at all.

    Rows are formatted a _block_edges block of whole symbols at a time, so
    memory stays bounded for long waveforms.
    """
    spb = len(template)
    edges = _block_edges(len(signs) * spb, spb)
    with _written_whole(path, newline="") as fh:
        fh.write("time_s,volts\r\n")
        for lo, hi in zip(edges, edges[1:]):
            volts = (signs[lo // spb : hi // spb, None] * template).ravel()
            times = np.arange(lo, hi) / sample_rate_hz
            fh.writelines(map("%r,%r\r\n".__mod__, zip(times.tolist(), volts.tolist())))


@contextlib.contextmanager
def _written_whole(path, newline=None):
    """Stream into ``path`` + ".tmp", renamed onto ``path`` when the block
    completes and deleted on any exception; an error opening it names ``path``."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, "w", newline=newline)
    except OSError as err:
        err.filename = os.fspath(path)
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit_report(report: Report, fmt: str, path) -> None:
    """Write a report as JSON or CSV, whole or not at all."""
    if fmt == "json":
        with _written_whole(path) as fh:
            fh.writelines(report_json_chunks(report))
    elif fmt == "csv":
        # One table: node rows leave the link columns empty and vice versa.
        columns = ["node", *(f.name for f in fields(NodeStats)),
                   *(f.name for f in fields(LinkStats))]
        with _written_whole(path, newline="") as fh:
            writer = csv.DictWriter(fh, columns)
            writer.writeheader()
            for node_id in sorted(report.nodes):
                writer.writerow({"node": node_id, **asdict(report.nodes[node_id])})
            writer.writerow({"node": "link", **asdict(report.link)})
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def report_json_chunks(report: Report):
    """report.json's text, in chunks: keys sorted, indented, no nan or inf, newline-ended.

    The text is json.dumps(report.to_dict(), indent=2, sort_keys=True), bitwise.  The
    timeline, its last key and most of its text, is written an entry at a time by the C
    encoder, whose item separator breaks an entry's items onto the lines indent=2 puts
    them on: an entry is flat, its values numbers and strings.
    """
    summary = report.to_dict()
    timeline = summary.pop("timeline")
    yield json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)[: -len("\n}")]
    if not timeline:
        yield ',\n  "timeline": []\n}\n'
        return
    entry = json.JSONEncoder(sort_keys=True, allow_nan=False,
                             separators=(",\n      ", ": ")).encode
    yield ',\n  "timeline": ['
    for i, item in enumerate(timeline):
        yield f'{"," if i else ""}\n    {{\n      {entry(item)[1:-1]}\n    }}'
    yield "\n  ]\n}\n"


def emit_timeline(report: Report, path) -> None:
    """Write the timeline as JSON lines, whole or not at all."""
    entry = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    with _written_whole(path) as fh:
        fh.writelines(f"{entry(item)}\n" for item in report.timeline)
