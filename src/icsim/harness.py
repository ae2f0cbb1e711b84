"""Deterministic discrete-event simulation of the full polling link.

Every transmission is carried at waveform level: framed, modulated,
superposed with every transmission that overlaps it, pushed through the
coupled channel and front end, then demodulated and decoded at every other
node.  Silent intervals generate no samples, and a waveform is held only
while its transmission or one overlapping it is on air or awaiting
reception, so run memory does not grow with run length.
A run is a pure function of the Scenario, seed included, so identical
scenarios produce byte-identical reports.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import channel as ch
from . import frame_codec as fc
from . import modem as md
from . import nodes as nd
from . import power as pw


class ConfigInvalid(ValueError):
    """Scenario validation failure; message carries the offending field path."""


# A reception is held in memory whole, as float64 samples: 2**24 is 128 MiB,
# 31 times a 4800 bps frame at the default 16 samples per cycle.
MAX_RECEPTION_SAMPLES = 2**24
# Bytes in every frame sent: commands and replies both carry two payload bytes.
FRAME_LEN = fc.HEADER_LEN + len(nd.COMMAND_PAYLOAD) + fc.TRAILER_LEN


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

    def validate(self) -> None:
        if not self.duration_s > 0:
            raise ConfigInvalid("duration_s: must be positive")
        if self.seed < 0:
            raise ConfigInvalid("seed: must be nonnegative")
        if self.ebn0_db is not None:
            check_ebn0_db(self.ebn0_db, "ebn0_db")
            try:
                derived_noise_sigma(self)
            except ValueError as err:
                raise ConfigInvalid(f"ebn0_db: at the receiver, {err}") from err
        if self.ebn0_db is not None and self.channel.noise_sigma_v > 0:
            raise ConfigInvalid("channel.noise_sigma_v: only used when ebn0_db is null")
        if not self.front_end.center_hz < self.modem.sample_rate_hz / 2:
            raise ConfigInvalid("front_end.center_hz: must be below half the sample rate")
        frame_samples = (8 * FRAME_LEN + 1) * self.modem.samples_per_bit
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
    """Channel noise std dev giving the scenario's Eb/N0 at the receive coil."""
    if sc.ebn0_db is None:
        return sc.channel.noise_sigma_v
    rx_amplitude = sc.modem.amplitude_v * ch.channel_gain(sc.channel)
    return md.ebn0_to_noise_sigma(10 ** (sc.ebn0_db / 10),
                                  replace(sc.modem, amplitude_v=rx_amplitude))


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

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(
            nodes={k: NodeStats(**v) for k, v in d["nodes"].items()},
            link=LinkStats(**d["link"]),
            timeline=list(d["timeline"]),
        )


# --- simulation internals ---------------------------------------------------

@dataclass(eq=False)
class _Transmission:
    index: int
    sender: str
    frame_bytes: bytes
    bits: np.ndarray
    wave: np.ndarray
    start_s: float
    end_s: float
    # (sample offset from start_s, waveform) of each overlapping transmission,
    # in index order.
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
        self.trace: list[pw.TraceRecord] = []

    def _close_record(self, now_s):
        if now_s > self.last_change_s:
            self.trace.append(pw.TraceRecord(self.power_mode, now_s - self.last_change_s))
            self.last_change_s = now_s

    def set_power_mode(self, now_s, mode):
        self._close_record(now_s)
        self.power_mode = mode

    def finish(self, end_s):
        self._close_record(end_s)


class _Sim:
    def __init__(self, sc: Scenario, wave_dir: Path | None = None):
        sc.validate()
        self.sc = sc
        self.wave_dir = wave_dir
        self.channel_cfg = replace(sc.channel, noise_sigma_v=derived_noise_sigma(sc))
        self.fs = sc.modem.sample_rate_hz
        self.delay = ch.delay_samples(self.channel_cfg, self.fs)
        self.prop_delay_s = self.delay / self.fs

        timeout = nd.default_master_timeout_s(FRAME_LEN, FRAME_LEN, sc.modem) + 2 * self.prop_delay_s
        self.nodes: dict[str, _Node] = {
            "master": _Node("master", nd.MasterState(timeout_s=timeout),
                            sc.master_budget, "RUN")
        }
        for i, spec in enumerate(sc.slaves):
            state = nd.SlaveState(address=spec.address, mode=spec.mode,
                                  temperature_c=spec.temperature_c)
            self.nodes[f"slave{i + 1}"] = _Node(f"slave{i + 1}", state, spec.budget, "STOP1")

        self.queue: list = []
        self.seq = 0
        self.tx_count = 0
        # Transmissions whose tx_done has not run, in index order.  A reply
        # starts a wake latency after it is scheduled, so a transmission
        # scheduled later may start earlier: only tx_done retires one.
        self.on_air: list[_Transmission] = []
        self.timeline: list = []
        self.link = LinkStats(nominal_bps=float(sc.modem.bit_rate_bps),
                              effective_bps=sc.modem.effective_bit_rate_bps)
        self.master_poll_gen = 0

    # -- plumbing --

    def push(self, time_s, kind, data):
        heapq.heappush(self.queue, (time_s, self.seq, kind, data))
        self.seq += 1

    def record(self, time_s, node, kind, **detail):
        entry = {"time_s": time_s, "node": node, "kind": kind}
        entry.update(detail)
        self.timeline.append(entry)

    def _rx_seed(self, tx_index, receiver) -> int:
        key = [self.sc.seed, tx_index, *receiver.encode()]
        return int(np.random.SeedSequence(key).generate_state(1)[0])

    # -- transmissions --

    def start_transmission(self, now_s, sender, frame: fc.Frame):
        data = fc.encode_frame(frame)
        bits = md.bytes_to_bits(data)
        wave = md.modulate(bits, self.sc.modem)
        end_s = now_s + md.frame_airtime_s(len(data), self.sc.modem)
        tx = _Transmission(self.tx_count, sender, data, bits, wave, now_s, end_s)
        self.tx_count += 1
        for o in self.on_air:
            if o.start_s < end_s and now_s < o.end_s:
                tx.overlapping.append((round((o.start_s - now_s) * self.fs), o.wave))
                o.overlapping.append((round((now_s - o.start_s) * self.fs), wave))
        self.on_air.append(tx)
        if self.wave_dir is not None:
            write_waveform_csv(wave, self.fs, self.wave_dir / f"tx{tx.index:04d}_{sender}.csv")
        self.nodes[sender].stats.frames_sent += 1
        self.record(now_s, sender, "tx_start", frame_hex=data.hex(" "))
        self.push(end_s, "tx_done", tx)
        self.push(end_s + self.prop_delay_s, "rx_complete", tx)

    def receive(self, now_s, tx: _Transmission):
        """Demodulate and decode a transmission at every node but its sender."""
        offsets, waves = zip((0, tx.wave), *tx.overlapping)
        at_channel = ch.superpose(waves, offsets, len(tx.wave))
        n_bits = 8 * len(tx.frame_bytes)
        for node in self.nodes.values():
            if node.id == tx.sender:
                continue
            seed = self._rx_seed(tx.index, node.id)
            propagated = ch.propagate(at_channel, self.channel_cfg, self.fs, seed)
            conditioned = ch.condition(propagated, self.sc.front_end, self.fs)
            bits = md.demodulate(conditioned[self.delay:], self.sc.modem, n_bits)
            self.link.physical_bits += n_bits
            self.link.bit_errors += int(np.count_nonzero(bits != tx.bits))
            try:
                frame = fc.decode_frame(md.bits_to_bytes(bits))
            except fc.CodecError as err:
                node.stats.decode_errors += 1
                self.record(now_s, node.id, "decode_error", reason=err.kind.value)
                continue
            self.deliver(now_s, node, frame)

    # -- protocol glue --

    def deliver(self, now_s, node: _Node, frame: fc.Frame):
        if node.id == "master":
            state = node.state
            matched = (state.phase == "AWAIT_REPLY"
                       and fc.address_matches(frame.address, state.pending_target))
        else:
            matched = fc.address_matches(frame.address, node.state.address)
        if not matched:
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
        t = now_s
        for action in actions:
            if isinstance(action, nd.SetPowerMode):
                t = now_s + action.latency_s
                if t > self.sc.duration_s:
                    return  # this action and the ones after it fall after the run
                node.set_power_mode(t, action.mode)
                kind = "wake" if action.mode == "RUN" and action.latency_s > 0 else "power_mode"
                self.record(t, node.id, kind, mode=action.mode, latency_s=action.latency_s)
            elif isinstance(action, nd.TransmitFrame):
                self.start_transmission(t, node.id, action.frame)
            elif isinstance(action, nd.StartTimer):
                self.push(t + action.timeout_s, "timeout", self.master_poll_gen)
            elif isinstance(action, nd.Report):
                if action.payload is None:
                    node.stats.timeouts += 1
                    self.record(t, node.id, "report_timeout", target=action.target.hex())
                else:
                    self.record(t, node.id, "report", target=action.target.hex(),
                                payload_hex=action.payload.hex(" "))
                self.master_poll_gen += 1
            elif isinstance(action, nd.Log):
                self.record(t, node.id, "log", message=action.message)

    # -- event loop --

    def run(self) -> Report:
        for t, addr in self.sc.poll_schedule:
            self.push(t, "poll", addr)
        for t, node_id in self.sc.collision_injections:
            self.push(t, "injection", node_id)

        while self.queue:
            time_s, _, kind, data = heapq.heappop(self.queue)
            if time_s > self.sc.duration_s:
                break
            if kind == "poll":
                self.record(time_s, "master", "poll", target=data.hex())
                self.dispatch(time_s, self.nodes["master"], nd.PollRequest(data))
            elif kind == "tx_done":
                self.on_air.remove(data)
                self.dispatch(time_s, self.nodes[data.sender], nd.TxDone())
            elif kind == "rx_complete":
                self.receive(time_s, data)
            elif kind == "timeout":
                if data == self.master_poll_gen:
                    self.record(time_s, "master", "timeout")
                    self.dispatch(time_s, self.nodes["master"], nd.Timeout())
            elif kind == "injection":
                node = self.nodes[data]
                if data == "master":
                    frame = fc.Frame(nd.REPLY_RELAY_DEPTH,
                                     fc.Address(bytes(6)), nd.COMMAND_PAYLOAD)
                else:
                    frame = fc.Frame(nd.REPLY_RELAY_DEPTH, node.state.address,
                                     nd.slave_reply_payload(node.state))
                self.record(time_s, data, "injection")
                self.start_transmission(time_s, data, frame)

        for node in self.nodes.values():
            node.finish(self.sc.duration_s)
            uah, joules = pw.charge_consumed(node.trace, node.budget,
                                             pw.STANDBY_BUDGET_MODES)
            node.stats.energy_uah = uah
            node.stats.energy_joules = joules
        if self.link.physical_bits:
            self.link.measured_ber = self.link.bit_errors / self.link.physical_bits
        self.timeline.sort(key=lambda e: e["time_s"])
        return Report(nodes={k: v.stats for k, v in self.nodes.items()},
                      link=self.link, timeline=self.timeline)


def run_scenario(sc: Scenario) -> Report:
    return _Sim(sc).run()


def run_and_dump_waveforms(sc: Scenario, out_dir) -> Report:
    """Run a scenario, writing each transmitted waveform as it starts.

    Transmission ``index`` from node ``sender`` goes to
    ``out_dir/tx{index:04d}_{sender}.csv`` as two columns, time_s and volts.
    """
    return _Sim(sc, Path(out_dir)).run()


# --- BER measurement ---------------------------------------------------------

def _draw_threads() -> int:
    """Threads drawing measure_ber's noise: the usable cores, at most 4.

    The main thread's serial share, about a quarter of a chunk's CPU, caps
    the speed-up near 4x, so more threads would only hold more buffers.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return min(cores, 4)


def _chunk_draws(seed: int, gi: int, ci: int, n: int, noise: np.ndarray,
                 sigma: float) -> np.ndarray:
    """Draw one chunk's n data bits, returned, and its noise, written into noise.

    numpy releases the interpreter lock while it fills and scales noise, so
    chunks draw in parallel on worker threads.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, gi, ci]))
    bits = rng.integers(0, 2, n)
    rng.standard_normal(out=noise)
    noise *= sigma
    return bits


def measure_ber(cfg: md.ModemConfig, ebn0_db_list, n_bits: int, seed: int,
                chunk_bits: int = 2000) -> list[tuple[float, float]]:
    """Seeded Monte Carlo bit error rate over an Eb/N0 grid in dB.

    Trials run in chunks of ``chunk_bits`` whose noise and data derive from
    (seed, grid index, chunk index), so results are reproducible for a given
    seed and ``chunk_bits``; another chunk size draws other trials.

    Noise is drawn on up to 4 threads into ``threads + 1`` reused chunk
    buffers, so memory does not grow with ``n_bits``.  Modulation and
    detection stay on the calling thread, chunk by chunk in order, and the
    results are bitwise those of drawing and receiving each chunk in turn.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be at least 1")
    grid = list(ebn0_db_list)
    sigmas = [md.ebn0_to_noise_sigma(10 ** (ebn0_db / 10), cfg) for ebn0_db in grid]
    spb = cfg.samples_per_bit
    threads = _draw_threads()
    # One buffer per drawing thread and one for the chunk being received; a
    # buffer is drawn into again only after its chunk has been received.
    ring = [np.empty((min(chunk_bits, n_bits) + 1) * spb) for _ in range(threads + 1)]
    buffers = itertools.cycle(ring)
    pending = deque()
    errors = [0] * len(grid)

    def receive_oldest():
        gi, n, noise, drawn = pending.popleft()
        bits = drawn.result()
        # sigma * standard_normal is what normal(0, sigma) draws, and addition
        # commutes, so this is signal + normal(0, sigma) bit for bit.
        noise += md.modulate(bits, cfg)
        out = md.demodulate(noise, cfg, n)
        errors[gi] += int(np.count_nonzero(bits != out))

    with ThreadPoolExecutor(threads) as pool:
        for gi, sigma in enumerate(sigmas):
            for ci, done in enumerate(range(0, n_bits, chunk_bits)):
                if len(pending) == len(ring):
                    receive_oldest()
                n = min(chunk_bits, n_bits - done)
                noise = next(buffers)[:(n + 1) * spb]
                pending.append((gi, n, noise,
                                pool.submit(_chunk_draws, seed, gi, ci, n, noise, sigma)))
        while pending:
            receive_oldest()
    return [(float(ebn0_db), e / n_bits) for ebn0_db, e in zip(grid, errors)]


# --- report I/O ---------------------------------------------------------------

class IoFailure(OSError):
    pass


_CSV_BLOCK_ROWS = 1 << 16


def write_waveform_csv(samples: np.ndarray, sample_rate_hz: float, path) -> None:
    """Two-column (time_s, volts) dump for plotting, values in repr form.

    Rows are formatted a block at a time, so memory stays bounded for long
    waveforms.
    """
    with open(path, "w", newline="") as fh:
        fh.write("time_s,volts\r\n")
        for lo in range(0, len(samples), _CSV_BLOCK_ROWS):
            volts = samples[lo : lo + _CSV_BLOCK_ROWS]
            times = np.arange(lo, lo + len(volts)) / sample_rate_hz
            fh.writelines(map("%r,%r\r\n".__mod__, zip(times.tolist(), volts.tolist())))


def emit_report(report: Report, fmt: str, path) -> None:
    """Write a report as JSON or CSV; the timeline goes to a .jsonl sibling."""
    try:
        if fmt == "json":
            with open(path, "w") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif fmt == "csv":
            # One table: node rows leave the link columns empty and vice versa.
            columns = ["node", *(f.name for f in fields(NodeStats)),
                       *(f.name for f in fields(LinkStats))]
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, columns)
                writer.writeheader()
                for node_id in sorted(report.nodes):
                    writer.writerow({"node": node_id, **asdict(report.nodes[node_id])})
                writer.writerow({"node": "link", **asdict(report.link)})
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    except OSError as err:
        raise IoFailure(str(err)) from err


def emit_timeline(report: Report, path) -> None:
    try:
        with open(path, "w") as fh:
            for entry in report.timeline:
                fh.write(json.dumps(entry, sort_keys=True))
                fh.write("\n")
    except OSError as err:
        raise IoFailure(str(err)) from err
