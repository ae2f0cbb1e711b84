"""Deterministic discrete-event simulation of the full polling link.

Every transmission is carried at waveform level: framed, modulated,
superposed with any overlapping transmission, pushed through the coupled
channel and front end, then demodulated and decoded at every other node.
Silent intervals generate no samples, and a waveform is dropped once no
pending reception can need it, so run memory does not grow with run length.
A run is a pure function of the Scenario, seed included, so identical
scenarios produce byte-identical reports.
"""

from __future__ import annotations

import csv
import heapq
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import channel as ch
from . import frame_codec as fc
from . import modem as md
from . import nodes as nd
from . import power as pw


class ConfigInvalid(ValueError):
    """Scenario validation failure; message carries the offending field path."""


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
    slaves: tuple = ()
    poll_schedule: tuple = ()  # (time_s, Address)
    collision_injections: tuple = ()  # (time_s, node id)
    ebn0_db: float | None = 20.0  # None disables derived channel noise
    master_budget: pw.UnitBudget = pw.UnitBudget()

    def validate(self) -> None:
        if self.duration_s <= 0:
            raise ConfigInvalid("duration_s: must be positive")
        if self.ebn0_db is not None and self.channel.noise_sigma_v > 0:
            raise ConfigInvalid("channel.noise_sigma_v: only used when ebn0_db is null")
        seen = set()
        for i, spec in enumerate(self.slaves):
            if spec.address.octets in seen:
                raise ConfigInvalid(f"slaves[{i}].address: duplicate")
            seen.add(spec.address.octets)
            if spec.mode not in ("function_test", "sensor"):
                raise ConfigInvalid(f"slaves[{i}].mode: unknown mode {spec.mode!r}")
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

@dataclass
class _Transmission:
    index: int
    sender: str
    frame_bytes: bytes
    bits: list
    wave: md.Waveform
    start_s: float
    end_s: float
    pending: int  # receptions not yet complete

    def overlaps(self, other: "_Transmission") -> bool:
        return other.start_s < self.end_s and self.start_s < other.end_s


class _Node:
    """Runtime wrapper: protocol state plus power/energy bookkeeping."""

    def __init__(self, node_id, state, budget, mode):
        self.id = node_id
        self.state = state
        self.budget = budget
        self.stats = NodeStats()
        self.power_mode = mode
        self.last_change_s = 0.0
        self.trace = pw.EnergyTrace()

    def _close_record(self, now_s):
        if now_s > self.last_change_s:
            self.trace.append(self.power_mode, self.budget.gating, now_s - self.last_change_s)
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

        cmd_len = fc.HEADER_LEN + len(nd.COMMAND_PAYLOAD) + fc.TRAILER_LEN
        timeout = nd.default_master_timeout_s(cmd_len, cmd_len, sc.modem) + 2 * self.prop_delay_s
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
        # Transmissions a pending reception may still need, in index order.
        self.live: list[_Transmission] = []
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
        receivers = [node_id for node_id in self.nodes if node_id != sender]
        tx = _Transmission(self.tx_count, sender, data, bits, wave, now_s, end_s,
                           len(receivers))
        self.tx_count += 1
        self.live.append(tx)
        if self.wave_dir is not None:
            wave.to_csv(self.wave_dir / f"tx{tx.index:04d}_{sender}.csv")
        self.nodes[sender].stats.frames_sent += 1
        self.record(now_s, sender, "tx_start", frame_hex=data.hex(" "))
        self.push(end_s, "tx_done", sender)
        for node_id in receivers:
            self.push(end_s + self.prop_delay_s, "rx_complete", (tx, node_id))

    def _channel_input(self, tx: _Transmission) -> md.Waveform:
        """The sender's waveform plus overlapping portions of concurrent ones."""
        others = [o for o in self.live if o is not tx and o.overlaps(tx)]
        return ch.superpose(
            [tx.wave] + [o.wave for o in others],
            [0] + [round((o.start_s - tx.start_s) * self.fs) for o in others],
            len(tx.wave))

    def _retire(self):
        """Drop transmissions that no pending reception can still need.

        Later transmissions start no earlier than now, which is after every
        completed transmission has ended, so only a live overlapping
        transmission with receptions pending can still need its waveform.
        """
        pending = [tx for tx in self.live if tx.pending]
        self.live = [tx for tx in self.live
                     if tx.pending or any(p.overlaps(tx) for p in pending)]

    def receive(self, now_s, tx: _Transmission, receiver_id):
        node = self.nodes[receiver_id]
        at_channel = self._channel_input(tx)
        seed = self._rx_seed(tx.index, receiver_id)
        propagated = ch.propagate(at_channel, self.channel_cfg, seed)
        conditioned = ch.condition(propagated, self.sc.front_end)
        rx_wave = md.Waveform(conditioned.samples[self.delay:], self.fs)
        n_bits = 8 * len(tx.frame_bytes)
        try:
            bits = md.demodulate(rx_wave, self.sc.modem, n_bits)
        except md.InsufficientSamples:
            node.stats.decode_errors += 1
            self.record(now_s, receiver_id, "decode_error", reason="short waveform")
            return
        self.link.physical_bits += n_bits
        self.link.bit_errors += sum(a != b for a, b in zip(bits, tx.bits))
        try:
            frame = fc.decode_frame(md.bits_to_bytes(bits))
        except fc.CodecError as err:
            node.stats.decode_errors += 1
            self.record(now_s, receiver_id, "decode_error", reason=err.kind.value)
            return
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
                self.dispatch(time_s, self.nodes[data], nd.TxDone())
            elif kind == "rx_complete":
                tx, receiver_id = data
                self.receive(time_s, tx, receiver_id)
                tx.pending -= 1
                if not tx.pending:
                    self._retire()
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

def measure_ber(cfg: md.ModemConfig, ebn0_db_list, n_bits: int, seed: int,
                chunk_bits: int = 2000) -> list[tuple[float, float]]:
    """Seeded Monte Carlo bit error rate over an Eb/N0 grid in dB.

    Trials run in chunks of ``chunk_bits`` whose noise and data derive from
    (seed, grid index, chunk index), so results are reproducible for a given
    seed and ``chunk_bits``; another chunk size draws other trials.
    """
    results = []
    for gi, ebn0_db in enumerate(ebn0_db_list):
        ebn0 = 10 ** (ebn0_db / 10)
        sigma = md.ebn0_to_noise_sigma(ebn0, cfg)
        errors = 0
        done = 0
        ci = 0
        while done < n_bits:
            n = min(chunk_bits, n_bits - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, gi, ci]))
            bits = rng.integers(0, 2, n).tolist()
            wave = md.modulate(bits, cfg)
            noisy = md.Waveform(wave.samples + rng.normal(0.0, sigma, len(wave)),
                                wave.sample_rate_hz)
            out = md.demodulate(noisy, cfg, n)
            errors += sum(a != b for a, b in zip(bits, out))
            done += n
            ci += 1
        results.append((float(ebn0_db), errors / n_bits))
    return results


# --- report I/O ---------------------------------------------------------------

class IoFailure(OSError):
    pass


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
