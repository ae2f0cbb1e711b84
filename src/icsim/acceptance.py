"""Self-contained acceptance checks for the whole simulator.

Each criterion is a function returning (passed, detail).  Expected values
that need an independent oracle (byte-fold checksums, the closed-form DPSK
error rate) are recomputed here rather than taken from the modules under
test.  The CLI ``validate`` subcommand and the acceptance test module both
run this list.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import replace

import numpy as np

from . import channel as ch
from . import frame_codec as fc
from . import harness as hs
from . import modem as md
from . import nodes as nd
from . import power as pw
from . import scenarios as scn


def _random_frame(rng: random.Random, max_payload: int = 255) -> fc.Frame:
    payload = bytes(rng.randrange(256) for _ in range(rng.randrange(max_payload + 1)))
    addr = fc.Address(bytes(rng.randrange(256) for _ in range(6)))
    return fc.Frame(rng.randrange(256), addr, payload)


def criterion_1_codec_roundtrip():
    """1000 random frames round-trip; every single-byte corruption is caught."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        frame = _random_frame(rng)
        if fc.decode_frame(fc.encode_frame(frame)) != frame:
            return False, "round trip mismatch"
    for _ in range(100):
        frame = _random_frame(rng, max_payload=64)
        encoded = fc.encode_frame(frame)
        for pos in range(len(encoded)):
            original = encoded[pos]
            corrupt = bytearray(encoded)
            for value in range(256):
                if value == original:
                    continue
                corrupt[pos] = value
                try:
                    decoded = fc.decode_frame(bytes(corrupt))
                except fc.CodecError:
                    continue
                if decoded != frame:
                    return False, f"silent corruption at byte {pos} value {value:#x}"
                return False, f"undetected corruption at byte {pos} value {value:#x}"
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        return False, f"runtime {elapsed:.2f}s exceeds 5s"
    return True, f"1000 round trips + exhaustive corruption sweep in {elapsed:.2f}s"


def criterion_2_checksum_vector():
    """The worked frame validates; trailers recomputed by a byte-fold oracle."""
    span = bytes([0x01, 0x64, 0x49, 0x46, 0x68, 0x00, 0x53, 0x02, 0x12, 0x34])
    total, xor = 0, 0
    for b in span:  # independent brute-force fold
        total = (total + b) % 256
        xor ^= b
    if (total, xor) != (0xF7, 0x75):
        return False, f"oracle disagrees with stated trailers: {total:#x} {xor:#x}"
    wire = span + bytes([total, xor])
    frame = fc.decode_frame(wire)
    if fc.encode_frame(frame) != wire:
        return False, "worked frame does not re-encode to the same bytes"
    if fc.compute_checks(span) != (0xF7, 0x75):
        return False, "compute_checks disagrees with the fold oracle"
    return True, "frame 01 64 49 46 68 00 53 02 12 34 f7 75 validates"


def _tail_amplitude(samples: np.ndarray) -> float:
    tail = samples[3 * len(samples) // 4 :]
    return float(np.max(np.abs(tail)))


def criterion_3_channel_calibration():
    """12 V tone at 4 turns: 0.392 V pre-front-end, 1.176 V after gain 3."""
    cfg, channel = md.ModemConfig(), ch.ChannelConfig(turns=4)
    # The 12 V carrier is 29 all-+1 symbols, 406 cycles, received after the delay.
    symbols = np.ones(29, dtype=np.int64)
    delay = ch.delay_samples(channel, cfg.sample_rate_hz)
    out = np.zeros(delay + len(symbols) * cfg.samples_per_bit)
    ch.propagate([symbols], [0], md.modulate((), cfg), channel, cfg.sample_rate_hz, out)
    raw = _tail_amplitude(out)
    if abs(raw - 0.392) > 0.005 * 0.392:
        return False, f"pre-front-end amplitude {raw:.5f} V not 0.392 V +-0.5%"
    amplified = _tail_amplitude(ch.condition(out, ch.FrontEndConfig(), cfg.sample_rate_hz))
    if abs(amplified - 1.176) > 0.02 * 1.176:
        return False, f"post-front-end amplitude {amplified:.5f} V not 1.176 V +-2%"
    return True, f"raw {raw:.4f} V, conditioned {amplified:.4f} V"


def criterion_4_modem_fidelity():
    """Noiseless round trips at all rates; BER matches 0.5*exp(-Eb/N0)."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    for rate in md.SUPPORTED_BIT_RATES:
        cfg = md.ModemConfig(bit_rate_bps=rate)
        remaining = 10_000
        while remaining:
            n = min(1000, remaining)
            bits = [rng.randrange(2) for _ in range(n)]
            if md.demodulate(md.modulate(bits, cfg), cfg, n).tolist() != bits:
                return False, f"noiseless round trip failed at {rate} bps"
            remaining -= n
    cfg = md.ModemConfig(bit_rate_bps=115200)
    for ebn0_db, measured in hs.measure_ber(cfg, [5.0, 7.0, 9.0], 100_000, seed=1):
        expected = 0.5 * math.exp(-(10 ** (ebn0_db / 10)))  # closed-form oracle
        if abs(measured - expected) > 0.20 * expected:
            return False, (f"BER {measured:.3e} at {ebn0_db} dB outside "
                           f"+-20% of {expected:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        return False, f"runtime {elapsed:.1f}s exceeds 60s"
    return True, f"round trips exact, Monte Carlo within +-20% in {elapsed:.1f}s"


def _reported_payloads(report: hs.Report) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for entry in report.timeline:
        if entry["kind"] == "report":
            out.setdefault(entry["target"], []).append(entry["payload_hex"])
    return out


def criterion_5_single_point():
    """Command 12 34 answered by 00 ff with zero errors at both rates."""
    for rate in (9600, 115200):
        report = hs.run_scenario(scn.single_point_scenario(bit_rate_bps=rate))
        errors = sum(s.decode_errors + s.timeouts for s in report.nodes.values())
        if errors:
            return False, f"{errors} decode errors/timeouts at {rate} bps"
        payloads = _reported_payloads(report)
        got = payloads.get(scn.SINGLE_POINT_ADDRESS.hex(), [])
        if got != ["00 ff"]:
            return False, f"reply payloads {got} at {rate} bps, expected ['00 ff']"
    return True, "reply 00 ff, zero errors at 9600 and 115200"


def _multi_point_run() -> hs.Report:
    return hs.run_scenario(scn.multi_point_scenario(polls_per_slave=100))


# Criterion 6 reads the first run; criterion 11 compares it with a second.
_first_multi_point_run = functools.cache(_multi_point_run)


def criterion_6_multi_point():
    """Five slaves, 700 m, 100 polls each: zero errors, correct temperatures."""
    report = _first_multi_point_run()
    errors = sum(s.decode_errors for s in report.nodes.values())
    timeouts = sum(s.timeouts for s in report.nodes.values())
    if errors or timeouts:
        return False, f"{errors} decode errors, {timeouts} timeouts"
    payloads = _reported_payloads(report)
    expectations = {
        scn.MULTI_POINT_ADDRESSES[0].hex(): "13 07",  # 19.7 C
        scn.MULTI_POINT_ADDRESSES[1].hex(): "18 08",  # 24.8 C
    }
    for addr, expected in expectations.items():
        got = set(payloads.get(addr, []))
        if got != {expected}:
            return False, f"slave {addr} replied {sorted(got)}, expected {expected}"
        if len(payloads[addr]) != 100:
            return False, f"slave {addr} answered {len(payloads[addr])}/100 polls"
    return True, "500 polls, zero errors, temperatures 13 07 and 18 08"


def criterion_7_address_isolation():
    """A poll to an absent address leaves every slave untouched."""
    absent = fc.Address(bytes([0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF]))
    base = scn.multi_point_scenario(polls_per_slave=1)
    sc = replace(base, poll_schedule=((base.poll_schedule[0][0], absent),),
                 duration_s=base.poll_schedule[0][0] * 3)
    sim = hs._Sim(sc)
    report = sim.run()
    for node_id, node in sim.nodes.items():
        if node_id == "master":
            continue
        if node.state.phase != "STANDBY" or node.power_mode != "STOP1":
            return False, f"{node_id} left standby"
        modes = [e["mode"] for e in report.timeline if e["node"] == node_id and "mode" in e]
        if modes:
            return False, f"{node_id} changed power mode: {modes}"
        if report.nodes[node_id].frames_received or report.nodes[node_id].decode_errors:
            return False, f"{node_id} accepted or failed a frame"
    # The same claim directly on the state machine.
    state = nd.SlaveState(address=scn.MULTI_POINT_ADDRESSES[0])
    frame = fc.Frame(1, absent, nd.COMMAND_PAYLOAD)
    after, actions = nd.slave_step(state, nd.FrameReceived(frame))
    if after != state or actions:
        return False, "slave_step reacted to a non-matching frame"
    if report.nodes["master"].timeouts != 1:
        return False, "master did not time out on the unanswered poll"
    return True, "all five slaves stayed in STOP1 standby"


def criterion_8_power_budget():
    """Standby budget: 660 uA all units on, 530 uA with the carrier gated off."""
    budget = pw.UnitBudget()
    total = pw.standby_current(budget)
    if total != 660.0:
        return False, f"standby current {total} uA, expected 660"
    gated = pw.standby_current(budget.with_gating(set(pw.UNIT_NAMES) - {"carrier"}))
    if gated != 530.0:
        return False, f"carrier-gated current {gated} uA, expected 530"
    return True, "660 uA all on, 530 uA carrier off"


def criterion_9_energy_accounting():
    """1 h STOP1 MCU-only = 566 uAh; concatenation is additive."""
    budget = pw.UnitBudget(gating=frozenset())
    uah = pw.charge_consumed("STOP1", 3600.0, budget)
    if abs(uah - 566.0) > 1e-9 * 566.0:
        return False, f"STOP1 hour yields {uah} uAh, expected 566"
    a = pw.charge_consumed("RUN", 3600.0, budget) + pw.charge_consumed("RUN", 3600.0, budget)
    b = pw.charge_consumed("RUN", 7200.0, budget)
    if abs(a - b) > 1e-9 * b or abs(a - 24000.0) > 1e-9 * 24000.0:
        return False, f"additivity violated: {a} vs {b} uAh"
    return True, "566 uAh STOP1 hour; concatenation additive"


def criterion_10_wake_latency():
    """Timeline shows exactly 7.8 us from decode completion to wake."""
    report = hs.run_scenario(scn.single_point_scenario())
    decoded = [e for e in report.timeline if e["kind"] == "frame_decoded" and e["node"] == "slave1"]
    woke = [e for e in report.timeline if e["kind"] == "wake" and e["node"] == "slave1"]
    if not decoded or not woke:
        return False, "missing decode or wake timeline entries"
    gap = woke[0]["time_s"] - decoded[0]["time_s"]
    if abs(gap - 7.8e-6) > 1e-12:
        return False, f"wake gap {gap:.3e}s, expected 7.8e-6"
    return True, f"wake gap {gap * 1e6:.4f} us"


def criterion_11_determinism():
    """A second run of the multi-point scenario is byte-identical."""
    first = "".join(hs.report_json_chunks(_first_multi_point_run()))
    second = "".join(hs.report_json_chunks(_multi_point_run()))
    if first != second:
        return False, "report.json differs between runs"
    return True, f"two runs byte-identical ({len(second.encode())} bytes)"


CRITERIA = [
    (1, "frame codec round trip and corruption detection", criterion_1_codec_roundtrip),
    (2, "checksum vectors against fold oracle", criterion_2_checksum_vector),
    (3, "channel calibration at 4 turns", criterion_3_channel_calibration),
    (4, "modem fidelity and Monte Carlo BER", criterion_4_modem_fidelity),
    (5, "single-point exchange at 9600 and 115200", criterion_5_single_point),
    (6, "multi-point, five slaves, 100 polls each", criterion_6_multi_point),
    (7, "non-matching address isolation", criterion_7_address_isolation),
    (8, "standby power budget", criterion_8_power_budget),
    (9, "energy accounting", criterion_9_energy_accounting),
    (10, "wake latency in the timeline", criterion_10_wake_latency),
    (11, "byte-identical determinism", criterion_11_determinism),
]


def run_all(echo=print) -> bool:
    ok = True
    for number, name, fn in CRITERIA:
        passed, detail = fn()
        ok &= passed
        echo(f"{'PASS' if passed else 'FAIL'} criterion {number}: {name} -- {detail}")
    return ok
