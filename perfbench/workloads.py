"""Seeded workload generator and output checks for the icsim benchmark.

Inputs are built from the seed alone, with the standard library only, so the
same seed gives byte-identical inputs whatever the simulator's own defaults
are.  Every physical parameter the simulator would otherwise default is
written out, and poll timing comes from this file's constants, not from
icsim helpers that a later change may redefine.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("poll-115k", "poll-4800-collide", "ber-sweep")

CARRIER_HZ = 1.67e6
SAMPLES_PER_CYCLE = 16
AMPLITUDE_V = 12.0
FRAME_BYTES = 12  # 8-byte header, 2-byte payload, 2 check bytes
WAKE_S = 7.8e-6  # STOP1 wake latency
SLAVES = 5
EBN0_DB = 20.0

POLLS = {"poll-115k": 500, "poll-4800-collide": 20}
RATES = {"poll-115k": 115200, "poll-4800-collide": 4800}
COLLIDED_SHARE = {"poll-115k": 0.0, "poll-4800-collide": 0.25}

BER_RATE = 115200
BER_GRID_DB = (5.0, 7.0, 9.0)
BER_CHUNK_BITS = 2000
# Bits per grid point give this many expected errors, so the +-20% band of
# acceptance criterion 4 spans 4.5 standard deviations of the error count
# and a correct modem leaves it with odds of about 1e-5 per point.  The 9 dB
# point then takes most of a run, which fills most of one --seconds window.
BER_EXPECTED_ERRORS = 500
BER_TOLERANCE = 0.20


def frame_airtime_s(bit_rate_bps: int) -> float:
    cycles_per_bit = max(1, round(CARRIER_HZ / bit_rate_bps))
    return (8 * FRAME_BYTES + 1) * cycles_per_bit / CARRIER_HZ


def poll_spacing_s(bit_rate_bps: int) -> float:
    """One command/reply exchange with wake latency, four times over."""
    return 4.0 * (2 * frame_airtime_s(bit_rate_bps) + WAKE_S) + 1e-4


def theoretical_ber(ebn0_db: float) -> float:
    return 0.5 * math.exp(-(10 ** (ebn0_db / 10)))


def generate(name: str, seed: int) -> dict:
    """The inputs of one workload: what icsim receives plus expected outcomes."""
    if name == "ber-sweep":
        return _ber_inputs(seed)
    if name in POLLS:
        return _poll_inputs(name, seed)
    raise ValueError(f"unknown workload {name!r}")


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _modem(bit_rate_bps: int) -> dict:
    return {"carrier_hz": CARRIER_HZ, "samples_per_cycle": SAMPLES_PER_CYCLE,
            "bit_rate_bps": bit_rate_bps, "amplitude_v": AMPLITUDE_V}


def _poll_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}/{seed}")
    rate = RATES[name]
    addresses: list[bytes] = []
    while len(addresses) < SLAVES:
        addr = rng.randbytes(6)
        if any(addr) and addr not in addresses:
            addresses.append(addr)
    # Tenths of a degree in [0, 100): the only range encode_temperature accepts.
    tenths = [rng.randrange(1000) for _ in range(SLAVES)]
    order = list(range(SLAVES))
    rng.shuffle(order)

    n_polls = POLLS[name]
    collided = set(rng.sample(range(n_polls), round(COLLIDED_SHARE[name] * n_polls)))
    spacing = poll_spacing_s(rate)
    airtime = frame_airtime_s(rate)
    schedule, injections, expected = [], [], []
    for k in range(n_polls):
        t = (k + 1) * spacing
        target = order[k % SLAVES]
        schedule.append([t, addresses[target].hex()])
        if k in collided:
            # Another slave starts a full frame halfway through the command,
            # so the target hears a garbled command and never answers.
            sender = rng.choice([i for i in range(SLAVES) if i != target])
            injections.append([t + rng.uniform(0.4, 0.6) * airtime, f"slave{sender + 1}"])
            expected.append(None)
        else:
            expected.append(f"{tenths[target] // 10:02x} {tenths[target] % 10:02x}")

    scenario = {
        "duration_s": (n_polls + 1) * spacing,
        "seed": rng.randrange(2**31),
        "modem": _modem(rate),
        "channel": {"turns": 4, "cable_length_m": 700.0},
        "front_end": {"center_hz": CARRIER_HZ, "passband_gain": 3.0, "quality_factor": 1.0},
        "ebn0_db": EBN0_DB,
        "slaves": [{"address": a.hex(), "mode": "sensor", "temperature_c": t / 10}
                   for a, t in zip(addresses, tenths)],
        "poll_schedule": schedule,
        "collision_injections": injections,
    }
    return {"scenario": scenario, "expected": expected}


def _ber_inputs(seed: int) -> dict:
    rng = random.Random(f"ber-sweep/{seed}")
    points = []
    for ebn0_db in BER_GRID_DB:
        bits = BER_EXPECTED_ERRORS / theoretical_ber(ebn0_db)
        n_bits = math.ceil(bits / BER_CHUNK_BITS) * BER_CHUNK_BITS
        points.append({"ebn0_db": ebn0_db, "n_bits": n_bits, "seed": rng.randrange(2**31)})
    return {"modem": _modem(BER_RATE), "chunk_bits": BER_CHUNK_BITS, "points": points}


# --- checks -----------------------------------------------------------------

def poll_outcomes(timeline: list) -> list:
    """Each poll's outcome in order: the reported payload hex, or None on timeout."""
    outcomes = []
    for entry in timeline:
        if entry["node"] != "master":
            continue
        if entry["kind"] == "report":
            outcomes.append(entry["payload_hex"])
        elif entry["kind"] == "report_timeout":
            outcomes.append(None)
    return outcomes


def check_poll_report(inputs: dict, report: dict, timeline_lines: int,
                      csv_rows: int) -> tuple[int, list]:
    """Failed poll count, plus invariant violations of the written report."""
    sc, expected = inputs["scenario"], inputs["expected"]
    problems = []
    outcomes = poll_outcomes(report["timeline"])
    if len(outcomes) != len(expected):
        problems.append(f"{len(outcomes)} poll outcomes for {len(expected)} polls")
    failed = sum(got != want for got, want in zip(outcomes, expected))
    failed += abs(len(expected) - len(outcomes))

    nodes, link = report["nodes"], report["link"]
    if set(nodes) != {"master"} | {f"slave{i + 1}" for i in range(len(sc["slaves"]))}:
        problems.append(f"unexpected node set {sorted(nodes)}")
    replies = sum(o is not None for o in outcomes)
    if nodes["master"]["frames_sent"] != len(expected):
        problems.append("master frames_sent differs from the poll count")
    if nodes["master"]["timeouts"] != len(outcomes) - replies:
        problems.append("master timeouts differ from timed-out polls")
    # A collided command may still reach its target, whose reply then dies
    # in the injection: at most one extra frame per collided poll.
    frames = sum(n["frames_sent"] for n in nodes.values())
    injections = len(sc["collision_injections"])
    least = len(expected) + replies + injections
    if not least <= frames <= least + injections:
        problems.append(f"{frames} frames sent, expected {least} to {least + injections}")
    # Every frame reaches every other node and each reception is demodulated.
    receivers = len(nodes) - 1
    if link["physical_bits"] != frames * receivers * 8 * FRAME_BYTES:
        problems.append(f"physical_bits {link['physical_bits']} != {frames} frames x "
                        f"{receivers} receivers x {8 * FRAME_BYTES} bits")
    if not all(n["energy_uah"] > 0 for n in nodes.values()):
        problems.append("a node reports no energy use")
    if timeline_lines != len(report["timeline"]):
        problems.append("timeline.jsonl line count differs from report.json")
    if csv_rows != len(nodes) + 2:
        problems.append(f"report.csv has {csv_rows} rows, expected {len(nodes) + 2}")
    return failed, problems


def check_ber(inputs: dict, results: list) -> tuple[int, list, float]:
    """Failed grid points, invariant violations, and the largest relative error."""
    points = inputs["points"]
    problems = []
    if len(results) != len(points):
        problems.append(f"{len(results)} BER results for {len(points)} grid points")
    failed, worst = 0, 0.0
    for point, (ebn0_db, ber) in zip(points, results):
        if ebn0_db != point["ebn0_db"]:
            problems.append(f"result for {ebn0_db} dB where {point['ebn0_db']} dB was asked")
        errors = ber * point["n_bits"]
        if not 0.0 <= ber <= 1.0 or abs(errors - round(errors)) > 1e-6:
            problems.append(f"BER {ber!r} is not an error count over {point['n_bits']} bits")
        theory = theoretical_ber(point["ebn0_db"])
        rel = abs(ber - theory) / theory
        worst = max(worst, rel)
        failed += rel > BER_TOLERANCE
    return failed, problems, worst
