"""Schema-driven fuzzing: random scenarios, typed as the scenario loader reads them, run whole.

The strategies are built from the same dataclass annotations that
``scenarios._convert`` reads, so they follow the schema as it changes.  Each
value is the field's default, a value near it, or an in-type extreme.  Half
of these schema draws keep only the fields that set what is on air at once,
with ``modem.amplitude_v`` up to 8 decades below float64's largest value over
that count.  A second strategy draws valid scenarios whose injections are
timed inside an exchange: the command, the polled slave's wake, its reply or
after it.  A third sweeps ``modem.amplitude_v`` over the 13 decades below
float64's largest value, at every rate, with injections during the last
poll's exchange, so that many draws meet a Scenario's overflow bound.  Every
draw must be rejected as ConfigInvalid when it is built, or run, with no
warning, to a sound Report, whose energy is charge_consumed over its
timeline's stretches.
A draw that runs gives the same ``report.json`` bytes on 1 and on 4 threads.
"""

import dataclasses
import json
import math
import sys
import tempfile
import types
import typing
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icsim import channel as ch
from icsim import frame_codec as fc
from icsim import harness as hs
from icsim import modem as md
from icsim import power as pw
from icsim import scenarios as scn
from power_timeline import charge_of_stretches, power_stretches

EXTREME_FLOATS = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e308, -1e308,
                                  sys.float_info.max / 2, sys.float_info.max / 3])
EXTREME_INTS = st.sampled_from([-1, 0, 1, 2**64])
# Values drawn for a path in place of its type's strategy: small runs, and
# strings, addresses and node ids that can name something in the scenario.
ADDRESSES = [a.hex() for a in scn.MULTI_POINT_ADDRESSES[:3]]
OVERRIDES = {
    "duration_s": st.floats(1e-4, 0.02) | EXTREME_FLOATS,
    "poll_schedule[][0]": st.floats(0.0, 0.02) | EXTREME_FLOATS,
    "collision_injections[][0]": st.floats(0.0, 0.02) | EXTREME_FLOATS,
    "collision_injections[][1]": st.sampled_from(["master", "slave1", "slave2", "slave3", "x"]),
    "slaves[].mode": st.sampled_from(["function_test", "sensor", "relay"]),
    "slaves[].budget.gating[]": st.sampled_from([*pw.UNIT_NAMES, "x"]),
    "modem.bit_rate_bps": st.sampled_from([4800, 9600, 115200]) | EXTREME_INTS,
    "channel.interference[][0]": st.floats(0.0, 1e7) | EXTREME_FLOATS,
    "channel.interference[][1]": st.floats(0.0, 1.0) | EXTREME_FLOATS,
}
MAX_ITEMS = {"slaves": 3, "poll_schedule": 4, "collision_injections": 3,
             "channel.interference": 2}
# Receptions longer than this, past a 4800 bps frame, are skipped before the
# run: they only cost time.
MAX_RUN_SAMPLES = 1 << 20


def near(default):
    """The default, a value within a factor of 4 of it, or an extreme of its type."""
    if type(default) is float:
        lo, hi = (default / 4, default * 4) if default > 0 else (0.0, 10.0)
        return st.just(default) | st.floats(lo, hi) | EXTREME_FLOATS
    if type(default) is int:
        return st.just(default) | st.integers(max(0, default // 4), 4 * default + 4) | EXTREME_INTS
    return st.just(default)


def typed(tp, path, default=dataclasses.MISSING):
    """Decoded JSON that ``scenarios._convert(tp, ..., path)`` reads."""
    if path in OVERRIDES:
        return OVERRIDES[path]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        (tp,) = [a for a in args if a is not type(None)]
        return st.none() | typed(tp, path, default)
    if tp is fc.Address:
        return st.sampled_from(ADDRESSES)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        prefix = f"{path}." if path else ""
        keys = {f.name: typed(hints[f.name], prefix + f.name, f.default)
                for f in dataclasses.fields(tp)}
        required = [f.name for f in dataclasses.fields(tp) if f.default is dataclasses.MISSING]
        return st.fixed_dictionaries({k: keys.pop(k) for k in required}, optional=keys)
    if origin in (tuple, frozenset):
        if origin is frozenset or args[-1] is Ellipsis:
            return st.lists(typed(args[0], f"{path}[]"), max_size=MAX_ITEMS.get(path, 3))
        return st.tuples(*(typed(a, f"{path}[{i}]") for i, a in enumerate(args))).map(list)
    if default is not dataclasses.MISSING:
        return near(default)
    return {float: st.floats(0.0, 10.0) | EXTREME_FLOATS, int: EXTREME_INTS,
            str: st.text(max_size=3)}[tp]


def near_on_air_overflow(d):
    """d, or the draw of d's on-air fields alone, with no noise and modem.amplitude_v
    up to 8 decades below float64's max over k transmissions on air, for k up
    to d's on-air count: one per node, plus one per injection.  Those decades
    span a Scenario's overflow bound at every rate.

    The on-air fields are the ones that set which transmissions overlap and
    what they sum to: the schedules, the slaves' addresses, the bit rate and
    the tones.  Each other field left at its default keeps the draw valid.
    """
    on_air = 1 + len(d.get("slaves", [])) + len(d.get("collision_injections", []))
    # f in [0.5, 1] sets the decades below: 10 ** (16 * (f - 1)) spans 8 of them.
    amplitude = st.builds(lambda k, f: sys.float_info.max / k * 10 ** (16 * (f - 1)),
                          st.integers(1, on_air), st.floats(0.5, 1.0))
    on_air_fields = {k: d[k] for k in ("duration_s", "poll_schedule", "collision_injections")
                     if k in d}
    on_air_fields.update(
        ebn0_db=None, slaves=[{"address": slave["address"]} for slave in d.get("slaves", [])],
        channel={"interference": d.get("channel", {}).get("interference", [])})
    modem = {k: v for k, v in d.get("modem", {}).items() if k == "bit_rate_bps"}
    return st.just(d) | amplitude.map(
        lambda a: {**on_air_fields, "modem": {**modem, "amplitude_v": a}})


@st.composite
def injections_in_exchanges(draw):
    """A valid scenario of 1-3 slaves and 1-3 polls, noiseless or not, with
    1-3 injections, each timed inside one span of a poll's exchange: the
    command until the slave has it, the slave's wake, its reply, or the
    reply's airtime after it.  Each goes to the polled slave or any node."""
    n_slaves = draw(st.integers(1, 3))
    modem = md.ModemConfig(bit_rate_bps=115200)
    channel = ch.ChannelConfig(cable_length_m=draw(st.sampled_from([0.0, 2.0, 700.0])))
    spacing = scn.poll_spacing_s(modem)
    polls = [((i + 1) * spacing, draw(st.integers(1, n_slaves)))
             for i in range(draw(st.integers(1, 3)))]
    airtime = md.frame_airtime_s(hs.FRAME_LEN, modem)
    heard = airtime + ch.delay_samples(channel, modem.sample_rate_hz) / modem.sample_rate_hz
    replied = heard + pw.MODE_TABLE["STOP1"].wakeup_time_s
    spans = [(0.0, heard), (heard, replied), (replied, replied + airtime),
             (replied + airtime, replied + 2 * airtime)]
    injections = []
    for _ in range(draw(st.integers(1, 3))):
        t, slave = draw(st.sampled_from(polls))
        lo, hi = draw(st.sampled_from(spans))
        node = draw(st.sampled_from([slave, 0, *range(1, n_slaves + 1)]))
        injections.append([t + lo + draw(st.floats(0.0, 1.0, exclude_max=True)) * (hi - lo),
                           f"slave{node}" if node else "master"])
    return {"duration_s": (len(polls) + 1) * spacing, "seed": draw(st.integers(0, 2**32)),
            "modem": {"bit_rate_bps": modem.bit_rate_bps},
            "channel": {"cable_length_m": channel.cable_length_m},
            "slaves": [{"address": a} for a in ADDRESSES[:n_slaves]],
            "poll_schedule": [[t, ADDRESSES[slave - 1]] for t, slave in polls],
            "collision_injections": injections,
            "ebn0_db": draw(st.none() | st.floats(5.0, 30.0))}


@st.composite
def loud_late_injections(draw):
    """A noiseless scenario at any rate, of 1-3 slaves and 1-3 polls, with
    modem.amplitude_v log-uniform from 1e295 to float64's largest value, so
    many draws lie near a Scenario's overflow bound, and 1-3 injections from
    any node, each while the last poll's command or its reply is on air."""
    modem = md.ModemConfig(bit_rate_bps=draw(st.sampled_from(md.SUPPORTED_BIT_RATES)))
    n_slaves = draw(st.integers(1, 3))
    spacing = scn.poll_spacing_s(modem)
    polls = [[(i + 1) * spacing, draw(st.sampled_from(ADDRESSES[:n_slaves]))]
             for i in range(draw(st.integers(1, 3)))]
    airtime = md.frame_airtime_s(hs.FRAME_LEN, modem)
    exchange_s = 2 * airtime + pw.MODE_TABLE["STOP1"].wakeup_time_s
    nodes = st.sampled_from(["master", *(f"slave{i + 1}" for i in range(n_slaves))])
    injections = [[polls[-1][0] + draw(st.floats(0.0, 1.0)) * exchange_s, draw(nodes)]
                  for _ in range(draw(st.integers(1, 3)))]
    decades = draw(st.floats(math.log10(1e295 / sys.float_info.max), 0.0))
    return {"duration_s": polls[-1][0] + spacing, "ebn0_db": None,
            "modem": {"bit_rate_bps": modem.bit_rate_bps,
                      "amplitude_v": sys.float_info.max * 10 ** decades},
            "slaves": [{"address": a} for a in ADDRESSES[:n_slaves]],
            "poll_schedule": polls, "collision_injections": injections}


SCHEMA_DICTS = typed(hs.Scenario, "").flatmap(near_on_air_overflow)
SCENARIO_DICTS = SCHEMA_DICTS | injections_in_exchanges() | loud_late_injections()


def assert_replies_in_run(report, sc):
    """Each slave's reply lies, from its tx_start for its airtime or to the
    run's end, inside one RUN stretch of the slave.  A reply is a tx_start
    with no injection entry of the slave at the same time."""
    airtime = md.frame_airtime_s(hs.FRAME_LEN, sc.modem)
    for node in (f"slave{i + 1}" for i in range(len(sc.slaves))):
        runs = [(lo, hi) for lo, hi, mode in power_stretches(report, sc, node) if mode == "RUN"]
        entries = [e for e in report.timeline if e["node"] == node]
        injected = {e["time_s"] for e in entries if e["kind"] == "injection"}
        for e in entries:
            if e["kind"] == "tx_start" and e["time_s"] not in injected:
                t, end = e["time_s"], min(e["time_s"] + airtime, sc.duration_s)
                assert any(lo <= t and end <= hi for lo, hi in runs), (node, t)


def check_scenario(d):
    """d is ConfigInvalid when built, or runs with no warning to a sound report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sim = hs._Sim(scn.scenario_from_dict(d))
        except hs.ConfigInvalid:
            return None
        assume(sim.edges[-1] <= MAX_RUN_SAMPLES)
        report = sim.run()
    sc = sim.sc
    assert 0 <= report.link.measured_ber <= 1
    for node_id, stats in report.nodes.items():
        assert math.isfinite(stats.energy_uah) and stats.energy_uah >= 0
        assert math.isfinite(stats.energy_joules) and stats.energy_joules >= 0
        assert (stats.energy_uah, stats.energy_joules) == charge_of_stretches(report, sc, node_id)
    times = [entry["time_s"] for entry in report.timeline]
    assert times == sorted(times) and all(t <= sc.duration_s for t in times)
    assert_replies_in_run(report, sc)
    sent = sum(stats.frames_sent for stats in report.nodes.values())
    for stats in report.nodes.values():
        assert stats.frames_received <= sent - stats.frames_sent
    json.dumps(report.to_dict(), allow_nan=False)
    return report


def report_json(report):
    """The bytes emit_report writes as report.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        hs.emit_report(report, "json", path)
        return path.read_bytes()


class TestScenarioFuzz:
    @given(SCENARIO_DICTS)
    @settings(max_examples=250)
    def test_a_scenario_is_config_invalid_or_runs_to_a_sound_report(self, d):
        report = check_scenario(d)
        if report is None:
            return
        # Detection threads change who runs each detector, never the report.
        sc, expected = scn.scenario_from_dict(d), report_json(report)
        for threads in (1, 4):
            with mock.patch.object(hs, "_draw_threads", lambda: threads):
                assert report_json(hs.run_scenario(sc)) == expected

    def test_a_frame_injected_mid_reply_leaves_the_reply_in_run(self):
        # slave1 is injected 1 us after the command ends, so its injected
        # frame ends while its reply is still on air.
        sc = scn.single_point_scenario(ebn0_db=None)
        command_end_s = sc.poll_schedule[0][0] + md.frame_airtime_s(hs.FRAME_LEN, sc.modem)
        sc = dataclasses.replace(sc, channel=ch.ChannelConfig(cable_length_m=700.0),
                                 collision_injections=((command_end_s + 1e-6, "slave1"),))
        report = hs.run_scenario(sc)
        assert_replies_in_run(report, sc)

    def test_the_strategy_reaches_every_field(self):
        """Every field of the schema can be drawn, and some draws run."""
        seen, ran = set(), []

        def paths(value, path=""):
            if isinstance(value, dict):
                for key, item in value.items():
                    seen.add(f"{path}.{key}" if path else key)
                    paths(item, f"{path}.{key}" if path else key)
            elif isinstance(value, list):
                for item in value:
                    paths(item, f"{path}[]")

        @given(SCHEMA_DICTS)
        @settings(max_examples=150)
        def collect(d):
            paths(d)
            if check_scenario(d) is not None:
                ran.append(d)

        collect()
        assert ran
        for tp, prefix in ((hs.Scenario, ""), (md.ModemConfig, "modem."),
                           (ch.ChannelConfig, "channel."), (ch.FrontEndConfig, "front_end."),
                           (hs.SlaveSpec, "slaves[]."), (pw.UnitBudget, "master_budget."),
                           (pw.UnitBudget, "slaves[].budget.")):
            for f in dataclasses.fields(tp):
                assert prefix + f.name in seen
