import collections
import copy
import csv
import json
import math
import re
import sys
import threading
import time
import tracemalloc
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, is_dataclass, replace
from functools import reduce
from operator import getitem
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim import channel as ch
from icsim import frame_codec as fc
from icsim import harness as hs
from icsim import modem as md
from icsim import power as pw
from icsim import scenarios as scn
from icsim.cli import main
import reference_receiver
from power_timeline import charge_of_stretches, power_stretches


@pytest.fixture(scope="module")
def single_point_report():
    return hs.run_scenario(scn.single_point_scenario())


@pytest.fixture(scope="module")
def multi_point_small():
    return scn.multi_point_scenario(polls_per_slave=2)


def reported_payloads(report):
    return [e["payload_hex"] for e in report.timeline if e["kind"] == "report"]


class TestRunScenario:
    def test_single_point_exchange(self, single_point_report):
        report = single_point_report
        assert report.nodes["master"].frames_received == 1
        assert report.nodes["slave1"].frames_received == 1
        assert all(s.decode_errors == 0 and s.timeouts == 0 for s in report.nodes.values())
        assert reported_payloads(report) == ["00 ff"]

    def test_empty_schedule_leaves_slaves_asleep(self):
        sc = replace(scn.multi_point_scenario(polls_per_slave=1),
                     poll_schedule=(), duration_s=1.0)
        sim = hs._Sim(sc)
        report = sim.run()
        for node_id, node in sim.nodes.items():
            modes = {mode for _, _, mode in power_stretches(report, sc, node_id)}
            if node_id == "master":
                assert modes == {"RUN"}
                continue
            assert node.state.phase == "STANDBY"
            assert modes == {"STOP1"}
        assert report.link.physical_bits == 0

    def test_multi_point_correct_temperatures(self, multi_point_small):
        report = hs.run_scenario(multi_point_small)
        assert sum(s.decode_errors for s in report.nodes.values()) == 0
        assert sum(s.timeouts for s in report.nodes.values()) == 0
        payloads = set(reported_payloads(report))
        assert "13 07" in payloads  # 19.7 C
        assert "18 08" in payloads  # 24.8 C

    @pytest.mark.parametrize("bit_rate_bps", [9600, 115200])
    @pytest.mark.parametrize("quality_factor", [0.3, 1.0, 20.0])
    @pytest.mark.parametrize("cable_length_m", [0.0, 700.0, 10_000.0])
    @pytest.mark.parametrize("turns", [2, 4, 8])
    def test_noiseless_link_is_error_free(self, turns, cable_length_m, quality_factor,
                                          bit_rate_bps):
        # Pins the delay slice, the reception length and the front-end
        # transient against symbol timing across the link's physical range.
        sc = scn.single_point_scenario(bit_rate_bps=bit_rate_bps, ebn0_db=None)
        sc = replace(sc, channel=ch.ChannelConfig(turns=turns, cable_length_m=cable_length_m),
                     front_end=replace(sc.front_end, quality_factor=quality_factor))
        report = hs.run_scenario(sc)
        assert all(s.decode_errors == 0 and s.timeouts == 0 for s in report.nodes.values())
        assert report.link.physical_bits > 0 and report.link.bit_errors == 0
        assert reported_payloads(report) == ["00 ff"]

    def test_invalid_scenario_reports_field_path(self):
        sc = scn.multi_point_scenario(polls_per_slave=1)
        with pytest.raises(hs.ConfigInvalid, match=r"slaves\[1\].address"):
            replace(sc, slaves=(sc.slaves[0], sc.slaves[0]))


class TestDeterminism:
    def test_byte_identical_reports(self, multi_point_small):
        a = hs.run_scenario(multi_point_small)
        b = hs.run_scenario(multi_point_small)
        dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)
        assert dump(a) == dump(b)

    def test_seed_changes_noise_but_not_outcome_counting(self, multi_point_small):
        a = hs.run_scenario(multi_point_small)
        b = hs.run_scenario(replace(multi_point_small, seed=99))
        assert a.link.physical_bits == b.link.physical_bits


class TestAmplitudeScaling:
    # A power-of-two amplitude scale with Eb/N0 fixed scales every sample, the
    # noise sigma and every detection statistic exactly, so nothing reported
    # may change: this guards the symbol template and the bit path against a
    # silent reordering of their floating-point operations.
    @pytest.mark.parametrize("make_scenario", [
        lambda: scn.single_point_scenario(bit_rate_bps=9600, ebn0_db=4.0),
        lambda: scn.multi_point_scenario(polls_per_slave=4, ebn0_db=4.0),
    ], ids=["single_point_9600", "multi_point_4"])
    @pytest.mark.parametrize("amplitude_v", [6.0, 24.0, 48.0, 3 * 2**-10, 3 * 2**-566])
    def test_report_is_byte_identical(self, make_scenario, amplitude_v):
        sc = make_scenario()
        assert sc.modem.amplitude_v == 12.0
        ref = hs.run_scenario(sc)
        scaled = hs.run_scenario(replace(sc, modem=replace(sc.modem, amplitude_v=amplitude_v)))
        assert ref.link.bit_errors > 0
        dump = lambda r: json.dumps(r.to_dict(), indent=2, sort_keys=True)
        assert dump(scaled) == dump(ref)


def absolute_noise(sc, interference=()):
    """sc with its derived noise sigma given as channel.noise_sigma_v instead."""
    channel = replace(sc.channel, noise_sigma_v=hs.derived_noise_sigma(sc),
                      interference=interference)
    return replace(sc, ebn0_db=None, channel=channel)


class TestPassbandGainScaling:
    # A gain other than the bench's is rejected (TestEveryKnob); the channel's is a knob.
    def test_the_channel_does_change_a_report_under_absolute_noise(self):
        # With the noise sigma fixed, fewer turns lower the received signal
        # against it, and the report changes.
        sc = absolute_noise(scn.multi_point_scenario(polls_per_slave=2, ebn0_db=6.0))
        fewer_turns = replace(sc, channel=replace(sc.channel, turns=2))
        assert hs.run_scenario(fewer_turns).link.bit_errors != hs.run_scenario(sc).link.bit_errors


def schema_leaves(tp, prefix=""):
    """Paths of tp's leaf fields, through nested config dataclasses; the
    fields of a tuple of them, such as slaves, are named "slaves[]."."""
    hints = typing.get_type_hints(tp)
    for f in fields(tp):
        hint, path = hints[f.name], prefix + f.name
        if hint is not fc.Address and is_dataclass(hint):
            yield from schema_leaves(hint, f"{path}.")
        elif typing.get_origin(hint) is tuple and is_dataclass(typing.get_args(hint)[0]):
            yield from schema_leaves(typing.get_args(hint)[0], f"{path}[].")
        else:
            yield path


def with_field(sc, path, value):
    """sc, or a config nested in it, with the field at path set to value;
    path names one item of a tuple by its index, as "slaves[0].mode"."""
    head, _, rest = path.partition(".")
    name, index = re.fullmatch(r"(\w+)(?:\[(\d+)\])?", head).groups()
    old = getattr(sc, name)
    if index is not None:
        i = int(index)
        new = (*old[:i], with_field(old[i], rest, value), *old[i + 1:])
    else:
        new = with_field(old, rest, value) if rest else value
    return replace(sc, **{name: new})


# Protocol and energy fields change the 20 dB run.  Under ebn0_db the noise
# follows the received amplitude, so the RF fields change a run only against
# an absolute noise sigma: 6 dB of it, with a tone.  A slave's mode changes
# the single-point run, whose function-test slave may turn sensor.
KNOB_BASELINES = {
    "20 dB": lambda: scn.multi_point_scenario(polls_per_slave=2),
    "absolute noise": lambda: absolute_noise(scn.multi_point_scenario(polls_per_slave=2, ebn0_db=6.0),
                                             interference=((1.6e6, 0.05),)),
    "single point": scn.single_point_scenario,
}
KNOBS = [
    ("duration_s", "20 dB", 0.1),
    ("seed", "absolute noise", 3),
    ("poll_schedule", "20 dB", ((0.001, scn.MULTI_POINT_ADDRESSES[0]),)),
    ("collision_injections", "20 dB", ((0.001, "slave1"),)),
    ("ebn0_db", "20 dB", 6.0),
    ("modem.carrier_hz", "20 dB", 1.0e6),
    ("modem.samples_per_cycle", "absolute noise", 8),
    ("modem.bit_rate_bps", "20 dB", 57600),
    ("modem.amplitude_v", "absolute noise", 6.0),
    ("channel.turns", "absolute noise", 2),
    ("channel.cable_length_m", "20 dB", 2.0),
    ("channel.attenuation_per_m", "absolute noise", 1e-3),
    ("channel.noise_sigma_v", "absolute noise", 0.05),
    ("channel.interference", "absolute noise", ((1.6e6, 0.5),)),
    ("channel.propagation_speed_mps", "20 dB", 1e8),
    ("front_end.center_hz", "absolute noise", 1.0e6),
    ("front_end.quality_factor", "absolute noise", 5.0),
    ("slaves[0].address", "20 dB", fc.Address(bytes(6))),
    ("slaves[0].mode", "single point", "sensor"),
    ("slaves[0].temperature_c", "20 dB", 30.0),
    *((f"{budget}.{unit}_ua", "20 dB", 100.0)
      for budget in ("master_budget", "slaves[0].budget") for unit in pw.UNIT_NAMES),
    ("master_budget.gating", "20 dB", frozenset({"master"})),
    ("slaves[0].budget.gating", "20 dB", frozenset({"master"})),
]


class TestEveryKnob:
    """Every scenario field can change a report, or no value but its default is accepted."""

    def test_the_table_covers_every_field(self):
        listed = [re.sub(r"\[\d+\]", "[]", path) for path, _, _ in KNOBS]
        assert sorted([*listed, "front_end.passband_gain"]) == sorted(schema_leaves(hs.Scenario))

    @pytest.mark.parametrize("path, baseline, value", KNOBS, ids=[path for path, _, _ in KNOBS])
    def test_a_field_changes_the_report(self, path, baseline, value, tmp_path):
        def report_bytes(sc):
            hs.emit_report(hs.run_scenario(sc), "json", tmp_path / "report.json")
            return (tmp_path / "report.json").read_bytes()

        sc = KNOB_BASELINES[baseline]()
        assert report_bytes(with_field(sc, path, value)) != report_bytes(sc)

    @pytest.mark.parametrize("gain", [1.0, 1.5, 6.0])
    def test_a_passband_gain_but_the_benchs_is_config_invalid(self, gain):
        # The front end scales the signal, the noise and every tone alike
        # before detection, which compares correlations only with each other.
        for make in KNOB_BASELINES.values():
            with pytest.raises(hs.ConfigInvalid, match=r"^front_end\.passband_gain: .*3\.0"):
                with_field(make(), "front_end.passband_gain", gain)
        assert ch.FrontEndConfig(passband_gain=gain).passband_gain == gain


class TestConservation:
    def test_every_transmission_accounted_for(self, multi_point_small):
        report = hs.run_scenario(multi_point_small)
        sent = sum(s.frames_sent for s in report.nodes.values())
        receivers_per_tx = len(report.nodes) - 1
        outcomes = sum(s.frames_received + s.decode_errors + s.address_filtered
                       for s in report.nodes.values())
        assert outcomes == sent * receivers_per_tx


class TestCollisions:
    def test_injection_causes_errors_or_timeouts(self):
        base = scn.multi_point_scenario(polls_per_slave=1)
        poll_t = base.poll_schedule[0][0]
        clean = hs.run_scenario(base)
        collided = hs.run_scenario(replace(
            base, collision_injections=((poll_t + 1e-4, "slave3"),)))
        def badness(report):
            return sum(s.decode_errors + s.timeouts for s in report.nodes.values())
        assert badness(collided) > badness(clean)

    def test_late_reply_still_sees_every_overlap(self, monkeypatch):
        modem = md.ModemConfig()
        fs, airtime = modem.sample_rate_hz, md.frame_airtime_s(hs.FRAME_LEN, modem)
        zeros, t0 = fc.Address(bytes(6)), 1e-3
        # The master repeats its command to slave1 190 samples late, which
        # slave1 still decodes.  slave1's reply leaves standby 7.8 us after
        # the command ends, so it is scheduled before slave2 starts, 15
        # samples after the command ends, yet starts after the repeat ends.
        # The repeat and slave2's frame overlap all the same.
        sc = hs.Scenario(
            duration_s=0.01, ebn0_db=None, channel=ch.ChannelConfig(cable_length_m=0.0),
            slaves=(hs.SlaveSpec(zeros), hs.SlaveSpec(scn.MULTI_POINT_ADDRESSES[0])),
            poll_schedule=((t0, zeros),),
            collision_injections=((t0 + 190.2 / fs, "master"),
                                  (t0 + airtime + 15.2 / fs, "slave2")))
        handed = {}  # the offsets receive hands each reception's detectors
        real = hs._Sim.detect
        def spy(sim, tx, offsets, waves, node):
            assert handed.setdefault(tx.index, list(offsets)) == list(offsets)
            return real(sim, tx, offsets, waves, node)
        monkeypatch.setattr(hs._Sim, "detect", spy)
        report = hs.run_scenario(sc)
        assert report.nodes["slave1"].frames_sent == 1
        # In order of reception: the command, its repeat, slave2's frame and
        # slave1's reply, each received with every transmission it overlaps.
        superposed = list(handed.values())
        assert [len(offsets) for offsets in superposed] == [2, 3, 3, 2]
        assert superposed[0] == [0, 190] and superposed[1][:2] == [0, -190]
        assert superposed[1][2] == -superposed[2][1]
        assert superposed[2][2] == -superposed[3][1]


class TestBoundedMemory:
    @staticmethod
    def peak_traced_bytes(sc):
        # tracemalloc also sees numpy buffers, so kept waveforms would show.
        tracemalloc.start()
        try:
            hs.run_scenario(sc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ten_times_longer_run_stays_flat(self):
        short = self.peak_traced_bytes(scn.multi_point_scenario(polls_per_slave=20))
        long = self.peak_traced_bytes(scn.multi_point_scenario(polls_per_slave=200))
        # The report's timeline grows by about 4.3 kB per poll, 3.9 MB over
        # the extra 900 polls; energy is charged as it goes and keeps no
        # trace.  A kept waveform pair costs about 350 kB per poll.
        assert long - short < 8 * 2**20

    def test_a_long_delay_costs_no_memory(self):
        # 2**20 samples of delay, 8 MiB as one array, are received in blocks
        # like the frame's; the run lasts until the master has the reply.
        sc = scn.single_point_scenario()
        fs = sc.modem.sample_rate_hz
        slow = replace(sc.channel, propagation_speed_mps=sc.channel.cable_length_m * fs / 2**20)
        far = replace(sc, channel=slow, duration_s=sc.duration_s + 2**21 / fs)
        assert hs._Sim(far).delay == 2**20
        peak = self.peak_traced_bytes(far)
        assert peak - self.peak_traced_bytes(sc) < 2 * 2**20
        assert hs.run_scenario(far).nodes["master"].frames_received == 1

    def test_completed_transmissions_are_retired(self):
        sim = hs._Sim(scn.multi_point_scenario(polls_per_slave=2))
        sim.run()
        assert sim.tx_count == 20
        assert sim.on_air == []


class TestEnergyConsistency:
    def test_report_energy_matches_charge_consumed(self):
        # Charged stretch by stretch as the run goes, bitwise the sum over
        # the stretches its timeline records.
        sc = scn.single_point_scenario()
        report = hs.run_scenario(sc)
        for node_id, stats in report.nodes.items():
            uah, joules = charge_of_stretches(report, sc, node_id)
            assert uah > 0
            assert (stats.energy_uah, stats.energy_joules) == (uah, joules)

    def test_trace_durations_cover_scenario(self):
        # The timeline's power stretches tile the run, each in order.
        sc = scn.single_point_scenario()
        report = hs.run_scenario(sc)
        for node_id in report.nodes:
            stretches = power_stretches(report, sc, node_id)
            assert stretches[0][0] == 0.0 and stretches[-1][1] == sc.duration_s
            assert all(lo <= hi for lo, hi, _ in stretches)
            assert sum(hi - lo for lo, hi, _ in stretches) == pytest.approx(sc.duration_s)

    def test_a_run_keeps_no_power_trace(self, monkeypatch):
        # Each stretch is charged on its own as it closes: one call per
        # stretch of each node, given the stretch's mode and length.
        charge, calls, types = pw.charge_consumed, collections.Counter(), set()

        def spy(mode, duration_s, *args):
            calls[sys._getframe(1).f_locals["self"].id] += 1  # the charging _Node
            types.add((type(mode), type(duration_s)))
            return charge(mode, duration_s, *args)

        monkeypatch.setattr(pw, "charge_consumed", spy)
        sc = scn.multi_point_scenario(polls_per_slave=20, ebn0_db=None)
        report = hs.run_scenario(sc)
        assert report.nodes["slave1"].frames_sent == 20
        assert calls == {node_id: len(power_stretches(report, sc, node_id))
                         for node_id in report.nodes}
        assert types == {(str, float)}

    def test_actions_past_the_end_of_the_run_are_dropped(self):
        # End the run 3 us after slave1 decodes its command: its 7.8 us wake
        # and the reply it would start then fall after the run.
        base = scn.single_point_scenario()
        decoded = next(e["time_s"] for e in hs.run_scenario(base).timeline
                       if e["kind"] == "frame_decoded" and e["node"] == "slave1")
        sc = replace(base, duration_s=decoded + 3e-6)
        report = hs.run_scenario(sc)
        assert all(e["time_s"] <= sc.duration_s for e in report.timeline)
        assert report.nodes["slave1"].frames_sent == 0
        # slave1's wake falls after the run, so it is charged at STOP1 to the end.
        assert power_stretches(report, sc, "slave1") == [(0.0, sc.duration_s, "STOP1")]
        for node_id, stats in report.nodes.items():
            assert (stats.energy_uah, stats.energy_joules) == charge_of_stretches(report, sc, node_id)

    def test_charge_follows_from_the_schedule(self):
        # Expected from the scenario alone, not from the run's timeline: the
        # master is in RUN throughout, slave1 in RUN for one reply airtime per
        # poll, and slaves never polled stay in STOP1 on their static budget.
        base = scn.single_point_scenario(ebn0_db=None)
        spacing = scn.poll_spacing_s(base.modem)
        address, *unpolled = scn.MULTI_POINT_ADDRESSES[:3]
        carrier_off = pw.UnitBudget(gating=frozenset({"signal_processing", "power_conversion",
                                                      "master"}))
        sc = replace(base, duration_s=21 * spacing,
                     slaves=(hs.SlaveSpec(address), hs.SlaveSpec(unpolled[0]),
                             hs.SlaveSpec(unpolled[1], budget=carrier_off)),
                     poll_schedule=tuple(((k + 1) * spacing, address) for k in range(20)))
        report = hs.run_scenario(sc)
        assert report.nodes["slave1"].frames_sent == report.nodes["master"].frames_received == 20
        run_ua = pw.MODE_TABLE["RUN"].mcu_current_ua
        master = (run_ua + pw.standby_current(sc.master_budget)) * sc.duration_s / 3600
        airtime = md.frame_airtime_s(hs.FRAME_LEN, sc.modem)
        slave = (run_ua * 20 * airtime
                 + pw.standby_current(sc.slaves[0].budget) * sc.duration_s) / 3600
        assert report.nodes["master"].energy_uah == pytest.approx(master, rel=1e-12)
        assert report.nodes["slave1"].energy_uah == pytest.approx(slave, rel=1e-12)
        # The paper's static figures: 660 uA standby, 530 uA with the carrier off.
        average_ua = lambda node_id: report.nodes[node_id].energy_uah * 3600 / sc.duration_s
        assert (average_ua("slave2"), average_ua("slave3")) == (660.0, 530.0)


MASTER_ONLY = pw.UnitBudget(gating=frozenset({"master"}))


class TestGating:
    """A slave's budget gating holds for the whole run and sets its static draw."""

    def test_gated_slaves_report_less_energy(self, multi_point_small):
        all_on = hs.run_scenario(multi_point_small)
        gated_sc = replace(multi_point_small, slaves=tuple(
            replace(spec, budget=MASTER_ONLY) for spec in multi_point_small.slaves))
        gated = hs.run_scenario(gated_sc)
        for node_id, stats in gated.nodes.items():
            if node_id == "master":
                assert stats == all_on.nodes[node_id]
                continue
            assert stats.energy_uah < all_on.nodes[node_id].energy_uah
            assert (stats.energy_uah, stats.energy_joules) == charge_of_stretches(
                gated, gated_sc, node_id)

    def test_gating_from_scenario_file(self):
        d = {
            "duration_s": 0.05,
            "slaves": [{"address": "64 49 46 68 00 53"},
                       {"address": "89 47 46 68 00 53", "budget": {"gating": ["master"]}}],
            "poll_schedule": [[0.01, "64 49 46 68 00 53"], [0.02, "89 47 46 68 00 53"]],
        }
        sc = scn.scenario_from_dict(d)
        assert sc.slaves[1].budget.gating == frozenset({"master"})
        report = hs.run_scenario(sc)
        assert report.nodes["slave1"].frames_sent == report.nodes["slave2"].frames_sent == 1
        # Same timing, so the gap is the three gated units' 610 uA over the run.
        gap = report.nodes["slave1"].energy_uah - report.nodes["slave2"].energy_uah
        assert gap == pytest.approx(610.0 * 0.05 / 3600.0)


class TestDerivedNoiseSigma:
    def test_follows_the_received_amplitude(self):
        sc = replace(scn.single_point_scenario(ebn0_db=12.0),
                     channel=ch.ChannelConfig(turns=2, cable_length_m=300.0,
                                              attenuation_per_m=0.002))
        rx_amplitude = sc.modem.amplitude_v * ch.channel_gain(sc.channel)
        rx_modem = replace(sc.modem, amplitude_v=rx_amplitude)
        assert hs.derived_noise_sigma(sc) == md.ebn0_to_noise_sigma(10 ** 1.2, rx_modem)
        assert hs.derived_noise_sigma(sc) < md.ebn0_to_noise_sigma(10 ** 1.2, sc.modem) / 30

    def test_null_ebn0_uses_the_channel_sigma(self):
        sc = replace(scn.single_point_scenario(ebn0_db=None),
                     channel=ch.ChannelConfig(noise_sigma_v=0.03))
        assert hs.derived_noise_sigma(sc) == 0.03

    # A 0 V received signal: set directly, or by exp(-2.0 * 700) underflowing.
    @pytest.mark.parametrize("key, value", [("modem", {"amplitude_v": 0}),
                                            ("channel", {"attenuation_per_m": 2.0})],
                             ids=["amplitude", "attenuation"])
    def test_zero_received_amplitude_with_ebn0_is_config_invalid(self, key, value):
        d = dict(VALID_FILE, **{key: value})
        with pytest.raises(hs.ConfigInvalid, match="ebn0_db: .*amplitude 0.0 V must be positive"):
            scn.scenario_from_dict(d)
        # Without a requested Eb/N0 the silent link is a valid scenario.
        assert scn.scenario_from_dict(dict(d, ebn0_db=None)).ebn0_db is None


def _serial_measure_ber(cfg, ebn0_db_list, n_bits, seed, chunk_bits=2000):
    """The serial sweep measure_ber must reproduce bit for bit: each chunk's
    bits and noise drawn, modulated, received and counted in turn."""
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
            bits = rng.integers(0, 2, n)
            wave = md.modulate(bits, cfg)
            out = md.demodulate(wave + rng.normal(0.0, sigma, len(wave)), cfg, n)
            errors += int(np.count_nonzero(bits != out))
            done += n
            ci += 1
        results.append((float(ebn0_db), errors / n_bits))
    return results


class TestMeasureBer:
    def test_deterministic(self):
        cfg = md.ModemConfig()
        a = hs.measure_ber(cfg, [6.0], 20_000, seed=5)
        b = hs.measure_ber(cfg, [6.0], 20_000, seed=5)
        assert a == b

    def test_pinned_results(self):
        # Recorded values: the serial reference shares modulate and
        # demodulate with measure_ber, so only literals catch a change that
        # flips decisions.
        assert hs.measure_ber(md.ModemConfig(), [3.0, 6.0], 20_000, seed=5) == [
            (3.0, 0.06625), (6.0, 0.01155)]
        assert hs.measure_ber(md.ModemConfig(bit_rate_bps=4800), [2.0], 2_000, seed=3,
                              chunk_bits=700) == [(2.0, 0.0995)]

    def test_high_snr_is_error_free(self):
        cfg = md.ModemConfig()
        (_, ber), = hs.measure_ber(cfg, [30.0], 20_000, seed=5)
        assert ber == 0.0

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError, match="amplitude 0.0 V must be positive"):
            hs.measure_ber(md.ModemConfig(amplitude_v=0.0), [6.0], 1000, seed=5)

    @pytest.mark.parametrize("n_bits, chunk_bits, name",
                             [(0, 2000, "n_bits"), (1000, 0, "chunk_bits")],
                             ids=["n_bits", "chunk_bits"])
    def test_rejects_zero_bits(self, n_bits, chunk_bits, name):
        with pytest.raises(ValueError, match=name):
            hs.measure_ber(md.ModemConfig(), [6.0], n_bits, seed=5, chunk_bits=chunk_bits)

    # A single bit, one whole chunk, a short last chunk, and more chunks than
    # there are noise buffers.
    @pytest.mark.parametrize("n_bits, chunk_bits", [(1, 2000), (2000, 2000), (4001, 2000),
                                                    (9000, 700)])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_equals_the_serial_sweep(self, n_bits, chunk_bits, seed):
        cfg, grid = md.ModemConfig(), [3.0, 6.0, 9.0]
        ref = _serial_measure_ber(cfg, grid, n_bits, seed, chunk_bits)
        assert hs.measure_ber(cfg, grid, n_bits, seed, chunk_bits) == ref
        # The longer cases count errors at 3 dB, so equality is not vacuous.
        assert n_bits < 4001 or ref[0][1] > 0

    def test_equals_the_serial_sweep_at_4800_bps(self):
        cfg = md.ModemConfig(bit_rate_bps=4800)
        ref = _serial_measure_ber(cfg, [2.0, 4.0], 250, seed=3, chunk_bits=100)
        assert hs.measure_ber(cfg, [2.0, 4.0], 250, seed=3, chunk_bits=100) == ref
        assert ref[0][1] > 0

    def test_memory_does_not_grow_with_the_bit_count(self, monkeypatch):
        cfg = md.ModemConfig()
        assert cfg.samples_per_bit == 224
        block_bytes = hs._BLOCK_SAMPLES // 224 * 224 * 8

        def peak_traced_bytes(threads, n_bits, chunk_bits):
            monkeypatch.setattr(hs, "_draw_threads", lambda: threads)
            tracemalloc.start()
            try:
                hs.measure_ber(cfg, [6.0], n_bits, seed=5, chunk_bits=chunk_bits)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # On one thread the peak is one chunk job's, the same in every run.
        # On two it is two jobs' only when their peaks meet, which a short
        # run may never see, so growth is checked on one.
        short = peak_traced_bytes(1, 20_000, 2000)
        assert abs(peak_traced_bytes(1, 80_000, 2000) - short) <= 0.1 * short
        # Each of the two running chunk jobs holds a block of noise and a
        # block-sized group of symbols to add to it, whatever the chunk's
        # length; only its bits and per-symbol correlations grow with it,
        # about 1.5 MB for 20000 bits.  Whole chunks of noise would be 36 MB each.
        short, long = peak_traced_bytes(2, 20_000, 2000), peak_traced_bytes(2, 80_000, 2000)
        assert max(short, long) <= 2 * 3 * block_bytes
        assert peak_traced_bytes(2, 80_000, 20_000) - long <= 4 * block_bytes


class TestMeasureBerThreads:
    """Each chunk is one job on the pool: its draws, superpose and demodulate."""

    CFG = md.ModemConfig()

    def test_more_threads_than_cores_equal_the_serial_sweep(self, monkeypatch):
        monkeypatch.setattr(hs, "_draw_threads", lambda: 8)
        grid = [3.0, 6.0, 9.0]
        ref = _serial_measure_ber(self.CFG, grid, 60_000, seed=13)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = hs.measure_ber(self.CFG, grid, 60_000, seed=13)
        finally:
            sys.setswitchinterval(interval)
        assert got == ref

    @pytest.mark.parametrize("threads", [2, 0])
    def test_each_chunk_is_one_job_on_the_pool(self, threads, monkeypatch):
        monkeypatch.setattr(hs, "_draw_threads", lambda: threads)
        calls = {}
        for module, name in ((ch, "channel_noise"), (ch, "superpose"), (md, "demodulate")):
            def record(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.setdefault(threading.current_thread(), []).append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        hs.measure_ber(self.CFG, [3.0, 6.0], 9000, seed=5, chunk_bits=700)
        # 26 chunks of 701 symbols, each drawn and superposed in 3 blocks
        # inside its demodulate, on one thread: a worker or the calling one,
        # which with no pool runs them all.
        chunk = ["demodulate", *["channel_noise", "superpose"] * 3]
        assert sum(len(names) for names in calls.values()) == 26 * len(chunk)
        assert all(names == chunk * (len(names) // len(chunk)) for names in calls.values())
        assert len(calls) <= max(threads, 1)
        assert threads > 1 or list(calls) == [threading.main_thread()]

    def test_a_failed_chunk_raises_and_shuts_the_pool_down(self, monkeypatch):
        monkeypatch.setattr(hs, "_draw_threads", lambda: 2)
        calls = []
        real = md.demodulate

        def fail_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third chunk")
            return real(*args, **kwargs)

        monkeypatch.setattr(md, "demodulate", fail_third)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="third chunk"):
            hs.measure_ber(self.CFG, [6.0], 40_000, seed=5)
        # At most twice the threads' count of the 20 chunks are submitted
        # past the one due; the queued ones are cancelled.
        assert 3 <= len(calls) <= 3 + 2 * 2
        assert threading.active_count() == threads_before


def collided_4800_scenario() -> hs.Scenario:
    """Two polls of five slaves at 4800 bps, slave3 cutting into the first
    command halfway.  At 6 dB about one bit in a hundred is wrong, so a noise
    buffer overwritten before its reception ends would change the report."""
    base = scn.multi_point_scenario(polls_per_slave=1, bit_rate_bps=4800, ebn0_db=6.0)
    half_command = md.frame_airtime_s(hs.FRAME_LEN, base.modem) / 2
    return replace(base, poll_schedule=base.poll_schedule[:2],
                   collision_injections=((base.poll_schedule[0][0] + half_command, "slave3"),))


class TestInOrder:
    """While the due job is not done, the calling thread runs the queued
    jobs no worker has started itself, and results come in job order."""

    def run(self, monkeypatch, fail=None, block_first=True):
        """Consume _in_order over 8 jobs on a pool of one worker, which is
        held until the main thread has run job 2, or for 10 s.

        With block_first the worker is held in job 0; otherwise in a job
        submitted before _in_order's, with job 0 queued behind it.  Records
        the thread of each job, the results yielded, and the most jobs
        submitted past the one due.
        """
        monkeypatch.setattr(hs, "_draw_threads", lambda: 2)
        started, release = threading.Event(), threading.Event()
        self.runners, self.yielded, self.ahead = {}, [], 0

        def hold():
            started.set()
            release.wait()

        def job(n):
            self.runners[n] = threading.current_thread()
            if n == 0 and block_first:
                hold()
            if n == 2 and self.runners[n] is threading.main_thread():
                release.set()
            if n == fail:
                raise RuntimeError(f"job {n}")
            return n

        pool = ThreadPoolExecutor(1)
        submit, submitted = pool.submit, []

        def submit_once_held(fn, *args):
            future = submit(fn, *args)
            submitted.append(args)
            assert started.wait(10)
            return future

        pool.submit = submit_once_held
        timer = threading.Timer(10.0, release.set)
        timer.start()
        try:
            with pool:
                if not block_first:
                    submit(hold)
                for n in hs._in_order(pool, job, range(8)):
                    self.ahead = max(self.ahead, len(submitted) - n - 1)
                    self.yielded.append(n)
        finally:
            timer.cancel()
            timer.join()

    def test_the_caller_runs_queued_jobs(self, monkeypatch):
        self.run(monkeypatch)
        assert self.yielded == list(range(8))
        main = threading.main_thread()
        assert self.runners[0] is not main
        assert self.runners[1] is main and self.runners[2] is main
        assert self.ahead == 2 * 2

    def test_the_caller_runs_an_unstarted_oldest_job(self, monkeypatch):
        self.run(monkeypatch, block_first=False)
        assert self.yielded == list(range(8))
        assert all(self.runners[n] is threading.main_thread() for n in range(3))

    def test_a_claimed_job_that_raises_raises_in_job_order(self, monkeypatch):
        threads_before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="job 2"):
            self.run(monkeypatch, fail=2)
        assert self.runners[2] is threading.main_thread()
        assert self.yielded == [0, 1]
        assert set(threading.enumerate()) == threads_before

    @given(st.data())
    @settings(max_examples=100)
    def test_any_jobs_on_any_pool_come_in_job_order(self, data):
        sleeps = data.draw(st.lists(st.floats(0.0, 2e-3), max_size=40), label="sleeps")
        fail = data.draw(st.none() | st.integers(0, len(sleeps) - 1) if sleeps else st.none(),
                         label="fail")
        workers = data.draw(st.integers(0, 3), label="workers")

        def fn(j):
            time.sleep(sleeps[j])
            if j == fail:
                raise RuntimeError(f"job {j}")
            return -j

        threads_before = threading.active_count()
        yielded, ahead = [], []
        with mock.patch.object(hs, "_draw_threads", lambda: workers + 1):
            with hs._pool(workers) as pool:
                if pool is not None:
                    submit = pool.submit

                    def counted(fn, job):
                        ahead.append(job - len(yielded))  # past the job due
                        return submit(fn, job)

                    pool.submit = counted
                try:
                    for result in hs._in_order(pool, fn, range(len(sleeps))):
                        yielded.append(result)
                except RuntimeError as err:
                    assert str(err) == f"job {fail}"
                else:
                    assert fail is None
            assert max(ahead, default=0) <= 2 * hs._draw_threads()
        assert yielded == [-j for j in range(len(sleeps) if fail is None else fail)]
        assert threading.active_count() == threads_before


class TestReceiveThreads:
    """Each receiver is detected, noise, channel, condition and demodulate,
    by one job on the pool or the main thread.  Decoding and delivery stay
    on the main thread."""

    @pytest.mark.parametrize("make_scenario, min_bit_errors", [
        (lambda: scn.single_point_scenario(bit_rate_bps=9600), 0),
        (collided_4800_scenario, 1),
        (lambda: scn.multi_point_scenario(polls_per_slave=2, ebn0_db=6.0), 1),
    ], ids=["single_point_9600", "collided_4800", "multi_point_115200"])
    def test_more_threads_than_cores_equal_the_serial_run(self, make_scenario, min_bit_errors,
                                                         monkeypatch, tmp_path):
        sc = make_scenario()

        def report_bytes(name):
            hs.emit_report(hs.run_scenario(sc), "json", tmp_path / name)
            return (tmp_path / name).read_bytes()

        monkeypatch.setattr(hs, "_draw_threads", lambda: 8)
        assert hs._Sim(sc).threads == 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = report_bytes("threaded.json")
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(hs, "_draw_threads", lambda: 1)
        assert hs._Sim(sc).threads == 1
        assert threaded == report_bytes("serial.json")
        assert json.loads(threaded)["link"]["bit_errors"] >= min_bit_errors

    @staticmethod
    def record_callers(monkeypatch, callers):
        """Record each thread's calls of the reception's layers in callers."""
        for module, name in ((ch, "propagate"), (ch, "condition"), (md, "demodulate"),
                             (fc, "decode_frame"), (hs._Sim, "deliver"),
                             (ch, "channel_noise")):
            def record(*args, _real=getattr(module, name), _name=name, **kwargs):
                callers.setdefault(threading.current_thread(), []).append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

    def check_detectors(self, sc, threads, blocks, monkeypatch):
        """Run sc on threads draw threads and check that each receiver's
        whole detector, blocks blocks, runs on one thread while decoding and
        delivery stay on the main thread."""
        monkeypatch.setattr(hs, "_draw_threads", lambda: threads)
        callers = {}
        self.record_callers(monkeypatch, callers)
        assert len(hs._Sim(sc).edges) - 1 == blocks
        report = hs.run_scenario(sc)
        assert report.nodes["master"].frames_received == len(sc.poll_schedule)
        pinned, main = {"decode_frame", "deliver"}, threading.main_thread()
        assert pinned <= set(callers[main])
        assert all(pinned.isdisjoint(names) for thread, names in callers.items() if thread is not main)
        # Each receiver's whole detector runs on one thread, the main one or
        # a worker: its demodulate draws, receives and conditions its blocks
        # in turn.
        detector = ["demodulate", *["channel_noise", "propagate", "condition"] * blocks]
        detected = [[name for name in names if name not in pinned]
                    for names in callers.values()]
        sent = sum(stats.frames_sent for stats in report.nodes.values())
        assert sum(map(len, detected)) == sent * len(sc.slaves) * len(detector)
        assert all(names == detector * (len(names) // len(detector)) for names in detected)

    @pytest.mark.parametrize("bit_rate_bps, blocks", [(115200, 1), (9600, 5)],
                             ids=["115200", "9600"])
    def test_each_detector_runs_whole_on_one_thread(self, bit_rate_bps, blocks, monkeypatch):
        base = scn.multi_point_scenario(polls_per_slave=1, bit_rate_bps=bit_rate_bps)
        sc = replace(base, poll_schedule=base.poll_schedule[:2])
        self.check_detectors(sc, 2, blocks, monkeypatch)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_long_receptions_are_detected_on_the_pool(self, threads, monkeypatch):
        """A 5-block reception is detected whole by one of the pool's
        threads, of which the calling thread, helping, is one."""
        self.check_detectors(scn.single_point_scenario(bit_rate_bps=9600), threads, 5,
                             monkeypatch)

    @pytest.mark.parametrize("make_scenario", [
        lambda: scn.single_point_scenario(bit_rate_bps=9600),
        lambda: scn.multi_point_scenario(polls_per_slave=1),
    ], ids=["single_point_9600", "multi_point_115200"])
    def test_each_draw_is_the_receivers_noise_alone(self, make_scenario, monkeypatch):
        """Each receiver's noise blocks, joined, are channel_noise(sigma, n,
        seed) drawn serially, bit for bit, from its own seed: no signal in it."""
        monkeypatch.setattr(hs, "_draw_threads", lambda: 4)
        blocks, seeds = {}, []
        real_noise, real_receive = ch.channel_noise, hs._Sim.receive

        def channel_noise(sigma, n, rng, out=None):
            # Each block as it is drawn, before the signal is added to it;
            # a reception's blocks all come from its one Generator.
            noise = real_noise(sigma, n, rng, out)
            blocks.setdefault(rng, []).append(noise.tobytes())
            return noise

        def receive(sim, now_s, tx):
            seeds.extend(sim._rx_seed(tx.index, node) for node in sim.nodes if node != tx.sender)
            return real_receive(sim, now_s, tx)

        monkeypatch.setattr(ch, "channel_noise", channel_noise)
        monkeypatch.setattr(hs._Sim, "receive", receive)
        sc = make_scenario()
        hs.run_scenario(sc)
        sigma = hs.derived_noise_sigma(sc)
        n = (md.frame_samples(hs.FRAME_LEN, sc.modem)
             + ch.delay_samples(sc.channel, sc.modem.sample_rate_hz))
        # Workers finish in any order, so the draws are compared as a multiset.
        drawn = [b"".join(parts) for parts in blocks.values()]
        assert len(drawn) == len(seeds) > 1
        assert sorted(drawn) == sorted(real_noise(sigma, n, seed).tobytes() for seed in seeds)

    @pytest.mark.parametrize("make_scenario", [
        lambda: scn.single_point_scenario(bit_rate_bps=9600),
        collided_4800_scenario,
    ], ids=["single_point_9600", "collided_4800"])
    def test_the_channel_runs_once_per_receiver_block(self, make_scenario, monkeypatch):
        counts = {"propagate": 0, "receive": 0}
        for owner, name in ((ch, "propagate"), (hs._Sim, "receive")):
            def count(*args, _real=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, count)
        sc = make_scenario()
        hs.run_scenario(sc)
        assert counts["receive"] > 0
        blocks = len(hs._Sim(sc).edges) - 1
        assert counts["propagate"] == counts["receive"] * len(sc.slaves) * blocks

    def test_a_failed_draw_raises_and_shuts_the_pool_down(self, monkeypatch):
        draws = []  # each draw's Generator, as its first block is drawn
        real = ch.channel_noise

        def fail_third(sigma, n, rng, out):
            if not any(rng is seen for seen in draws):
                draws.append(rng)
                if len(draws) == 3:
                    raise RuntimeError("third draw")
            return real(sigma, n, rng, out)

        monkeypatch.setattr(ch, "channel_noise", fail_third)
        threads_before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="third draw"):
            hs.run_scenario(collided_4800_scenario())
        # The first reception's five draws, and none after it.
        assert len(draws) <= 5
        assert set(threading.enumerate()) == threads_before


class TestReceiverSeed:
    """Each receiver's noise Generator is the one the SeedSequence of the
    Python ints [seed, tx_index, *node id bytes] seeds, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_equals_the_int_keyed_generator(self, seed):
        sim = hs._Sim(replace(scn.multi_point_scenario(polls_per_slave=1), seed=seed))
        assert len(sim.nodes) == 6
        for tx_index in (0, 1, 2**32 - 1, 2**32 + 1):
            for node in sim.nodes:
                key = np.random.SeedSequence([seed, tx_index, *node.encode()])
                ref = np.random.default_rng(int(key.generate_state(1)[0]))
                rng = np.random.default_rng(sim._rx_seed(tx_index, node))
                assert rng.bit_generator.state == ref.bit_generator.state
                assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()


class TestStreamedReception:
    """Transmissions are held as their symbol signs, and each reception is
    conditioned and correlated in blocks of whole symbols."""

    @pytest.mark.parametrize("interference", [(), ((50e3, 0.5), (3e6, 0.1))],
                             ids=["no_tones", "tones"])
    @pytest.mark.parametrize("make_scenario", [
        lambda: scn.single_point_scenario(bit_rate_bps=9600),
        collided_4800_scenario,
    ], ids=["single_point_9600", "collided_4800"])
    def test_block_length_does_not_change_the_report(self, make_scenario, interference,
                                                     monkeypatch, tmp_path):
        sc = make_scenario()
        sc = replace(sc, channel=replace(sc.channel, interference=interference))
        spb = sc.modem.samples_per_bit

        def report_bytes(name):
            hs.emit_report(hs.run_scenario(sc), "json", tmp_path / name)
            return (tmp_path / name).read_bytes()

        sim = hs._Sim(sc)
        assert len(sim.edges) > 2  # several blocks by default
        default = report_bytes("default.json")
        for symbols in (1, 7):
            monkeypatch.setattr(hs, "_BLOCK_SAMPLES", symbols * spb)
            assert hs._Sim(sc).edges[1] == sim.delay + symbols * spb
            assert report_bytes(f"{symbols}.json") == default, symbols

    @given(st.integers(1, 2**21), st.integers(1, 6000), st.integers(0, 2**21))
    def test_block_edges_cut_the_delay_too_and_no_block_is_over_two(self, n, spb, first):
        n += first  # a reception is longer than its delay
        block = max(1, hs._BLOCK_SAMPLES // spb) * spb
        edges = hs._block_edges(n, spb, first)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n and sizes.min() > 0
        assert sizes.max() <= 2 * block
        # Blocks of whole symbols from 0 up to first, then from first on.
        assert all(e % block == 0 for e in edges if e < first)
        assert all((e - first) % block == 0 for e in edges[:-1] if e > first)
        assert min(n, first + block) in edges

    @pytest.mark.parametrize("bit_rate_bps, blocks", [(4800, 9), (9600, 5), (115200, 1)])
    def test_noise_drawn_a_block_at_a_time_is_one_draw(self, bit_rate_bps, blocks):
        sc = scn.single_point_scenario(bit_rate_bps=bit_rate_bps)
        edges = hs._Sim(sc).edges
        assert len(edges) - 1 == blocks
        sigma = hs.derived_noise_sigma(sc)
        rng, buffer = np.random.default_rng(2024), np.empty(edges[-1])
        for lo, hi in zip(edges, edges[1:]):
            ch.channel_noise(sigma, hi - lo, rng, buffer[lo:hi])
        assert np.array_equal(buffer, ch.channel_noise(sigma, edges[-1], 2024))

    def test_the_first_block_is_conditioned_while_the_last_is_undrawn(self, monkeypatch):
        """Every draw holds its last block until condition has run once; the
        hold gives up after 5 s, so a run that waits for whole draws fails."""
        monkeypatch.setattr(hs, "_draw_threads", lambda: 2)
        conditioned, timed_out = threading.Event(), []
        real_condition, real_noise = ch.condition, ch.channel_noise

        def condition(*args, **kwargs):
            conditioned.set()
            return real_condition(*args, **kwargs)

        sc = scn.single_point_scenario(bit_rate_bps=4800)
        edges = hs._Sim(sc).edges
        last = edges[-1] - edges[-2]
        assert len(edges) - 1 == 9 and last not in np.diff(edges)[:-1]

        def channel_noise(sigma, n, seed, out):
            if n == last and not conditioned.wait(5):
                timed_out.append(None)
            return real_noise(sigma, n, seed, out)

        monkeypatch.setattr(ch, "condition", condition)
        monkeypatch.setattr(ch, "channel_noise", channel_noise)
        report = hs.run_scenario(sc)
        assert timed_out == []
        assert report.nodes["master"].frames_received == len(sc.poll_schedule)

    def test_each_block_is_drawn_then_conditioned(self, monkeypatch):
        """With no pool, the calling thread runs each receiver's detector in
        turn, drawing, receiving and conditioning one block at a time."""
        monkeypatch.setattr(hs, "_draw_threads", lambda: 0)
        calls = []
        for name in ("superpose", "propagate", "channel_noise", "condition"):
            def record(*args, _real=getattr(ch, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(ch, name, record)
        hs.run_scenario(scn.single_point_scenario(bit_rate_bps=4800))
        detector = ["channel_noise", "propagate", "superpose", "condition"] * 9
        assert calls[:37] == [*detector, "channel_noise"]

    @pytest.mark.parametrize("threads", [2, 0])
    def test_a_draw_that_raises_after_its_first_block_raises(self, threads, monkeypatch):
        monkeypatch.setattr(hs, "_draw_threads", lambda: threads)
        sc = collided_4800_scenario()
        first = hs._Sim(sc).edges[1]  # the delay and a block, longer than any other block
        real = ch.channel_noise

        def fail_second_block(sigma, n, seed, out):
            if n != first:
                raise RuntimeError("second block")
            return real(sigma, n, seed, out)

        monkeypatch.setattr(ch, "channel_noise", fail_second_block)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="second block"):
            hs.run_scenario(sc)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("edit", [
        lambda sc: sc,
        lambda sc: replace(sc, channel=replace(sc.channel, interference=((50e3, 0.5), (3e6, 0.1)))),
        lambda sc: replace(sc, ebn0_db=None),
    ], ids=["noise", "tones", "noiseless"])
    def test_peak_is_the_signal_and_a_few_blocks(self, edit, threads, monkeypatch):
        monkeypatch.setattr(hs, "_draw_threads", lambda: threads)
        sc = edit(collided_4800_scenario())
        edges = hs._Sim(sc).edges
        # tracemalloc also sees numpy buffers, so a kept waveform would show.
        tracemalloc.start()
        try:
            report = hs.run_scenario(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.link.physical_bits > 0
        # No array holds a whole reception.  Each detector holds at most
        # three blocks: its block buffer, and that block conditioned, or a
        # group of symbols being added, or a block of tones and their times.
        # The rest, a frame's signs or the report, is well under two blocks.
        # One array of a whole reception would be 4.3 MB, nearly nine blocks.
        assert peak <= (3 * threads + 2) * 8 * edges[1]

    @pytest.mark.parametrize("bit_rate_bps", [115200, 9600])
    def test_a_noiseless_run_draws_no_noise(self, bit_rate_bps, monkeypatch):
        calls = []
        monkeypatch.setattr(ch, "channel_noise", lambda *args: calls.append(args))
        base = scn.multi_point_scenario(polls_per_slave=1, bit_rate_bps=bit_rate_bps,
                                        ebn0_db=None)
        sc = replace(base, poll_schedule=base.poll_schedule[:2])
        report = hs.run_scenario(sc)
        assert report.nodes["master"].frames_received == 2
        assert calls == []


TWO_TONES = ((50e3, 0.5), (3e6, 0.1))


def with_tones(sc):
    return replace(sc, channel=replace(sc.channel, interference=TWO_TONES))


def against_reference(sc, block_symbols=None, threads=1):
    """Run sc in blocks of block_symbols symbols (None: _BLOCK_SAMPLES) on
    threads threads.  Returns the report and, for each reception in order,
    the number of transmissions overlapping it and, for each receiver in node
    order, the pair (run's I/Q and bits, reference receiver's I/Q and bits).
    The run's bits are those receive passes to md.bits_to_bytes, its I/Q those
    the receiver's detector decides, on whichever thread ran it."""
    started, receptions, got, run_iq = [], [], [], {}
    real_start, real_receive, real_detect = (hs._Sim.start_transmission, hs._Sim.receive,
                                             hs._Sim.detect)
    real_decide, real_pack = md.decide, md.bits_to_bytes
    decided = threading.local()

    def start_transmission(sim, *args):
        real_start(sim, *args)
        started.append(sim.on_air[-1])

    def receive(sim, now_s, tx):
        receptions.append((tx, reference_receiver.overlapping(tx, started),
                           reference_receiver.received_iq(sim, tx, started)))
        return real_receive(sim, now_s, tx)

    def detect(sim, tx, offsets, waves, node):
        bits = real_detect(sim, tx, offsets, waves, node)
        run_iq[tx.index, node.id] = decided.iq
        return bits

    def decide(iq):
        decided.iq = iq
        return real_decide(iq)

    def bits_to_bytes(bits):
        got.append(bits.copy())
        return real_pack(bits)

    block = hs._BLOCK_SAMPLES if block_symbols is None else block_symbols * sc.modem.samples_per_bit
    with mock.patch.multiple(hs._Sim, start_transmission=start_transmission, receive=receive,
                             detect=detect), \
            mock.patch.multiple(md, decide=decide, bits_to_bytes=bits_to_bytes), \
            mock.patch.multiple(hs, _BLOCK_SAMPLES=block, _draw_threads=lambda: threads):
        report = hs.run_scenario(sc)
    got = iter(got)
    return report, [(len(others), [((run_iq[tx.index, node_id], next(got)),
                                    (iq, real_decide(iq))) for node_id, iq in expected])
                    for tx, others, expected in receptions]


def assert_run_is_the_reference(report, receptions):
    """Each receiver's I/Q and bits are the reference receiver's, bitwise,
    and each frame the report counts was compared."""
    assert sum(len(receivers) for _, receivers in receptions) == (
        report.link.physical_bits // (8 * hs.FRAME_LEN))
    for _, receivers in receptions:
        for (iq, bits), (ref_iq, ref_bits) in receivers:
            assert iq.tobytes() == ref_iq.tobytes()
            assert bits.tobytes() == ref_bits.tobytes()


@st.composite
def overlapping_receptions(draw):
    """A scenario of 1-2 slaves polled once, at any rate, cable length and
    Q in {0.3, 1, 20}, with 0-2 tones, noiseless or at a derived sigma, and
    1-3 injections from any node at any sample while the command or its
    reply can be on air, so 1 to 4 transmissions overlap one and clip its
    first and last symbols; then a block of 1 symbol, 7 symbols or
    _BLOCK_SAMPLES, and 1 or 2 threads."""
    modem = md.ModemConfig(bit_rate_bps=draw(st.sampled_from(md.SUPPORTED_BIT_RATES)))
    slaves = scn.MULTI_POINT_ADDRESSES[: draw(st.integers(1, 2))]
    poll_s, airtime = scn.poll_spacing_s(modem), md.frame_airtime_s(hs.FRAME_LEN, modem)
    nodes = st.sampled_from(["master", *(f"slave{i + 1}" for i in range(len(slaves)))])
    # The first injection overlaps the command; the others may fall on its reply.
    starts = [st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              *[st.floats(-1.0, 2.0)] * draw(st.integers(0, 2))]
    injections = tuple((poll_s + draw(start) * airtime, draw(nodes)) for start in starts)
    tones = tuple((draw(st.floats(0.0, 5e6)), draw(st.floats(0.0, 1.0)))
                  for _ in range(draw(st.integers(0, 2))))
    sc = hs.Scenario(
        duration_s=poll_s + 4 * airtime, seed=draw(st.integers(0, 2**32)), modem=modem,
        channel=ch.ChannelConfig(cable_length_m=draw(st.floats(0.0, 1500.0)), interference=tones),
        front_end=ch.FrontEndConfig(quality_factor=draw(st.sampled_from([0.3, 1.0, 20.0]))),
        slaves=tuple(hs.SlaveSpec(address=a) for a in slaves),
        poll_schedule=((poll_s, draw(st.sampled_from(slaves))),),
        collision_injections=injections, ebn0_db=draw(st.none() | st.floats(4.0, 20.0)))
    return sc, draw(st.sampled_from([1, 7, None])), draw(st.sampled_from([1, 2]))


class TestReferenceReceiver:
    """Every receiver's symbol I/Q and bits equal, bitwise, those of the
    whole-array reference receiver, which sums each reception in the channel
    model's order with no blocks and no pool."""

    @pytest.mark.parametrize("make_scenario, block_symbols, threads", [
        (collided_4800_scenario, None, 2),
        (lambda: with_tones(collided_4800_scenario()), 1, 1),
        (lambda: with_tones(collided_4800_scenario()), 7, 2),
        (lambda: scn.multi_point_scenario(polls_per_slave=2, ebn0_db=6.0), None, 1),
        (lambda: scn.multi_point_scenario(polls_per_slave=2, ebn0_db=6.0), 1, 2),
    ], ids=["collided_4800-default-2", "collided_4800_tones-1-1", "collided_4800_tones-7-2",
            "multi_point_115200-default-1", "multi_point_115200-1-2"])
    def test_every_receivers_bits_are_the_references(self, make_scenario, block_symbols,
                                                     threads):
        sc = make_scenario()
        report, receptions = against_reference(sc, block_symbols, threads)
        assert_run_is_the_reference(report, receptions)
        # Errors show the decisions near the threshold are compared too.
        assert report.link.bit_errors > 0
        if sc.collision_injections:
            assert max(overlaps for overlaps, _ in receptions) > 0

    def test_a_delay_of_several_blocks_gives_the_references_bits(self):
        # In blocks of one 224-sample symbol, the 1000 samples of delay take
        # four blocks of their own before the one that holds the delay's end.
        sc = scn.multi_point_scenario(polls_per_slave=1, ebn0_db=6.0)
        fs = sc.modem.sample_rate_hz
        sc = with_tones(replace(sc, channel=replace(sc.channel,
                                                    propagation_speed_mps=700.0 * fs / 1000)))
        assert hs._Sim(sc).delay == 1000
        report, receptions = against_reference(sc, block_symbols=1, threads=2)
        assert_run_is_the_reference(report, receptions)
        assert report.nodes["master"].frames_received > 0

    @given(overlapping_receptions())
    @settings(max_examples=30)
    def test_any_overlaps_tones_and_blocks_give_the_references_bits(self, drawn):
        sc, block_symbols, threads = drawn
        report, receptions = against_reference(sc, block_symbols, threads)
        assert_run_is_the_reference(report, receptions)
        assert max(overlaps for overlaps, _ in receptions) > 0


class TestReportIo:
    def test_json_round_trip(self, single_point_report, tmp_path):
        path = tmp_path / "report.json"
        hs.emit_report(single_point_report, "json", path)
        assert json.loads(path.read_text()) == single_point_report.to_dict()

    def test_json_file_is_the_report_json_text(self, single_point_report, tmp_path):
        path = tmp_path / "report.json"
        hs.emit_report(single_point_report, "json", path)
        text = "".join(hs.report_json_chunks(single_point_report))
        assert path.read_bytes() == text.encode()
        assert text.endswith("}\n")

    @pytest.mark.parametrize("timeline", ["run", "escaped", "empty"])
    def test_json_text_is_json_dumps_indented(self, single_point_report, timeline):
        # The timeline's entries are encoded apart, so check them around the rest.
        report = copy.deepcopy(single_point_report)
        if timeline == "escaped":
            report.timeline.append({"time_s": 1e-7, "node": "slave1", "kind": "log",
                                    "message": 'a "quoted"\tline \u00e9', "latency_s": -0.0})
        elif timeline == "empty":
            report.timeline.clear()
        text = "".join(hs.report_json_chunks(report))
        assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"

    def test_csv_rows(self, single_point_report, tmp_path):
        path = tmp_path / "report.csv"
        hs.emit_report(single_point_report, "csv", path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
            fh.seek(0)
            rows = list(csv.DictReader(fh))
        assert header == ["node", *asdict(hs.NodeStats()), *asdict(hs.LinkStats())]
        assert {row["node"] for row in rows} == {"master", "slave1", "link"}
        assert all(None not in row and None not in row.values() for row in rows)
        for row in rows:
            if row["node"] == "link":
                link = {k: type(v)(row[k]) for k, v in asdict(single_point_report.link).items()}
                assert link == asdict(single_point_report.link)
                assert all(row[k] == "" for k in asdict(hs.NodeStats()))
            else:
                assert all(row[k] == "" for k in asdict(hs.LinkStats()))

    def test_timeline_jsonl(self, single_point_report, tmp_path):
        path = tmp_path / "timeline.jsonl"
        hs.emit_timeline(single_point_report, path)
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries == single_point_report.timeline
        assert path.read_text() == "".join(f"{json.dumps(entry, sort_keys=True)}\n"
                                           for entry in single_point_report.timeline)

    def test_non_finite_values_are_not_written_as_json(self, single_point_report, tmp_path):
        report = copy.deepcopy(single_point_report)
        report.nodes["master"].energy_uah = math.inf
        with pytest.raises(ValueError, match="JSON"):
            hs.emit_report(report, "json", tmp_path / "report.json")
        with pytest.raises(ValueError, match="JSON"):
            "".join(hs.report_json_chunks(report))
        # Neither the report nor its temporary is left behind.
        assert list(tmp_path.iterdir()) == []
        report.timeline.append({"time_s": math.nan, "node": "master", "kind": "log"})
        with pytest.raises(ValueError, match="JSON"):
            hs.emit_timeline(report, tmp_path / "timeline.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_destination(self, single_point_report, tmp_path):
        path = tmp_path / "no" / "dir.json"
        with pytest.raises(FileNotFoundError) as info:
            hs.emit_report(single_point_report, "json", path)
        assert info.value.filename == str(path)

    def test_waveform_csv_export(self, tmp_path):
        path = tmp_path / "wave.csv"
        hs.write_waveform_csv(np.array([1, -1]), np.array([1.0, -0.5]), 10.0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,volts"
        assert lines[1:] == ["0.0,1.0", "0.1,-0.5", "0.2,-1.0", "0.3,0.5"]

    def test_waveform_csv_matches_csv_writer(self, tmp_path):
        # Reference: one csv.writer row per sample of the whole waveform, as
        # the export was first written; 313 symbols span two blocks.
        fs, rng = 23.38e6, np.random.default_rng(3)
        signs, template = 1 - 2 * rng.integers(0, 2, 313), rng.normal(0.0, 1e-3, 224)
        hs.write_waveform_csv(signs, template, fs, tmp_path / "wave.csv")
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "volts"])
            for i, v in enumerate((signs[:, None] * template).ravel()):
                writer.writerow([i / fs, repr(float(v))])
        assert (tmp_path / "wave.csv").read_bytes() == ref.read_bytes()

    def test_a_waveform_that_fails_midway_leaves_no_file(self, tmp_path):
        class FailsOnSecondBlock:
            """Symbol signs whose second block cannot be read."""

            def __init__(self, signs):
                self.signs = signs

            def __len__(self):
                return len(self.signs)

            def __getitem__(self, key):
                if key[0].start:
                    raise OSError("second block")
                return self.signs[key]

        template = np.ones(4)
        signs = FailsOnSecondBlock(np.ones(hs._BLOCK_SAMPLES // len(template) + 1))
        with pytest.raises(OSError, match="second block"):
            hs.write_waveform_csv(signs, template, 10.0, tmp_path / "wave.csv")
        assert list(tmp_path.iterdir()) == []

    def test_a_dump_holds_less_than_a_frame(self, tmp_path, monkeypatch):
        # In blocks of one symbol, a dump formats 224 rows at a time: far less
        # memory than the frame's float64 samples, had it modulated them whole.
        sc = scn.single_point_scenario()
        monkeypatch.setattr(hs, "_BLOCK_SAMPLES", sc.modem.samples_per_bit)
        template = md.modulate((), sc.modem)
        peaks = []
        for entry in hs.run_scenario(sc).timeline:
            if entry["kind"] != "tx_start":
                continue
            signs = md.symbol_signs(md.bytes_to_bits(bytes.fromhex(entry["frame_hex"])))
            tracemalloc.start()
            try:
                hs.write_waveform_csv(signs, template, sc.modem.sample_rate_hz,
                                      tmp_path / f"tx{len(peaks)}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(peaks) == 2
        assert max(peaks) < 8 * md.frame_samples(hs.FRAME_LEN, sc.modem)


ADDRESS = "64 49 46 68 00 53"
VALID_FILE = {"duration_s": 0.05, "slaves": [{"address": ADDRESS}],
              "poll_schedule": [[0.01, ADDRESS]]}
# Every scenario key set, so that each one can be mutated.
FULL_SCENARIO = {
    "duration_s": 0.05,
    "seed": 3,
    "modem": {"carrier_hz": 1.67e6, "samples_per_cycle": 16, "bit_rate_bps": 115200,
              "amplitude_v": 12.0},
    "channel": {"turns": 4, "cable_length_m": 700.0, "attenuation_per_m": 0.0,
                "noise_sigma_v": 0.0, "interference": [[1e5, 0.01]],
                "propagation_speed_mps": 2e8},
    "front_end": {"center_hz": 1.67e6, "passband_gain": 3.0, "quality_factor": 1.0},
    "slaves": [{"address": ADDRESS, "mode": "sensor", "temperature_c": 21.5,
                "budget": {"carrier_ua": 130.0, "signal_processing_ua": 300.0,
                           "power_conversion_ua": 180.0, "master_ua": 50.0,
                           "gating": ["master", "carrier"]}},
               {"address": [0x89, 0x47, 0x46, 0x68, 0x00, 0x53]}],
    "poll_schedule": [[0.01, ADDRESS], [0.03, "89 47 46 68 00 53"]],
    "collision_injections": [[0.02, "slave2"]],
    "ebn0_db": 20.0,
    "master_budget": {"master_ua": 50.0},
}


def _paths(node, path=()):
    """Key paths to every value nested in a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


MUTABLE_PATHS = list(_paths(FULL_SCENARIO))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10)


def loads_or_config_invalid(d):
    """A decoded scenario either builds a runnable simulation or names a bad field."""
    try:
        sc = scn.scenario_from_dict(d)
    except hs.ConfigInvalid as err:
        assert re.match(r".+?: ", str(err), re.S), str(err)
        return
    hs._Sim(sc)


class TestScenarioFiles:
    def test_dict_round_trip(self):
        d = {
            "duration_s": 0.5,
            "seed": 3,
            "modem": {"bit_rate_bps": 9600},
            "channel": {"turns": 4, "cable_length_m": 2.0},
            "slaves": [{"address": "64 49 46 68 00 53", "mode": "function_test"}],
            "poll_schedule": [[0.01, "64 49 46 68 00 53"]],
        }
        sc = scn.scenario_from_dict(d)
        assert sc.modem.bit_rate_bps == 9600
        assert sc.slaves[0].address == fc.Address(bytes([0x64, 0x49, 0x46, 0x68, 0x00, 0x53]))
        report = hs.run_scenario(sc)
        assert reported_payloads(report) == ["00 ff"]

    def test_missing_duration_rejected(self):
        with pytest.raises(hs.ConfigInvalid, match="duration_s"):
            scn.scenario_from_dict({})

    def test_bad_address_rejected(self):
        with pytest.raises(hs.ConfigInvalid, match=r"slaves\[0\].address"):
            scn.scenario_from_dict({"duration_s": 1.0,
                                    "slaves": [{"address": "64 49"}]})

    def test_noise_sigma_with_ebn0_rejected(self):
        d = {"duration_s": 1.0, "channel": {"noise_sigma_v": 5.0}}
        with pytest.raises(hs.ConfigInvalid, match=r"channel\.noise_sigma_v"):
            scn.scenario_from_dict(d)
        assert scn.scenario_from_dict(dict(d, ebn0_db=None)).channel.noise_sigma_v == 5.0

    def test_schedule_outside_duration_rejected(self):
        d = {"duration_s": 1.0,
             "slaves": [{"address": "64 49 46 68 00 53"}],
             "poll_schedule": [[2.0, "64 49 46 68 00 53"]]}
        with pytest.raises(hs.ConfigInvalid, match=r"poll_schedule\[0\]"):
            scn.scenario_from_dict(d)

    def test_file_load(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "duration_s": 0.2,
            "slaves": [{"address": "64 49 46 68 00 53"}],
            "poll_schedule": [[0.01, "64 49 46 68 00 53"]],
        }))
        sc = scn.load_scenario(path)
        assert sc.duration_s == 0.2

    def test_json_integers_load_as_floats(self):
        sc = scn.scenario_from_dict({"duration_s": 1, "ebn0_db": 12,
                                     "channel": {"cable_length_m": 700}})
        assert (sc.duration_s, sc.ebn0_db, sc.channel.cable_length_m) == (1.0, 12.0, 700.0)
        assert type(sc.duration_s) is type(sc.ebn0_db) is float

    # Wrong types, unknown keys and values a run cannot use: each names its field.
    @pytest.mark.parametrize("edit, path", [
        ({"slaves": [5]}, "slaves[0]"),
        ({"slaves": [{"address": ADDRESS, "budget": 5}]}, "slaves[0].budget"),
        ({"master_budget": []}, "master_budget"),
        ({"ebn0_db": "20"}, "ebn0_db"),
        ({"duration_s": "0.05"}, "duration_s"),
        ({"poll_schedule": [["0.01", ADDRESS]]}, "poll_schedule[0][0]"),
        ({"slaves": [{"address": ADDRESS, "budget": {"gating": "master"}}]},
         "slaves[0].budget.gating"),
        ({"ebno_db": 3}, "ebno_db"),
        ({"slaves": [{"address": ADDRESS, "budget": {"carrier_uA": 0}}]},
         "slaves[0].budget.carrier_uA"),
        ({"collision_injections": [[0.02]]}, "collision_injections[0]"),
        ({"seed": 1.5}, "seed"),
        ({"slaves": [{"address": 6}]}, "slaves[0].address"),
        ({"channel": {"turns": 4.0}}, "channel.turns"),
        ({"modem": {"amplitude_v": -12.0}}, "modem"),
        ({"channel": {"propagation_speed_mps": 1e-300}}, "channel"),
        ({"modem": {"samples_per_cycle": 10**6}}, "modem"),
        ({"front_end": {"center_hz": 2e7}}, "front_end.center_hz"),
        ([], "scenario"),
    ])
    def test_malformed_scenario_names_its_path(self, edit, path, tmp_path):
        d = dict(VALID_FILE, **edit) if isinstance(edit, dict) else edit
        with pytest.raises(hs.ConfigInvalid, match=f"^{re.escape(path)}: "):
            scn.scenario_from_dict(d)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(d))
        result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"config error: {path}: " in result.output

    def test_full_scenario_runs(self):
        report = hs.run_scenario(scn.scenario_from_dict(FULL_SCENARIO))
        assert report.nodes["master"].frames_sent == 2
        assert report.nodes["slave1"].frames_sent == 1

    @given(JSON_VALUES)
    @settings(max_examples=100)
    def test_any_json_value_loads_or_is_config_invalid(self, d):
        loads_or_config_invalid(d)

    @given(st.data())
    @settings(max_examples=100)
    def test_one_key_mutation_loads_or_is_config_invalid(self, data):
        d = copy.deepcopy(FULL_SCENARIO)
        path = data.draw(st.sampled_from(MUTABLE_PATHS))
        parent, key = reduce(getitem, path[:-1], d), path[-1]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del parent[key]
        else:
            if action == "add" and isinstance(parent, dict):
                key = data.draw(st.text(max_size=8))
            parent[key] = data.draw(JSON_VALUES)
        loads_or_config_invalid(d)


# One slave's reply injected 528 samples into the master's command, at an
# amplitude and with a tone that each pass a Scenario's checks alone.
TONE_AND_COLLISION = {
    "duration_s": 0.001, "ebn0_db": None, "modem": {"amplitude_v": 5.9e307},
    "channel": {"turns": 4, "cable_length_m": 2.0, "interference": [[1000.0, 1.777e308]]},
    "slaves": [{"address": ADDRESS, "mode": "function_test"}],
    "poll_schedule": [[0.0, ADDRESS]], "collision_injections": [[1.976e-5, "slave1"]],
}
# Three master injections at once, at an amplitude two nodes on air can hold.
STACKED_INJECTIONS = {
    "duration_s": 0.001, "ebn0_db": None, "modem": {"amplitude_v": 8e307},
    "slaves": [{"address": ADDRESS}], "collision_injections": [[1e-4, "master"]] * 3,
}


def bound_factor(sc):
    """2 * samples_per_bit * the front end's l1 bound: what a Scenario
    multiplies the peak on air by and requires to stay finite."""
    fe_bound = ch.frontend_l1_bound(sc.front_end, sc.modem.sample_rate_hz)
    return 2 * sc.modem.samples_per_bit * fe_bound


class TestValidate:
    """Values of the right type that would crash the run are rejected up front,
    and the valid scenarios beside them run."""

    @pytest.mark.parametrize("amplitude_v, passband_gain, match", [
        # The biquad's b coefficients are inf and nan.
        pytest.param(12.0, 1e303, r"^front_end: .*modem\.amplitude_v", id="12.0-1e+303"),
        pytest.param(12.0, 2e302, r"^front_end: .*modem\.amplitude_v", id="12.0-2e+302"),
        # The symbol correlations could overflow, which a run would find only
        # as it received.
        pytest.param(4.25e307, 3.0, r"^modem\.amplitude_v: ", id="4.25e+307-3.0"),
    ])
    def test_an_overflowing_front_end_is_config_invalid(self, amplitude_v, passband_gain, match):
        sc = scn.single_point_scenario(ebn0_db=None)
        with pytest.raises(hs.ConfigInvalid, match=match):
            replace(sc, modem=replace(sc.modem, amplitude_v=amplitude_v),
                    front_end=replace(sc.front_end, passband_gain=passband_gain))

    def test_overflowing_interference_is_config_invalid(self):
        sc = scn.single_point_scenario(ebn0_db=None)
        tones = ((50e3, 1.5e308), (3e6, 1.5e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid, match=r"^channel\.interference: "):
                replace(sc, channel=replace(sc.channel, interference=tones))
            # Two tones at two thirds of the bound's limit overflow it; one runs.
            amplitude_v = sys.float_info.max / bound_factor(sc) / 1.5
            tones = ((50e3, amplitude_v), (3e6, amplitude_v))
            with pytest.raises(hs.ConfigInvalid, match=r"^channel\.interference: "):
                replace(sc, channel=replace(sc.channel, interference=tones))
            hs.run_scenario(replace(sc, channel=replace(sc.channel, interference=tones[:1])))

    def test_a_tone_whose_phase_overflows_is_config_invalid(self):
        # 2 pi f is inf, so the tone is nan from its first sample.
        sc = scn.single_point_scenario(ebn0_db=None)
        tones = ((1e3, 0.5), (1.7e308, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid, match=r"^channel\.interference\[1\]: "):
                hs.run_scenario(replace(sc, channel=replace(sc.channel, interference=tones)))

    @pytest.mark.parametrize("front_end", [
        ch.FrontEndConfig(center_hz=5e-324),  # scipy's bilinear raises AttributeError
        # scipy warns BadCoefficients and trims the numerator.
        ch.FrontEndConfig(center_hz=1e-300, quality_factor=1e-300, passband_gain=1e-9),
        ch.FrontEndConfig(quality_factor=1e-300),  # poles at +1 and -1
        ch.FrontEndConfig(center_hz=1e-3),  # a double pole at +1
    ])
    def test_a_front_end_without_a_usable_biquad_is_config_invalid(self, front_end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid, match=r"^front_end: its biquad") as caught:
                hs.run_scenario(replace(scn.single_point_scenario(ebn0_db=None),
                                        front_end=front_end))
        # A Scenario takes only the bench's gain, so the message does not offer another.
        assert "choose front_end.passband_gain" not in str(caught.value)
        assert "center_hz and quality_factor" in str(caught.value)

    def test_a_cached_biquad_is_still_checked(self):
        fe = ch.FrontEndConfig(center_hz=1e-300, quality_factor=1e-300, passband_gain=1e-9)
        sc = scn.single_point_scenario(ebn0_db=None)
        # A rejected biquad is never cached: every call builds and rejects it again.
        for _ in range(2):
            with pytest.raises(ValueError, match=r"BadCoefficients"):
                ch.frontend_coefficients(fe, sc.modem.sample_rate_hz)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid, match=r"^front_end: .*BadCoefficients"):
                replace(sc, front_end=fe)

    @pytest.mark.parametrize("edit, path", [
        (lambda sc, b: replace(sc, master_budget=b), "master_budget"),
        (lambda sc, b: replace(sc, slaves=(replace(sc.slaves[0], budget=b),)),
         "slaves[0].budget"),
    ])
    def test_a_budget_past_float64_is_config_invalid(self, edit, path):
        sc = scn.single_point_scenario()
        budget = pw.UnitBudget(carrier_ua=1.7e308, signal_processing_ua=1.7e308)
        with pytest.raises(hs.ConfigInvalid, match=f"^{re.escape(path)}: "):
            edit(sc, budget)
        # Finite currents whose charge over the run overflows are rejected too.
        with pytest.raises(hs.ConfigInvalid, match=f"^{re.escape(path)}: "):
            edit(replace(sc, duration_s=1e300), pw.UnitBudget(carrier_ua=1e10))

    @pytest.mark.parametrize("edit, path", [
        (lambda sc, b: replace(sc, master_budget=b), "master_budget"),
        (lambda sc, b: replace(sc, slaves=(replace(sc.slaves[0], budget=b),)),
         "slaves[0].budget"),
    ])
    def test_a_budget_whose_joules_overflow_is_config_invalid(self, edit, path):
        sc = replace(scn.single_point_scenario(), duration_s=0.5)
        budget = pw.UnitBudget(carrier_ua=1e308)
        # The charge fits a float64; the joules computed from it would not.
        assert math.isfinite((1e308 + pw.MODE_TABLE["RUN"].mcu_current_ua) * 0.5)
        with pytest.raises(hs.ConfigInvalid, match=f"^{re.escape(path)}: "):
            edit(sc, budget)
        hs.run_scenario(edit(sc, pw.UnitBudget(carrier_ua=1e300)))

    def test_a_noise_sigma_past_float64_is_config_invalid(self):
        sc = scn.single_point_scenario(ebn0_db=None)
        noisy = lambda sigma_v: replace(sc, channel=replace(sc.channel, noise_sigma_v=sigma_v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid, match=r"^channel\.noise_sigma_v: "):
                noisy(1e308)
            hs.run_scenario(noisy(1e300))

    def test_a_derived_noise_sigma_past_float64_is_config_invalid(self):
        sc = replace(scn.single_point_scenario(), ebn0_db=-300.0)
        # The derived sigma scales with the amplitude: pick one giving 1e307 V.
        amplitude_v = 1e307 / hs.derived_noise_sigma(sc) * sc.modem.amplitude_v
        modem = replace(sc.modem, amplitude_v=amplitude_v)
        rx_modem = replace(modem, amplitude_v=amplitude_v * ch.channel_gain(sc.channel))
        assert md.ebn0_to_noise_sigma(10 ** (sc.ebn0_db / 10), rx_modem) < math.inf
        with pytest.raises(hs.ConfigInvalid, match=r"^ebn0_db: "):
            replace(sc, modem=modem)

    def test_transmissions_that_sum_past_float64_are_config_invalid(self):
        sc = scn.multi_point_scenario(polls_per_slave=1, ebn0_db=None)
        # Six nodes on air at once pass the bound; one slave and the master do not.
        loud = replace(sc.modem, amplitude_v=sys.float_info.max / bound_factor(sc) / 4
                       / ch.channel_gain(sc.channel))
        with pytest.raises(hs.ConfigInvalid, match=r"^modem\.amplitude_v: 6 transmissions"):
            replace(sc, modem=loud)
        hs.run_scenario(replace(sc, modem=loud, slaves=sc.slaves[:1],
                                poll_schedule=sc.poll_schedule[:1]))

    def test_a_scenario_only_the_geometric_sum_rejects_runs_clean(self):
        # The whole geometric sum, ||b||_1 / (1 - r)**2, is 8 times the front
        # end's l1 bound at Q = 1: a scenario at half the bound's limit passes
        # it, and runs without overflow to a report with no error.
        sc = scn.single_point_scenario(ebn0_db=None)
        b, a = ch.frontend_biquad(sc.front_end, sc.modem.sample_rate_hz)
        geometric = float(np.abs(b).sum() / (1 - max(abs(np.roots(a)))) ** 2)
        amplitude_v = sys.float_info.max / bound_factor(sc) / 4 / ch.channel_gain(sc.channel)
        peak = 2 * amplitude_v * ch.channel_gain(sc.channel)
        assert math.isinf(2 * sc.modem.samples_per_bit * geometric * peak)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = hs.run_scenario(replace(sc, modem=replace(sc.modem, amplitude_v=amplitude_v)))
        assert report.nodes["master"].frames_received == 1
        assert report.link.bit_errors == 0 and report.link.physical_bits > 0
        assert all(s.decode_errors == 0 and s.timeouts == 0 for s in report.nodes.values())
        "".join(hs.report_json_chunks(report))  # every value finite

    def test_a_late_collision_is_config_invalid_before_the_run(self):
        # slave3 is injected half a command after the last of 200 polls, so
        # seven transmissions can be on air: rejected before any poll runs.
        sc = scn.multi_point_scenario(polls_per_slave=40, ebn0_db=None)
        late_s = sc.poll_schedule[-1][0] + md.frame_airtime_s(hs.FRAME_LEN, sc.modem) / 2
        with pytest.raises(hs.ConfigInvalid, match=r"^modem\.amplitude_v: 7 transmissions"):
            replace(sc, modem=replace(sc.modem, amplitude_v=1e307),
                    collision_injections=((late_s, "slave3"),))

    def test_tones_and_overlapping_transmissions_past_float64_are_config_invalid(self):
        # slave1 is injected 528 samples into the master's command, so the two
        # carriers add in phase.  Either one with the tone stays finite; both
        # with the tone pass float64 in propagate.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid, match=r"^channel\.interference: "):
                hs.run_scenario(scn.scenario_from_dict(TONE_AND_COLLISION))

    def test_stacked_injections_past_float64_are_config_invalid(self):
        # The master's three injections are on air together, beside one frame
        # per node: five transmissions at 8e307 V pass float64 in superpose.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hs.ConfigInvalid,
                               match=r"^modem\.amplitude_v: 5 transmissions on air"):
                hs.run_scenario(scn.scenario_from_dict(STACKED_INJECTIONS))

    @pytest.mark.parametrize("edit, path", [
        (lambda sc, b: replace(sc, master_budget=b), "master_budget.carrier_ua"),
        (lambda sc, b: replace(sc, slaves=(replace(sc.slaves[0], budget=b),)),
         "slaves[0].budget.carrier_ua"),
    ])
    def test_a_current_of_an_ungated_unit_is_config_invalid(self, edit, path):
        sc = scn.single_point_scenario()
        ungated = pw.UnitBudget(carrier_ua=100.0, gating=frozenset({"master"}))
        with pytest.raises(hs.ConfigInvalid,
                           match=f"^{re.escape(path)}: only used when 'carrier' is in gating"):
            edit(sc, ungated)
        # The default current of an ungated unit, or any current of a gated one, counts.
        hs.run_scenario(edit(sc, replace(ungated, carrier_ua=130.0)))
        hs.run_scenario(edit(sc, replace(ungated, gating=frozenset({"master", "carrier"}))))

    def test_an_infinite_duration_is_config_invalid(self):
        with pytest.raises(hs.ConfigInvalid, match=r"^duration_s: "):
            replace(scn.single_point_scenario(), duration_s=math.inf)

    # A NaN in each float field of the config dataclasses, the tones' two included, and
    # the message of the check that rejects it: NaN fails every comparison, so each check
    # must be one that NaN makes false.
    NAN_FIELDS = {
        "ModemConfig.carrier_hz": (md.ModemConfig, {"carrier_hz": math.nan}, "carrier_hz must"),
        "ModemConfig.amplitude_v": (md.ModemConfig, {"amplitude_v": math.nan}, "amplitude_v non"),
        **{f"ChannelConfig.{name}": (ch.ChannelConfig, {name: math.nan}, "magnitudes must")
           for name in ("cable_length_m", "attenuation_per_m", "noise_sigma_v")},
        "ChannelConfig.propagation_speed_mps":
            (ch.ChannelConfig, {"propagation_speed_mps": math.nan}, "propagation_speed_mps must"),
        "ChannelConfig.interference.freq_hz":
            (ch.ChannelConfig, {"interference": ((1e5, 0.1), (math.nan, 0.1))}, "tones must"),
        "ChannelConfig.interference.amplitude_v":
            (ch.ChannelConfig, {"interference": ((1e5, math.nan),)}, "tones must"),
        **{f"FrontEndConfig.{name}": (ch.FrontEndConfig, {name: math.nan}, "parameters must")
           for name in ("center_hz", "passband_gain", "quality_factor")},
        **{f"UnitBudget.{unit}_ua": (pw.UnitBudget, {f"{unit}_ua": math.nan}, "currents must")
           for unit in pw.UNIT_NAMES},
    }

    def test_every_float_field_has_a_nan_case(self):
        floats = {f"{cls.__name__}.{f.name}"
                  for cls in (md.ModemConfig, ch.ChannelConfig, ch.FrontEndConfig, pw.UnitBudget)
                  for f in fields(cls) if typing.get_type_hints(cls)[f.name] is float}
        assert floats | {"ChannelConfig.interference.freq_hz",
                         "ChannelConfig.interference.amplitude_v"} == set(self.NAN_FIELDS)

    @pytest.mark.parametrize("name", sorted(NAN_FIELDS))
    def test_nan_is_rejected_when_the_config_is_built(self, name):
        cls, kwargs, match = self.NAN_FIELDS[name]
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    # An infinite cable makes channel_gain NaN, and an infinite amplitude an infinite
    # received one: a Scenario would blame either on ebn0_db or the overflow bound.
    @pytest.mark.parametrize("cls, kwargs, match", [
        (ch.ChannelConfig, {"cable_length_m": math.inf}, "magnitudes must be nonnegative and fin"),
        (md.ModemConfig, {"amplitude_v": math.inf}, "amplitude_v nonnegative and finite"),
    ], ids=["ChannelConfig.cable_length_m", "ModemConfig.amplitude_v"])
    def test_inf_is_rejected_when_the_config_is_built(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    @pytest.mark.parametrize("edit, path", [
        (lambda sc: replace(sc, slaves=(replace(sc.slaves[0], temperature_c=150.0),)),
         "slaves[0].temperature_c"),
        (lambda sc: replace(sc, seed=-1), "seed"),
        (lambda sc: replace(sc, ebn0_db=4000.0), "ebn0_db"),
        (lambda sc: replace(sc, duration_s=math.nan), "duration_s"),
    ])
    def test_rejected_before_the_run(self, edit, path):
        sc = scn.multi_point_scenario(polls_per_slave=1)
        sc = replace(sc, slaves=sc.slaves[:1], poll_schedule=sc.poll_schedule[:1])
        with pytest.raises(hs.ConfigInvalid, match=f"^{re.escape(path)}: "):
            edit(sc)
