import copy
import csv
import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import asdict, replace
from functools import reduce
from operator import getitem

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
            if node_id == "master":
                assert {r.mode for r in node.trace} == {"RUN"}
                continue
            assert node.state.phase == "STANDBY"
            assert {r.mode for r in node.trace} == {"STOP1"}
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
        dup = replace(sc, slaves=(sc.slaves[0], sc.slaves[0]))
        with pytest.raises(hs.ConfigInvalid, match=r"slaves\[1\].address"):
            hs.run_scenario(dup)


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
        superposed = []
        real = ch.superpose
        def spy(waves, offsets, length):
            superposed.append(list(offsets))
            return real(waves, offsets, length)
        monkeypatch.setattr(ch, "superpose", spy)
        report = hs.run_scenario(sc)
        assert report.nodes["slave1"].frames_sent == 1
        # One superposition per transmission, in order of reception: the
        # command, its repeat, slave2's frame and slave1's reply.
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
        # The report itself (timeline, energy traces) grows by about 5 kB per
        # poll, 4 MB over the extra 900 polls.  A kept waveform pair costs
        # about 350 kB per poll.
        assert long - short < 8 * 2**20

    def test_completed_transmissions_are_retired(self):
        sim = hs._Sim(scn.multi_point_scenario(polls_per_slave=2))
        sim.run()
        assert sim.tx_count == 20
        assert sim.on_air == []


class TestEnergyConsistency:
    def test_report_energy_matches_charge_consumed(self):
        sc = scn.single_point_scenario()
        sim = hs._Sim(sc)
        report = sim.run()
        budgets = {"master": sc.master_budget, "slave1": sc.slaves[0].budget}
        for node_id, node in sim.nodes.items():
            uah, joules = pw.charge_consumed(node.trace, budgets[node_id],
                                             pw.STANDBY_BUDGET_MODES)
            assert report.nodes[node_id].energy_uah == pytest.approx(uah)
            assert report.nodes[node_id].energy_joules == pytest.approx(joules)

    def test_trace_durations_cover_scenario(self):
        sc = scn.single_point_scenario()
        sim = hs._Sim(sc)
        sim.run()
        for node in sim.nodes.values():
            total = sum(r.duration_s for r in node.trace)
            assert total == pytest.approx(sc.duration_s)

    def test_actions_past_the_end_of_the_run_are_dropped(self):
        # End the run 3 us after slave1 decodes its command: its 7.8 us wake
        # and the reply it would start then fall after the run.
        base = scn.single_point_scenario()
        decoded = next(e["time_s"] for e in hs.run_scenario(base).timeline
                       if e["kind"] == "frame_decoded" and e["node"] == "slave1")
        sc = replace(base, duration_s=decoded + 3e-6)
        sim = hs._Sim(sc)
        report = sim.run()
        assert all(e["time_s"] <= sc.duration_s for e in report.timeline)
        assert report.nodes["slave1"].frames_sent == 0
        for node in sim.nodes.values():
            assert sum(r.duration_s for r in node.trace) == pytest.approx(sc.duration_s)


MASTER_ONLY = pw.UnitBudget(gating=frozenset({"master"}))


class TestGating:
    """A slave's budget gating holds for the whole run and sets its static draw."""

    def test_gated_slaves_report_less_energy(self, multi_point_small):
        all_on = hs.run_scenario(multi_point_small)
        gated_sc = replace(multi_point_small, slaves=tuple(
            replace(spec, budget=MASTER_ONLY) for spec in multi_point_small.slaves))
        sim = hs._Sim(gated_sc)
        gated = sim.run()
        for node_id, node in sim.nodes.items():
            if node_id == "master":
                assert gated.nodes[node_id] == all_on.nodes[node_id]
                continue
            assert gated.nodes[node_id].energy_uah < all_on.nodes[node_id].energy_uah
            uah, _ = pw.charge_consumed(node.trace, MASTER_ONLY, pw.STANDBY_BUDGET_MODES)
            assert gated.nodes[node_id].energy_uah == uah

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

    def test_memory_does_not_grow_with_the_bit_count(self):
        cfg = md.ModemConfig()
        assert cfg.samples_per_bit == 224

        def peak_traced_bytes(chunks):
            tracemalloc.start()
            try:
                hs.measure_ber(cfg, [6.0], chunks * 2000, seed=5, chunk_bits=2000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_traced_bytes(10), peak_traced_bytes(40)
        assert abs(long - short) <= 0.1 * short
        # The noise buffers, one per drawing thread plus one, and one
        # modulated chunk, with room for one more chunk-sized temporary.
        chunk_bytes = 2001 * 224 * 8
        assert max(short, long) <= (hs._draw_threads() + 3) * chunk_bytes


class TestMeasureBerThreads:
    """The noise draws run on worker threads; everything else stays on the main thread."""

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

    def test_modem_runs_only_on_the_main_thread(self, monkeypatch):
        callers = []
        for name in ("modulate", "demodulate"):
            def record(*args, _real=getattr(md, name), **kwargs):
                callers.append(threading.current_thread())
                return _real(*args, **kwargs)
            monkeypatch.setattr(md, name, record)
        hs.measure_ber(self.CFG, [3.0, 6.0], 9000, seed=5, chunk_bits=700)
        assert len(callers) == 2 * 2 * 13
        assert set(callers) == {threading.main_thread()}

    def test_a_failed_chunk_raises_and_shuts_the_pool_down(self, monkeypatch):
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
            hs.measure_ber(self.CFG, [6.0], 20_000, seed=5)
        assert len(calls) == 3
        assert threading.active_count() == threads_before


class TestReportIo:
    def test_json_round_trip(self, single_point_report, tmp_path):
        path = tmp_path / "report.json"
        hs.emit_report(single_point_report, "json", path)
        back = hs.Report.from_dict(json.loads(path.read_text()))
        assert back.to_dict() == single_point_report.to_dict()

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

    def test_unwritable_destination(self, single_point_report, tmp_path):
        with pytest.raises(hs.IoFailure):
            hs.emit_report(single_point_report, "json", tmp_path / "no" / "dir.json")

    def test_waveform_csv_export(self, tmp_path):
        path = tmp_path / "wave.csv"
        hs.write_waveform_csv(np.array([1.0, -0.5]), 10.0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,volts"
        assert lines[1].startswith("0.0,1.0")
        assert lines[2].startswith("0.1,-0.5")

    def test_waveform_csv_matches_csv_writer(self, tmp_path):
        # Reference: one csv.writer row per sample, as the export was first written.
        fs = 23.38e6
        samples = np.random.default_rng(3).normal(0.0, 1e-3, 70_001)
        hs.write_waveform_csv(samples, fs, tmp_path / "wave.csv")
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "volts"])
            for i, v in enumerate(samples):
                writer.writerow([i / fs, repr(float(v))])
        assert (tmp_path / "wave.csv").read_bytes() == ref.read_bytes()


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


class TestValidate:
    """Values of the right type that would crash the run are rejected up front."""

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
        hs._Sim(sc)
        with pytest.raises(hs.ConfigInvalid, match=f"^{re.escape(path)}: "):
            hs._Sim(edit(sc))
