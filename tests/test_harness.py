import json
import tracemalloc
from dataclasses import replace

import pytest

from icsim import frame_codec as fc
from icsim import harness as hs
from icsim import modem as md
from icsim import power as pw
from icsim import scenarios as scn


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
                assert {r.mode for r in node.trace.records} == {"RUN"}
                continue
            assert node.state.phase == "STANDBY"
            assert {r.mode for r in node.trace.records} == {"STOP1"}
        assert report.link.physical_bits == 0

    def test_multi_point_correct_temperatures(self, multi_point_small):
        report = hs.run_scenario(multi_point_small)
        assert sum(s.decode_errors for s in report.nodes.values()) == 0
        assert sum(s.timeouts for s in report.nodes.values()) == 0
        payloads = set(reported_payloads(report))
        assert "13 07" in payloads  # 19.7 C
        assert "18 08" in payloads  # 24.8 C

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
        assert sim.live == []


class TestEnergyConsistency:
    def test_report_energy_matches_charge_consumed(self):
        sc = scn.single_point_scenario()
        report = hs.run_scenario(sc)
        traces = hs.node_energy_traces(sc)
        budgets = {"master": sc.master_budget, "slave1": sc.slaves[0].budget}
        for node_id, trace in traces.items():
            uah, joules = pw.charge_consumed(trace, budgets[node_id],
                                             pw.STANDBY_BUDGET_MODES)
            assert report.nodes[node_id].energy_uah == pytest.approx(uah)
            assert report.nodes[node_id].energy_joules == pytest.approx(joules)

    def test_trace_durations_cover_scenario(self):
        sc = scn.single_point_scenario()
        for trace in hs.node_energy_traces(sc).values():
            assert sum(r.duration_s for r in trace.records) == pytest.approx(sc.duration_s)


class TestMeasureBer:
    def test_deterministic(self):
        cfg = md.ModemConfig()
        a = hs.measure_ber(cfg, [6.0], 20_000, seed=5)
        b = hs.measure_ber(cfg, [6.0], 20_000, seed=5)
        assert a == b

    def test_chunking_does_not_change_results(self):
        cfg = md.ModemConfig()
        a = hs.measure_ber(cfg, [6.0], 10_000, seed=5, chunk_bits=2000)
        b = hs.measure_ber(cfg, [6.0], 10_000, seed=5, chunk_bits=2000)
        assert a == b

    def test_high_snr_is_error_free(self):
        cfg = md.ModemConfig()
        (_, ber), = hs.measure_ber(cfg, [30.0], 20_000, seed=5)
        assert ber == 0.0


class TestReportIo:
    def test_json_round_trip(self, single_point_report, tmp_path):
        path = tmp_path / "report.json"
        hs.emit_report(single_point_report, "json", path)
        back = hs.Report.from_dict(json.loads(path.read_text()))
        assert back.to_dict() == single_point_report.to_dict()

    def test_csv_rows(self, single_point_report, tmp_path):
        path = tmp_path / "report.csv"
        hs.emit_report(single_point_report, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("node,")
        nodes = {line.split(",")[0] for line in lines[1:]}
        assert nodes == {"master", "slave1", "link"}

    def test_timeline_jsonl(self, single_point_report, tmp_path):
        path = tmp_path / "timeline.jsonl"
        hs.emit_timeline(single_point_report, path)
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries == single_point_report.timeline

    def test_unwritable_destination(self, single_point_report, tmp_path):
        with pytest.raises(hs.IoFailure):
            hs.emit_report(single_point_report, "json", tmp_path / "no" / "dir.json")


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
