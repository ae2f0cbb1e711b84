import csv
import json
import tracemalloc
from dataclasses import asdict, replace

import pytest

from icsim import channel as ch
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
            total = sum(r.duration_s for r in node.trace.records)
            assert total == pytest.approx(sc.duration_s)


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
            assert {r.gating for r in node.trace.records} == {frozenset({"master"})}
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


class TestMeasureBer:
    def test_deterministic(self):
        cfg = md.ModemConfig()
        a = hs.measure_ber(cfg, [6.0], 20_000, seed=5)
        b = hs.measure_ber(cfg, [6.0], 20_000, seed=5)
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
