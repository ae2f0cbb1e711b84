import hashlib
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from icsim import acceptance, cli
from icsim import harness as hs
from icsim import modem as md
from icsim import scenarios as scn
from icsim.cli import main

SCENARIO = {
    "duration_s": 0.2,
    "seed": 4,
    "modem": {"bit_rate_bps": 115200},
    "channel": {"turns": 4, "cable_length_m": 2.0},
    "slaves": [{"address": "64 49 46 68 00 53", "mode": "function_test"}],
    "poll_schedule": [[0.01, "64 49 46 68 00 53"]],
}


def test_run_writes_reports(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["nodes"]["master"]["frames_received"] == 1
    assert (out / "report.csv").exists()
    assert (out / "timeline.jsonl").exists()


def test_the_readmes_example_scenario_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"^```json\n(.*?)^```", readme, re.DOTALL | re.MULTILINE).group(1)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(example)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    timeline = [json.loads(line) for line in (out / "timeline.jsonl").read_text().splitlines()]
    assert [(e["node"], e["payload_hex"]) for e in timeline if e["kind"] == "report"] == [
        ("master", "13 07")]


def test_run_dump_waveforms(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(out), "--dump-waveforms"])
    assert result.exit_code == 0, result.output
    dumps = list(out.glob("tx*.csv"))
    assert len(dumps) == 2  # command and reply
    timeline = [json.loads(line) for line in (out / "timeline.jsonl").read_text().splitlines()]
    starts = [e for e in timeline if e["kind"] == "tx_start"]
    cfg = md.ModemConfig(bit_rate_bps=SCENARIO["modem"]["bit_rate_bps"])
    for index, entry in enumerate(starts):
        lines = (out / f"tx{index:04d}_{entry['node']}.csv").read_text().splitlines()
        assert lines[0] == "time_s,volts"
        wave = md.modulate(md.bytes_to_bits(bytes.fromhex(entry["frame_hex"])), cfg)
        assert len(lines) == len(wave) + 1
        volts = [float(line.split(",")[1]) for line in lines[1:]]
        assert volts == wave.tolist()


def test_run_whose_dump_fails_writes_no_report(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    (out / "tx0001_slave1.csv").mkdir(parents=True)  # the reply's dump cannot replace it
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(out), "--dump-waveforms"])
    assert result.exit_code == 1
    assert "io error" in result.output
    assert sorted(p.name for p in out.iterdir()) == ["tx0000_master.csv", "tx0001_slave1.csv"]


def scenario_dict(sc: hs.Scenario) -> dict:
    """The scenario file of a canned scenario: only the keys those set."""
    return {
        "duration_s": sc.duration_s, "seed": sc.seed, "ebn0_db": sc.ebn0_db,
        "modem": {"bit_rate_bps": sc.modem.bit_rate_bps},
        "channel": {"cable_length_m": sc.channel.cable_length_m},
        "slaves": [{"address": s.address.hex(), "mode": s.mode, "temperature_c": s.temperature_c}
                   for s in sc.slaves],
        "poll_schedule": [[t, address.hex()] for t, address in sc.poll_schedule],
        "collision_injections": [list(entry) for entry in sc.collision_injections],
    }


def injected_multi_point_scenario() -> hs.Scenario:
    """Two polls at 115200 bps; slave3 cuts into the first command halfway."""
    base = scn.multi_point_scenario(polls_per_slave=1)
    half_command = md.frame_airtime_s(hs.FRAME_LEN, base.modem) / 2
    return replace(base, poll_schedule=base.poll_schedule[:2],
                   collision_injections=((base.poll_schedule[0][0] + half_command, "slave3"),))


# sha256 over each tx*.csv's name and bytes, in name order, per run.
DUMP_DIGESTS = {
    "single_point": (
        scn.single_point_scenario,
        "7a47560381bbc1ca06d098ee1865329b987ddf88b97738e6514739734fc98587"),
    "multi_point_injected": (
        injected_multi_point_scenario,
        "dabc89ee736a0e7c7d25ed72a84aba33bbb9cea7bb6d4335edf9bd92949bd685"),
}


@pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
def test_dumped_waveforms_are_pinned(tmp_path, name):
    build, digest = DUMP_DIGESTS[name]
    sc = build()
    assert scn.scenario_from_dict(scenario_dict(sc)) == sc
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_dict(sc)))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(out), "--dump-waveforms"])
    assert result.exit_code == 0, result.output
    sha = hashlib.sha256()
    for path in sorted(out.glob("tx*.csv")):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    assert sha.hexdigest() == digest


def test_run_rejects_a_directory_as_scenario_with_exit_2(tmp_path):
    result = CliRunner().invoke(main, ["run", "--scenario", str(tmp_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "is a directory" in result.output


def test_run_rejects_bad_config_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"seed": 1}))  # duration missing
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "duration_s" in result.output


def test_run_rejects_ignored_noise_knob_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, channel={"noise_sigma_v": 5.0})))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "channel.noise_sigma_v" in result.output


def test_run_rejects_a_temperature_on_a_function_test_slave_with_exit_2(tmp_path):
    # A function_test slave replies with a fixed payload, so the temperature
    # would change nothing.
    slave = dict(SCENARIO["slaves"][0], temperature_c=35.0)
    result = run_with_warnings_as_errors(tmp_path, dict(SCENARIO, slaves=[slave]))
    assert result.exit_code == 2, result.output
    assert "config error: slaves[0].temperature_c: only used in sensor mode" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_rejects_ebn0_on_a_zero_volt_signal_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, modem={"amplitude_v": 0.0})))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "ebn0_db" in result.output


def test_run_rejects_an_overflowing_front_end_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, ebn0_db=None,
                                             front_end={"passband_gain": 1e303})))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "front_end: " in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("gain, exit_code", [(1.0, 2), (6.0, 2), (3.0, 0)])
def test_run_accepts_only_the_benchs_passband_gain(tmp_path, gain, exit_code):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, front_end={"passband_gain": gain})))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == exit_code, result.output
    assert ("config error: front_end.passband_gain: " in result.output) == (exit_code == 2)


def test_run_rejects_overflowing_interference_with_exit_2(tmp_path):
    tones = [[50e3, 1.5e308], [3e6, 1.5e308]]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, ebn0_db=None,
                                             channel={"interference": tones})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                           "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "channel.interference: " in result.output


def test_run_rejects_a_tone_whose_phase_overflows_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, channel={"interference": [[1.7e308, 0.5]]})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                           "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error: channel.interference[0]: " in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("front_end", [
    {"center_hz": 5e-324},  # scipy's bilinear ends in an AttributeError
    {"center_hz": 1e-300, "quality_factor": 1e-300, "passband_gain": 1e-9},  # BadCoefficients
], ids=["unbuildable", "badly_conditioned"])
def test_run_rejects_a_front_end_without_a_usable_biquad_with_exit_2(tmp_path, front_end):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, ebn0_db=None, front_end=front_end)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                           "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error: front_end: " in result.output


def test_run_rejects_a_budget_past_float64_with_exit_2(tmp_path):
    budget = {"carrier_ua": 1.7e308, "signal_processing_ua": 1.7e308}
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, master_budget=budget)))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error: master_budget: " in result.output
    assert not (tmp_path / "out" / "report.json").exists()


def run_with_warnings_as_errors(tmp_path, scenario):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                         "--out", str(tmp_path / "out")])


def test_run_rejects_a_budget_whose_joules_overflow_with_exit_2(tmp_path):
    # The charge fits a float64, but uah_to_joules's joules would not.
    slave = dict(SCENARIO["slaves"][0], budget={"carrier_ua": 1e308})
    result = run_with_warnings_as_errors(tmp_path, dict(SCENARIO, duration_s=0.5,
                                                        slaves=[slave]))
    assert result.exit_code == 2, result.output
    assert "config error: slaves[0].budget: " in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_rejects_a_noise_sigma_past_float64_with_exit_2(tmp_path):
    channel = dict(SCENARIO["channel"], noise_sigma_v=1e308)
    result = run_with_warnings_as_errors(tmp_path, dict(SCENARIO, ebn0_db=None,
                                                        channel=channel))
    assert result.exit_code == 2, result.output
    assert "config error: channel.noise_sigma_v: " in result.output


def test_run_rejects_colliding_transmissions_past_float64_with_exit_2(tmp_path):
    # slave1 starts a frame while the master's command is on air, and the
    # two sum at the transmit amplitude before the channel's gain.
    poll_s = SCENARIO["poll_schedule"][0][0]
    result = run_with_warnings_as_errors(tmp_path, dict(
        SCENARIO, ebn0_db=None, modem=dict(SCENARIO["modem"], amplitude_v=1.7e308),
        collision_injections=[[poll_s + 1e-4, "slave1"]]))
    assert result.exit_code == 2, result.output
    assert "config error: modem.amplitude_v: " in result.output


def test_run_rejects_a_tone_and_colliding_transmissions_past_float64_with_exit_2(tmp_path):
    # slave1 starts a frame 528 samples into the master's command, so the two
    # carriers add in phase; one of them with the tone stays finite.
    address = SCENARIO["slaves"][0]["address"]
    result = run_with_warnings_as_errors(tmp_path, dict(
        SCENARIO, duration_s=0.001, ebn0_db=None, modem={"amplitude_v": 5.9e307},
        channel=dict(SCENARIO["channel"], interference=[[1000.0, 1.777e308]]),
        poll_schedule=[[0.0, address]], collision_injections=[[1.976e-5, "slave1"]]))
    assert result.exit_code == 2, result.output
    assert "config error: channel.interference: " in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_rejects_stacked_injections_past_float64_with_exit_2(tmp_path):
    # Three master injections at once put five transmissions on air.
    result = run_with_warnings_as_errors(tmp_path, dict(
        SCENARIO, duration_s=0.001, ebn0_db=None, modem={"amplitude_v": 8e307},
        poll_schedule=[], collision_injections=[[1e-4, "master"]] * 3))
    assert result.exit_code == 2, result.output
    assert "config error: modem.amplitude_v: 5 transmissions on air" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_rejects_the_current_of_an_ungated_unit_with_exit_2(tmp_path):
    # The carrier is not powered, so its current would change nothing.
    slave = dict(SCENARIO["slaves"][0], budget={"carrier_ua": 100.0, "gating": ["master"]})
    result = run_with_warnings_as_errors(tmp_path, dict(SCENARIO, slaves=[slave]))
    assert result.exit_code == 2, result.output
    assert ("config error: slaves[0].budget.carrier_ua: only used when 'carrier' is in gating"
            in result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_with_a_frame_injected_mid_reply_sleeps_the_slave_when_its_reply_ends(tmp_path):
    # slave1 is injected 1 us after the command ends, so its injected frame
    # ends at 8263.94 us, while its reply is on air until 8274.25 us.
    sc = scn.single_point_scenario(ebn0_db=None)
    poll_s, address = sc.poll_schedule[0]
    airtime_s = md.frame_airtime_s(hs.FRAME_LEN, sc.modem)
    result = run_with_warnings_as_errors(tmp_path, {
        "duration_s": sc.duration_s, "seed": sc.seed, "ebn0_db": None,
        "modem": {"bit_rate_bps": sc.modem.bit_rate_bps}, "channel": {"cable_length_m": 700.0},
        "slaves": [{"address": address.hex(), "mode": "function_test"}],
        "poll_schedule": [[poll_s, address.hex()]],
        "collision_injections": [[poll_s + airtime_s + 1e-6, "slave1"]]})
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "timeline.jsonl").read_text().splitlines()
    slave = [e for e in map(json.loads, lines) if e["node"] == "slave1"]
    injected, reply = [e["time_s"] for e in slave if e["kind"] == "tx_start"]
    assert [e["time_s"] for e in slave if e["kind"] == "injection"] == [injected]
    sleeps = [e["time_s"] for e in slave if e.get("mode") == "STOP1"]
    assert sleeps == [reply + airtime_s]
    assert round(sleeps[0] * 1e6, 2) == 8274.25
    assert [e["message"] for e in slave if e["kind"] == "log"] == [
        "slave ignored TxDone in TRANSMIT"]


def test_ber_sweep_writes_csv(tmp_path):
    out = tmp_path / "ber.csv"
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "20,30",
                                       "--bits", "5000", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "ebn0_db,measured_ber,theoretical_ber"
    assert len(lines) == 3


@pytest.mark.parametrize("existing", [None, b"ebn0_db,measured_ber,theoretical_ber\r\n"],
                         ids=["absent", "existing"])
def test_ber_sweep_that_fails_leaves_no_csv_and_an_existing_one_untouched(
        tmp_path, monkeypatch, existing):
    def fail(*args, **kwargs):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(hs, "measure_ber", fail)
    out = tmp_path / "ber.csv"
    if existing is not None:
        out.write_bytes(existing)
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "5", "--bits", "100",
                                       "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, RuntimeError)
    assert (out.read_bytes() if out.exists() else None) == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == (["ber.csv"] if existing else [])


def test_seed_override_changes_report(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    noisy = dict(SCENARIO, ebn0_db=6.0)
    scenario_path.write_text(json.dumps(noisy))
    runner = CliRunner()
    outputs = []
    for seed in (1, 2):
        out = tmp_path / f"out{seed}"
        result = runner.invoke(main, ["run", "--scenario", str(scenario_path),
                                      "--out", str(out), "--seed", str(seed)])
        assert result.exit_code == 0, result.output
        outputs.append((out / "timeline.jsonl").read_text())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("text", [json.dumps(SCENARIO)[:40], "[" * 10**5 + "]" * 10**5])
def test_run_rejects_unreadable_json_with_exit_2(tmp_path, text):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(text)
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "unreadable JSON" in result.output


def test_run_rejects_negative_seed_override_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert result.exit_code == 2


def test_ber_sweep_rejects_zero_bits_with_exit_2(tmp_path):
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "5", "--bits", "0",
                                       "--out", str(tmp_path / "ber.csv")])
    assert result.exit_code == 2
    assert "--bits" in result.output


@pytest.mark.parametrize("args, message", [
    (["--ebn0", "4000"], "config error: --ebn0: 4000.0 dB is outside"),
    (["--ebn0", "5,nan"], "config error: --ebn0: nan dB is outside"),
    (["--ebn0", "inf"], "config error: --ebn0: inf dB is outside"),
    (["--ebn0", "5", "--seed", "-1"], "--seed"),
])
def test_ber_sweep_rejects_unusable_input_with_exit_2(tmp_path, args, message):
    out = tmp_path / "ber.csv"
    result = CliRunner().invoke(main, ["ber-sweep", *args, "--bits", "100", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_run_unwritable_out_is_an_io_error_with_exit_1(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(scenario_path / "sub")])
    assert result.exit_code == 1
    assert "io error" in result.output
    assert isinstance(result.exception, SystemExit)


def test_run_unreadable_scenario_is_an_io_error_with_exit_1(tmp_path, monkeypatch):
    # chmod 000 does not stop root, so the read fails by a stand-in.
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))

    def unreadable(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "load_scenario", unreadable)
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert f"io error: [Errno 13] Permission denied: '{scenario_path}'" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


def test_ber_sweep_unwritable_out_is_an_io_error_with_exit_1(tmp_path):
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "5", "--bits", "100",
                                       "--out", str(tmp_path / "missing" / "ber.csv")])
    assert result.exit_code == 1
    assert "io error" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("second_passes, exit_code", [(True, 0), (False, 1)],
                         ids=["all_pass", "one_fails"])
def test_validate_exits_0_only_when_every_criterion_passes(monkeypatch, second_passes, exit_code):
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (1, "first", lambda: (True, "fine")),
        (2, "second", lambda: (second_passes, "checked")),
    ])
    result = CliRunner().invoke(main, ["validate"])
    assert result.exit_code == exit_code, result.output
    lines = result.output.splitlines()
    assert lines[0] == "PASS criterion 1: first -- fine"
    assert lines[1] == f"{'PASS' if second_passes else 'FAIL'} criterion 2: second -- checked"
    assert len(lines) == 2
