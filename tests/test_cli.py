import json

import pytest
from click.testing import CliRunner

from icsim import modem as md
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


def test_run_rejects_ebn0_on_a_zero_volt_signal_with_exit_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dict(SCENARIO, modem={"amplitude_v": 0.0})))
    result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "ebn0_db" in result.output


def test_ber_sweep_writes_csv(tmp_path):
    out = tmp_path / "ber.csv"
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "20,30",
                                       "--bits", "5000", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "ebn0_db,measured_ber,theoretical_ber"
    assert len(lines) == 3


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


def test_ber_sweep_unwritable_out_is_an_io_error_with_exit_1(tmp_path):
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "5", "--bits", "100",
                                       "--out", str(tmp_path / "missing" / "ber.csv")])
    assert result.exit_code == 1
    assert "io error" in result.output
    assert isinstance(result.exception, SystemExit)
