import json
import warnings

import pytest
from click.testing import CliRunner

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


def test_ber_sweep_unwritable_out_is_an_io_error_with_exit_1(tmp_path):
    result = CliRunner().invoke(main, ["ber-sweep", "--ebn0", "5", "--bits", "100",
                                       "--out", str(tmp_path / "missing" / "ber.csv")])
    assert result.exit_code == 1
    assert "io error" in result.output
    assert isinstance(result.exception, SystemExit)
