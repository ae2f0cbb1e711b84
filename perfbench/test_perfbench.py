"""Tests of the benchmark's own code: input generation, checks and tracing.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import importlib

import pytest

import tracer
import workloads

MODULES = {name: importlib.import_module(f"icsim.{name}")
           for name in ("scenarios", "frame_codec", "modem", "channel", "nodes", "power",
                        "harness")}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first = workloads.generate(name, 7)
    assert workloads.inputs_digest(first) == workloads.inputs_digest(workloads.generate(name, 7))
    assert workloads.inputs_digest(first) != workloads.inputs_digest(workloads.generate(name, 8))


@pytest.mark.parametrize("seed", range(20))
def test_poll_inputs_stay_in_range(seed):
    for name in ("poll-115k", "poll-4800-collide"):
        inputs = workloads.generate(name, seed)
        sc = inputs["scenario"]
        assert all(0 <= s["temperature_c"] < 100 for s in sc["slaves"])
        assert len({s["address"] for s in sc["slaves"]}) == workloads.SLAVES
        assert len(inputs["expected"]) == len(sc["poll_schedule"]) == workloads.POLLS[name]
        # Each injection starts in the middle of a command.
        airtime = workloads.frame_airtime_s(workloads.RATES[name])
        polls = [t for t, _ in sc["poll_schedule"]]
        for t, _ in sc["collision_injections"]:
            assert any(p + 0.4 * airtime <= t <= p + 0.6 * airtime for p in polls)
        assert inputs["expected"].count(None) == len(sc["collision_injections"])
        MODULES["scenarios"].scenario_from_dict(sc)


def test_ber_check_flags_points_outside_the_band():
    inputs = workloads.generate("ber-sweep", 1)
    exact = [(p["ebn0_db"], workloads.theoretical_ber(p["ebn0_db"])) for p in inputs["points"]]
    rounded = [(db, round(ber * p["n_bits"]) / p["n_bits"])
               for (db, ber), p in zip(exact, inputs["points"])]
    assert workloads.check_ber(inputs, rounded)[:2] == (0, [])
    high = [(db, ber * 1.25) for db, ber in rounded]
    assert workloads.check_ber(inputs, high)[0] == len(rounded)


def small_poll_inputs():
    inputs = workloads.generate("poll-115k", 3)
    sc = dict(inputs["scenario"])
    sc["poll_schedule"] = sc["poll_schedule"][:4]
    sc["duration_s"] = sc["poll_schedule"][-1][0] + workloads.poll_spacing_s(115200)
    return {"scenario": sc, "expected": inputs["expected"][:4]}


def test_poll_check_accepts_a_real_run_and_counts_wrong_payloads(tmp_path):
    inputs = small_poll_inputs()
    report = MODULES["harness"].run_scenario(MODULES["scenarios"].scenario_from_dict(
        inputs["scenario"])).to_dict()
    rows = len(report["nodes"]) + 2
    assert workloads.check_poll_report(inputs, report, len(report["timeline"]), rows) == (0, [])
    wrong = dict(inputs, expected=["00 00"] + inputs["expected"][1:])
    assert workloads.check_poll_report(wrong, report, len(report["timeline"]), rows)[0] == 1


def test_tracer_wraps_then_restores_every_function():
    originals = {(m, f): getattr(MODULES[m], f) for m, f in tracer.TRACED}
    tr = tracer.Tracer()
    with tr.installed(MODULES):
        assert len(tracer.wrapped_functions(MODULES)) == len(tracer.TRACED)
    assert tracer.wrapped_functions(MODULES) == []
    assert all(getattr(MODULES[m], f) is fn for (m, f), fn in originals.items())


def test_traced_run_covers_every_layer_and_self_times_add_up():
    inputs = small_poll_inputs()
    tr = tracer.Tracer()
    with tr.installed(MODULES), tr.span(tracer.ROOT):
        sc = MODULES["scenarios"].scenario_from_dict(inputs["scenario"])
        MODULES["harness"].run_scenario(sc)
    metrics = tr.layer_metrics()
    for layer in tracer.LAYERS:
        if layer != "harness.emit":
            assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["channel.frontend_coefficients.calls"] == metrics["channel.condition.calls"]
    assert metrics["modem.modulate.samples"] > 0
    assert metrics["frame_codec.decode.errors"] == 0
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".s"))
    assert self_sum == pytest.approx(metrics["trace.root_s"], rel=1e-9)
    roots = [s for s in tr.spans if s[3] is None]
    assert [s[0] for s in roots] == [tracer.ROOT]


def test_decode_errors_are_counted_from_raising_spans():
    tr = tracer.Tracer()
    with tr.installed(MODULES):
        with pytest.raises(MODULES["frame_codec"].CodecError):
            MODULES["frame_codec"].decode_frame(b"\x00")
    metrics = tr.layer_metrics()
    assert metrics["frame_codec.decode.errors"] == 1
    assert metrics["frame_codec.decode.ok_ratio"] == 0.0
