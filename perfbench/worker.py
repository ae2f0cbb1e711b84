"""One benchmark run in a fresh process; prints its result as one JSON line.

Modes:
  setup   import icsim and build the workload inputs, then stop;
  plain   also run the workload untraced;
  traced  run it with every function in tracer.TRACED wrapped in spans.

setup_s counts from the first statement of this file, so it includes the
import of icsim (and of numpy and scipy under it) but not interpreter start.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import signal as sps  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("scenarios", "frame_codec", "modem", "channel", "nodes", "power", "harness")
REF_SECONDS = 0.5  # reference timing before and after each run


def import_icsim() -> dict:
    """The icsim modules from this checkout's source tree, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"icsim.{name}") for name in MODULES}
    for module in modules.values():
        if not Path(module.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"icsim imported from {module.__file__}, not {src}")
    return modules


def ref_pass_s() -> float:
    """Mean seconds of one pass of a fixed kernel that runs no icsim code.

    The host's speed drifts by tens of percent over minutes, and a run's wall
    time drifts with it.  Timed in the same process just before and after the
    run, this kernel drifts alike, so their ratio cancels much of the drift.
    Its parts mirror the simulator's mix: an interpreter loop, a Gaussian
    draw and an IIR filter.
    """
    passes, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < REF_SECONDS:
        acc = 0
        for i in range(100_000):
            acc += i * i
        sps.lfilter([1.0, 0.5], [1.0, -0.3], np.random.default_rng(passes).normal(size=100_000))
        passes += 1
    return (time.perf_counter() - t0) / passes


def run_poll(m: dict, inputs: dict, out: Path) -> dict:
    """Scenario load to written report files: the timed part of a poll workload."""
    sc = m["scenarios"].scenario_from_dict(inputs["scenario"])
    report = m["harness"].run_scenario(sc)
    m["harness"].emit_report(report, "json", out / "report.json")
    m["harness"].emit_report(report, "csv", out / "report.csv")
    m["harness"].emit_timeline(report, out / "timeline.jsonl")
    return {"bits": report.link.physical_bits}


def check_poll(inputs: dict, out: Path) -> dict:
    raw = (out / "report.json").read_bytes()
    with open(out / "timeline.jsonl") as fh:
        timeline_lines = sum(1 for _ in fh)
    with open(out / "report.csv", newline="") as fh:
        csv_rows = sum(1 for _ in csv.reader(fh))
    failed, problems = workloads.check_poll_report(inputs, json.loads(raw),
                                                   timeline_lines, csv_rows)
    return {"attempted": len(inputs["expected"]), "failed": failed, "problems": problems,
            "digest": hashlib.sha256(raw).hexdigest()}


def run_ber(m: dict, inputs: dict) -> dict:
    """One measure_ber call per grid point, each with its own bit count and seed."""
    cfg = m["modem"].ModemConfig(**inputs["modem"])
    results = []
    for point in inputs["points"]:
        results += m["harness"].measure_ber(cfg, [point["ebn0_db"]], point["n_bits"],
                                            point["seed"], chunk_bits=inputs["chunk_bits"])
    return {"bits": sum(p["n_bits"] for p in inputs["points"]), "results": results}


def check_ber(inputs: dict, results: list) -> dict:
    failed, problems, worst = workloads.check_ber(inputs, results)
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    return {"attempted": len(inputs["points"]), "failed": failed, "problems": problems,
            "digest": digest, "ber_rel_err": worst}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="empty directory for the run's report files and spans")
    args = parser.parse_args()

    m = import_icsim()
    inputs = workloads.generate(args.workload, args.seed)
    result = {"setup_s": time.perf_counter() - T0,
              "inputs_digest": workloads.inputs_digest(inputs)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ref_before = ref_pass_s()
    tr = tracer.Tracer() if args.mode == "traced" else None
    with tr.installed(m) if tr else nullcontext():
        if tr is None and tracer.wrapped_functions(m):
            raise SystemExit("an untraced run found wrapped functions")
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with tr.span(tracer.ROOT) if tr else nullcontext():
            if args.workload == "ber-sweep":
                ran = run_ber(m, inputs)
            else:
                ran = run_poll(m, inputs, args.out)
        run_s = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        ref_s=(ref_before + ref_pass_s()) / 2,
        run_s=run_s,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024,
        bits=ran["bits"],
        # Checked after the timed run: every traced wrapper is gone again.
        still_wrapped=tracer.wrapped_functions(m),
    )
    if args.workload == "ber-sweep":
        result.update(check_ber(inputs, ran["results"]))
    else:
        result.update(check_poll(inputs, args.out))
    if tr:
        tr.write(args.out / "spans.jsonl")
        result["layers"] = tr.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
