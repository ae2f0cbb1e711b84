"""icsim benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload poll-115k --seed 1 --seconds 40 --trace 0

Each timed run happens in a fresh process (perfbench/worker.py), one at a
time, so setup_s includes the import and peak_rss_mb is that run's own high
water mark.  Runs repeat until --seconds have passed and medians are
reported.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced runs and prints the per-layer split.  BLAS and OpenMP
thread settings are left as the caller's environment has them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Printed for reading, but not in BENCHMARK.json: plain seconds drift with
# the host's speed, fail_share is 0 by design, and ber_rel_err varies with
# the seed by construction.
REPORTED = {"run_s": "s", "bits_per_s": "1/s", "cpu_s": "s", "ref_s": "s",
            "fail_share": "ratio", "ber_rel_err": "ratio"}


def declared_units(key: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


class RunFailed(RuntimeError):
    pass


def run_worker(mode: str, workload: str, seed: int, work_dir: Path) -> dict:
    out = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--out", str(out)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RunFailed(f"{mode} run of {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode == "traced":
            shutil.copy(out / "spans.jsonl", work_dir / f"spans-{workload}-{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(out, ignore_errors=True)


def collect(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Timed runs for about `seconds`; with trace, plain and traced alternate.

    A run is started only if, taking as long as the longest so far, it ends
    within `seconds`, once each mode has at least one run.
    """
    modes = ("plain", "traced") if trace else ("plain",)
    runs = {mode: [] for mode in modes}
    start = time.perf_counter()
    longest = 0.0
    while not all(runs.values()) or time.perf_counter() - start + longest <= seconds:
        mode = modes[sum(map(len, runs.values())) % len(modes)]
        t = time.perf_counter()
        runs[mode].append(run_worker(mode, workload, seed, work_dir))
        longest = max(longest, time.perf_counter() - t)
    setups = [r["setup_s"] for r in runs["plain"]]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker("setup", workload, seed, work_dir)["setup_s"])
    return {"runs": runs, "setups": setups}


def problems_of(timed: list) -> list:
    problems = [p for r in timed for p in r["problems"]]
    problems += [f"wrapped after the run: {r['still_wrapped']}" for r in timed if r["still_wrapped"]]
    if len({r["digest"] for r in timed}) != 1:
        problems.append("runs of one seed gave different outputs")
    if len({r["inputs_digest"] for r in timed}) != 1:
        problems.append("runs of one seed got different inputs")
    for r in timed:
        layers = r.get("layers")
        if layers:
            self_sum = sum(v for k, v in layers.items() if k.endswith(".s"))
            if abs(self_sum - layers["trace.root_s"]) > 1e-6 * layers["trace.root_s"]:
                problems.append(f"layer self times sum to {self_sum}, root is "
                                f"{layers['trace.root_s']}")
    return problems


def end_to_end(collected: dict) -> dict:
    """Gated metrics; times are in passes of the worker's reference kernel."""
    plain = collected["runs"]["plain"]
    med = statistics.median
    return {
        "setup_s": med(collected["setups"]),
        "run_ref": med(r["run_s"] / r["ref_s"] for r in plain),
        "bits_per_ref": med(r["bits"] * r["ref_s"] / r["run_s"] for r in plain),
        "cpu_ref": med(r["cpu_s"] / r["ref_s"] for r in plain),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }


def host_seconds(collected: dict) -> dict:
    """The same runs in plain seconds: printed, but they drift with the host."""
    plain = collected["runs"]["plain"]
    med = statistics.median
    return {
        "run_s": med(r["run_s"] for r in plain),
        "bits_per_s": med(r["bits"] / r["run_s"] for r in plain),
        "cpu_s": med(r["cpu_s"] for r in plain),
        "ref_s": med(r["ref_s"] for r in plain),
    }


def per_layer(collected: dict) -> dict:
    traced = collected["runs"]["traced"]
    plain = collected["runs"]["plain"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                   - statistics.median(r["run_s"] for r in plain))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    collected = collect(workload, seed, seconds, trace, work_dir)
    timed = [r for runs in collected["runs"].values() for r in runs]
    plain = collected["runs"]["plain"]
    problems = problems_of(timed)
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    values = per_layer(collected) if trace else end_to_end(collected)
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        problems.append(f"measured metrics {sorted(set(values) ^ set(units))} "
                        "differ from those BENCHMARK.json declares")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  nproc {os.cpu_count()}  "
          + "  ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS))
    for mode, runs in collected["runs"].items():
        times = sorted(r["run_s"] for r in runs)
        print(f"  {mode} runs: {len(runs)}  run_s min {times[0]:.4f} max {times[-1]:.4f}")
    print(f"  setup samples: {len(collected['setups'])}  output sha256 {plain[0]['digest']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    extra = {} if trace else host_seconds(collected)
    extra["fail_share"] = failed / attempted
    if "ber_rel_err" in plain[0]:
        extra["ber_rel_err"] = plain[0]["ber_rel_err"]
    for name, value in extra.items():
        print(f"  {name:40s} {value:>16.6g} {REPORTED[name]}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "icsim" / "__init__.py").is_file():
        print(f"no icsim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), work_dir)
        except (RunFailed, subprocess.TimeoutExpired) as err:
            print(f"benchmark run failed: {err}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
