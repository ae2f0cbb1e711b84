"""Record one benchmark run of every workload as BENCH_<pr>.json.

    python3 bench/record.py --pr 16

Runs ``perfbench/run.py --workload all --seed 7 --trace 0`` as it is and
writes, beside the result lines, what a reader needs to tell host noise from
a regression: the core counts, the BLAS and OpenMP thread variables, the git
revision, the numpy and scipy versions, and the host's idle and steal
jiffies from /proc/stat before and after the run.  A pair whose cpu_ref
equals its run_ref can then be shown to have been missing a core.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import THREAD_VARS  # noqa: E402

SEED = 7
COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", str(SEED), "--trace", "0"]


def cpu_jiffies(stat_text: str) -> dict:
    """Idle and steal jiffies summed over all cores, from /proc/stat's "cpu" line."""
    fields = stat_text.splitlines()[0].split()
    return {"idle": int(fields[4]), "steal": int(fields[8])}


def read_jiffies() -> dict | None:
    try:
        return cpu_jiffies(Path("/proc/stat").read_text())
    except OSError:
        return None


def results_by_workload(stdout: str) -> dict:
    """Each workload's JSON result line, with the output hash printed above it."""
    results, name, digest = {}, None, None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            name = line.split()[1]
        elif "output sha256" in line:
            digest = line.split()[-1]
        elif line.startswith("{"):
            results[name] = {"output_sha256": digest, **json.loads(line)}
    return results


def host() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def assemble(stdout: str, host_info: dict, jiffies_before, jiffies_after) -> dict:
    """The BENCH file's content from run.py's standard output and the host."""
    return {
        "command": ["python3", *COMMAND],
        "seed": SEED,
        "results": results_by_workload(stdout),
        "host": host_info,
        "jiffies": {"before": jiffies_before, "after": jiffies_after},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    args = parser.parse_args()
    before = read_jiffies()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    after = read_jiffies()
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"perfbench/run.py exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    record = assemble(proc.stdout, host(), before, after)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
