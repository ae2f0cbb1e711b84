"""Check one ``perfbench/run.py --workload all`` run's standard output.

    python3 perfbench/run.py --workload all --seed 7 --seconds 1 --trace 0 \
        | python3 bench/check.py poll-115k=HASH poll-4800-collide=HASH ber-sweep=HASH

run.py exits 0 even when a workload's invariant check fails, so this reads
its result lines as ``bench/record.py`` does: every workload must have one,
correct with no failed operation, and each workload named as a
``workload=sha256`` argument must have printed that output hash.  Exits 1
otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import results_by_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (on the path record.py sets)


def problems(stdout: str, pinned: dict) -> list:
    """What is wrong with run.py's output, given the pinned output hashes."""
    results = results_by_workload(stdout)
    found = [f"no result for {name}" for name in WORKLOADS if name not in results]
    for name, result in results.items():
        if result.get("correct") is not True or result.get("failed") != 0:
            found.append(f"{name}: correct {result.get('correct')!r}, "
                         f"failed {result.get('failed')!r}")
    for name, digest in pinned.items():
        if results.get(name, {}).get("output_sha256") != digest:
            found.append(f"{name}: output sha256 is not the pinned {digest}")
    return found


def main(argv: list) -> int:
    pinned = dict(arg.split("=", 1) for arg in argv)
    found = problems(sys.stdin.read(), pinned)
    for p in found:
        print(f"PROBLEM: {p}")
    print(f"{len(WORKLOADS)} workloads, {len(pinned)} pinned output hashes, "
          f"{len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
