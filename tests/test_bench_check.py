"""bench/check.py passes run.py's output only when every workload ran correctly
with its pinned hash; checked on synthetic output, no benchmark runs here."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_check", ROOT / "bench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

HASHES = {"poll-115k": "0fdc4ebf", "poll-4800-collide": "c4cff40b", "ber-sweep": "d2aaf229"}
PINS = [f"{name}={digest}" for name, digest in HASHES.items()]


def stdout(**changed):
    """run.py's output for the three workloads, each result updated by changed[name]."""
    lines = []
    for name, digest in HASHES.items():
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {},
                  **changed.get(name, {})}
        lines += [f"workload {name}  seed 7  trace 0  nproc 2  OPENBLAS_NUM_THREADS=unset",
                  "  plain runs: 3  run_s min 1.0000 max 1.1000",
                  f"  setup samples: 5  output sha256 {result.pop('digest', digest)}",
                  json.dumps(result)]
    return "\n".join(lines) + "\n"


def run_check(monkeypatch, text, pins):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return check.main(pins)


def test_the_workloads_are_run_pys():
    assert tuple(HASHES) == check.WORKLOADS


@pytest.mark.parametrize("pins", [PINS, []])
def test_good_output_passes(monkeypatch, capsys, pins):
    assert run_check(monkeypatch, stdout(), pins) == 0
    assert capsys.readouterr().out.endswith("0 problems\n")


@pytest.mark.parametrize("text, problem", [
    (stdout(**{"ber-sweep": {"digest": "d2aaf22a"}}),
     "ber-sweep: output sha256 is not the pinned d2aaf229"),
    (stdout().split("workload ber-sweep")[0], "no result for ber-sweep"),
    (stdout(**{"poll-115k": {"correct": False}}), "poll-115k: correct False, failed 0"),
    (stdout(**{"poll-4800-collide": {"failed": 1}}), "poll-4800-collide: correct True, failed 1"),
])
def test_bad_output_fails_and_says_why(monkeypatch, capsys, text, problem):
    assert run_check(monkeypatch, text, PINS) == 1
    assert f"PROBLEM: {problem}\n" in capsys.readouterr().out
