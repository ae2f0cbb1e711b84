"""bench/record.py assembles BENCH_<pr>.json from run.py's output; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

RESULT = {"correct": True, "attempted": 3, "failed": 0,
          "metrics": {"peak_rss_mb": {"value": 116.0, "unit": "MiB"}}}
STDOUT = "\n".join([
    "workload ber-sweep  seed 7  trace 0  nproc 2  OPENBLAS_NUM_THREADS=unset",
    "  plain runs: 3  run_s min 1.0000 max 1.1000",
    "  setup samples: 5  output sha256 d2aaf229",
    "  peak_rss_mb                                   116 MiB",
    json.dumps(RESULT),
])
STAT = ("cpu  100 2 30 4000 5 0 6 70 0 0\n"
        "cpu0 50 1 15 2000 2 0 3 35 0 0\n")


def test_cpu_jiffies_reads_idle_and_steal_of_all_cores():
    assert record.cpu_jiffies(STAT) == {"idle": 4000, "steal": 70}


def test_assembles_the_result_lines_host_and_jiffies():
    host = {"nproc": 2, "usable_cores": 2}
    before, after = {"idle": 4000, "steal": 70}, {"idle": 4100, "steal": 71}
    got = record.assemble(STDOUT, host, before, after)
    assert got["command"] == ["python3", "perfbench/run.py", "--workload", "all",
                              "--seed", "7", "--trace", "0"]
    assert got["seed"] == 7
    assert got["results"] == {"ber-sweep": {"output_sha256": "d2aaf229", **RESULT}}
    assert got["host"] == host
    assert got["jiffies"] == {"before": before, "after": after}
    json.dumps(got, allow_nan=False)


def test_host_names_the_versions_and_thread_variables():
    host = record.host()
    assert set(host["thread_vars"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    assert 1 <= host["usable_cores"] <= host["nproc"]
    assert host["numpy"] and host["scipy"]
