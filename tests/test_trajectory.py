"""The committed benchmark trajectory files must cover the benchmark.

Each root-level BENCH_<n>.json records one change measured against its
parent with perfbench/run.py:

    {"change": str, "parent": str, "hardware": str, "command": str,
     "runs": [{"side": "parent" | "change", "workload": str, "seed": int,
               "trace": 0 | 1, "result": <run.py's last JSON line>}, ...]}

Every workload BENCHMARK.json names needs, on both sides, an untraced run
reporting every end-to-end metric it names and a traced run. BENCHMARK.json
is only read here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_files_exist():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_trajectory_file_covers_the_benchmark(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    record = json.loads(path.read_text())
    for key in ("change", "parent", "hardware", "command"):
        assert isinstance(record.get(key), str) and record[key], key
    runs = record["runs"]
    assert {run["side"] for run in runs} <= set(SIDES)
    assert {run["workload"] for run in runs} <= set(workloads)
    for side in SIDES:
        for workload in workloads:
            mine = [r for r in runs if (r["side"], r["workload"]) == (side, workload)]
            plain = [r["result"] for r in mine if r["trace"] == 0]
            assert plain, f"{path.name}: no untraced {workload} run for the {side}"
            for result in plain:
                missing = set(metrics) - set(result["metrics"])
                assert not missing, f"{path.name}: {side} {workload} lacks {sorted(missing)}"
            assert any(r["trace"] == 1 for r in mine), f"{path.name}: no traced {workload} run for the {side}"
