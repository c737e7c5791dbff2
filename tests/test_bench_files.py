"""The committed benchmark trajectory: every BENCH_*.json at the repository
root holds one parent and one change run of each workload that
BENCHMARK.json declares, each checked out and reporting exactly its
end-to-end metrics.  BENCHMARK.json is only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_trajectory_file_holds_a_checked_run_of_each_side_per_workload(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = sorted(metric["name"] for metric in benchmark["end_to_end"])
    workloads = json.loads(path.read_text())["workloads"]
    assert sorted(workloads) == sorted(workload["name"] for workload in benchmark["workloads"])
    for name, sides in workloads.items():
        assert sorted(sides) == ["change", "parent"], name
        for side, run in sides.items():
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, (name, side)
            assert sorted(result["metrics"]) == metrics, (name, side)
