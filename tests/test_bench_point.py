"""The step order of tools/bench_point.py, with every step stubbed."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_point  # noqa: E402

STEPS = ("machine", "sweep", "tier1_point", "reciprocal_point", "sections_point",
         "suite_point")


def test_workloads_run_before_the_in_process_steps(monkeypatch, tmp_path):
    calls = []
    for step in STEPS:
        monkeypatch.setattr(bench_point, step, lambda step=step: calls.append(step) or {})
    monkeypatch.setattr(bench_point, "workload_point",
                        lambda name: calls.append(name) or {"workload": name})
    monkeypatch.setattr(bench_point, "require_library", lambda: None)
    monkeypatch.setattr(bench_point.os, "sched_setaffinity", lambda pid, cpus: None)
    out = tmp_path / "point.json"
    assert bench_point.main(["--out", str(out)]) == 0
    n = len(bench_point.WORKLOADS)
    assert calls[:n] == list(bench_point.WORKLOADS)
    assert {"sweep", "reciprocal_point", "sections_point"} <= set(calls[n:])
    record = json.loads(out.read_text())
    assert list(record) == ["machine", "sweep", "tier1", "reciprocal", "sections",
                            "suite", "workloads"]
    assert list(record["workloads"]) == list(bench_point.WORKLOADS)


def test_tier1_point_builds_its_record_from_the_shared_runner(monkeypatch):
    phases = [(float(s), "call", f"t.py::test_{s}") for s in range(20)]  # slowest last
    run = {"wall_s": 52.26, "summary": "1 failed, 781 passed, 2 errors in 52.10s",
           "phases": phases, "failed_tests": ["t.py::test_05b"]}
    trees = []
    monkeypatch.setattr(bench_point.pairs, "tier1_run", lambda tree: trees.append(tree) or run)
    record = bench_point.tier1_point()
    assert trees == [bench_point.ROOT]
    assert list(record) == ["command", "wall_s", "passed", "failed", "errors", "failed_tests",
                            "durations"]
    assert record["command"] == " ".join(["PYTHONPATH=src python", *bench_point.pairs.TIER1])
    assert (record["wall_s"], record["passed"], record["failed"], record["errors"]) == (
        52.3, 781, 1, 2)
    assert record["failed_tests"] == ["t.py::test_05b"]
    assert record["durations"] == [{"s": float(s), "when": "call", "test": f"t.py::test_{s}"}
                                   for s in range(19, 4, -1)]
