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
