"""Self-tests of the benchmark: its correctness gate, tracing and contract.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import ROOT, require_library  # noqa: E402

require_library()

import riordan  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from riordan import AZSequences, RiordanPair, Series, Triangle  # noqa: E402
from workloads import Checker, run_pass  # noqa: E402


def corrupt(out):
    """The same result with exactly one coefficient changed."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, tuple):
        return (out[0], corrupt(out[1]))
    if isinstance(out, Series):
        coeffs = list(out.coeffs)
        coeffs[2] += 1
        return Series(coeffs)
    if isinstance(out, RiordanPair):
        return RiordanPair(out.g, corrupt(out.f))
    if isinstance(out, AZSequences):
        return AZSequences(out.a, corrupt(out.z))
    if isinstance(out, Triangle):
        rows = [list(r) for r in out.rows]
        rows[-1][0] += 1
        return Triangle(rows)
    return dataclasses.replace(out, entries=corrupt(out.entries))


def tiny(name):
    if name == "pair_algebra":
        return workloads.PairAlgebra(riordan, 1, precs=(6, 8), pool_rounds=1)
    if name == "triangle_io":
        return workloads.TriangleIO(riordan, 1, orders=(6, 8))
    return workloads.VerifyCli(riordan, 1)


def checked_round(wl, bad_kind):
    """Run round 0, feeding the checker a corrupted result for one op."""
    checker = Checker(getattr(wl, "references", None))
    corrupted = 0
    for op in wl.round(0):
        out = op.call()
        if op.keep is not None:
            op.keep(out)
        if op.key[0] == bad_kind and not corrupted:
            out = corrupt(out)
            corrupted = 1
        checker.record(op, out)
    checker.settle()
    assert corrupted
    return checker


@pytest.mark.parametrize("kind", workloads.PAIR_KINDS)
def test_corrupted_pair_result_is_a_failed_op(kind):
    checker = checked_round(tiny("pair_algebra"), kind)
    assert checker.failed >= 1
    assert checker.failed / checker.attempted > 0


@pytest.mark.parametrize("kind", workloads.TRIANGLE_KINDS)
def test_corrupted_triangle_result_is_a_failed_op(kind):
    checker = checked_round(tiny("triangle_io"), kind)
    assert checker.failed == 1


def test_corrupted_repeat_fails_against_the_reference():
    wl = tiny("pair_algebra")
    op = wl.first_op()
    good = op.call()
    checker = Checker()
    checker.record(op, good)
    checker.settle()
    checker.record(op, corrupt(good))
    checker.settle()
    assert (checker.attempted, checker.failed) == (2, 1)


def test_changed_verify_report_is_a_failed_op():
    wl = tiny("verify_cli")
    with open(workloads.REFERENCE, encoding="utf-8") as fh:
        reports = json.load(fh)
    reports[5]["status"] = "counterexample"
    reports[5]["counterexample"] = {"n": 2, "k": 0, "lhs": "1", "rhs": "2"}
    checker = Checker(wl.references)
    checker.record(wl.round(0)[0], workloads.suite_outcome(reports))
    assert checker.failed == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_errors(name):
    wl = tiny(name)
    checker = Checker(getattr(wl, "references", None))
    result = run_pass(wl, checker, rounds=1)
    checker.settle()
    assert result.rounds == 1 and checker.attempted == len(result.cpu) == len(result.scaled) >= 1
    assert checker.failed == 0


def test_tracing_sees_by_name_imports_and_restores_them():
    original = riordan.weighted.c_transform
    assert riordan.harness.c_transform is original
    wl = tiny("triangle_io")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert riordan.harness.c_transform is riordan.weighted.c_transform is not original
        checker = Checker()
        ops = len(run_pass(wl, checker, rounds=1, tracer=tracer).cpu)
    finally:
        tracer.uninstall()
    assert riordan.harness.c_transform is original
    assert riordan.cli.c_transform is original
    checker.settle()
    assert checker.failed == 0
    values = tracing.layer_metrics(tracer.totals(), ops, 1.0, 0.0, 0.0, 0.0)
    per_op = 1 / len(workloads.TRIANGLE_KINDS)
    assert values["quasi.factorization_check.calls"] == per_op
    assert values["weighted.transform.calls"] == 2 * per_op
    assert values["group.triangle.calls"] > per_op  # also called inside other ops
    assert values["series.max_coeff_bits"] > 0
    assert values["matrices.bytes_written"] > 0
    assert values["group.triangle.self_ms"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair_algebra", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
