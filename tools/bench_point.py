"""One point of the per-layer trajectory, written to one JSON file.

    python3 tools/bench_point.py --out BENCH_<label>.json

The file holds, for the checkout this script sits in:

- ``machine`` and ``sweep``: what ``bench/baseline.py`` records, the
  layer sweep (L1 series ops, L2 pair ops and L3 triangles at p in
  {32, 64, 128}, each with its digest);
- ``tier1``: one timed tier-1 run of ``pairs.tier1_run``, with the fields
  ``bench/baseline.py`` records and under ``durations`` its 15 slowest test
  phases, each in s;
- ``reciprocal`` (L1): ``Series.reciprocal`` of g and of f/t for the
  sweep's two pairs at p in {32, 64, 128}, which the sweep does not time,
  each the median CPU time of 11 calls in reference ms, with the
  result's digest;
- ``sections`` (L3): ``c_transform`` with the factorial weight and with
  the Laguerre weight (row ``C_transform:laguerre``), ``Triangle.from_csv``,
  ``Triangle.from_json``, ``Triangle.inverse`` and ``Triangle.__matmul__``
  (its square) of ``triangle(n)``, ``QuasiRiordan.matrix(n)``,
  ``factorization_check`` at n, ``raise_order`` of ``triangle(n - 1)``
  and ``lower_order`` of ``triangle(n)``, for the sweep's two pairs at n
  in {32, 48, 64}, and ``Triangle.__matmul__`` alone also at n in
  {96, 128}, where the entries pass 200 bits, each the median CPU time of
  11 calls in reference ms, with the result's digest; ``triangle(n)``
  carries its integer columns, which ``@`` reads, and a public
  ``Triangle(rows)`` does not, so ``@`` is also timed on that path
  (``:unseeded``), where each call clears the columns off the rows again;
- ``suite`` (L4): the CPU time of one ``harness.builtin_suite()`` per row
  family, the median over fresh processes, in ms and in reference ms
  (CPU time scaled to the reference speed of ``bench/common.calibrate``),
  with the number of entries the family compares (counted from each
  row's ``n_max`` and k-policy in ``harness.K_POLICIES``) and its
  reference time per entry in us, the row inputs' construction included;
  under ``second_pass`` the same for a second check of every row over the
  inputs the first one built, the comparison alone, so that the two
  passes' difference is the time spent building inputs;
- ``workloads`` (L5): the JSON line of ``bench/run.py --workload W
  --seed 1 --seconds 15 --trace 0`` for each of the three workloads,
  run before every other step, so that each ``peak_rss_mb`` is the
  workload's own.

Two such files, for a change and for its parent, are comparable when they
come from this script on the same machine; every setting is fixed here, so
that no option can make them differ.  Each file is one unpaired run, so it
gives context, not a measured gain.  The script imports the library from
``src/`` and the benchmark's helpers from ``bench/``, and writes nothing
under either.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from pathlib import Path
from time import thread_time

import pairs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from baseline import PRECS, RANDOM_SEED, machine, sweep  # noqa: E402
from common import (  # noqa: E402
    CAL_REF_S,
    calibrate,
    child_env,
    digest,
    median,
    require_library,
)

SUITE_PROCESSES = 5
CALLS = 11
SECTION_ORDERS = (32, 48, 64)
MATMUL_ORDERS = (96, 128)  # Triangle.__matmul__ alone, on larger entries
WORKLOADS = ("pair_algebra", "triangle_io", "verify_cli")
SEED = 1
SECONDS = 15

# Row families of the builtin suite, by name prefix; the first match wins.
FAMILIES = (
    ("pascal_vertical", ("pascal-vertical",)),
    ("convolution", ("fuss-convolution-", "catalan-convolution")),
    ("fuss_series", ("fuss-series-",)),
    ("fuss_functional", ("fuss-functional-",)),
    ("quasi_factorization", ("quasi-factorization-",)),
    ("rook_laguerre_vertical", ("rook-vertical", "laguerre-vertical")),
    ("rook_laguerre_other", ("rook-", "laguerre-")),
    ("weighted", ("c-", "C-")),
)

# One suite in a fresh process.  A report's seconds are read off the
# harness clock, so the harness is given the thread CPU clock: each row's
# seconds are then its CPU time, its inputs' construction included.  Each
# row is then checked a second time over the inputs its first check built
# (its routes' memos), which times the comparison alone.
SUITE_CHILD = """
import json, time, types
from common import calibrate
from riordan import harness
harness.time = types.SimpleNamespace(perf_counter=time.thread_time)
rows, check = [], harness._check
harness._check = lambda *row: rows.append(row) or check(*row)
cal = calibrate()
start = time.thread_time()
reports = harness.builtin_suite()
total = time.thread_time() - start
start = time.thread_time()
again = {row[0]: check(*row).seconds for row in rows}
total_again = time.thread_time() - start
entries = {r.name: sum(len(harness.K_POLICIES[r.k_policy](n))
                      for n in range(r.n_max + 1)) for r in reports}
print(json.dumps({"calibration_s": (cal + calibrate()) / 2, "total_s": total,
                  "rows": {r.name: r.seconds for r in reports},
                  "second_total_s": total_again, "second_rows": again,
                  "entries": entries}))
"""


def tier1_point() -> dict:
    """One timed tier-1 run: passed, failed and errors off pytest's last
    line, the failing tests, and the 15 slowest test phases."""
    run = pairs.tier1_run(ROOT)
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|error)", run["summary"])}
    slowest = sorted(run["phases"], key=lambda phase: phase[0], reverse=True)[:15]
    return {
        "command": " ".join(["PYTHONPATH=src python", *pairs.TIER1]),
        "wall_s": round(run["wall_s"], 1),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0),
        "failed_tests": run["failed_tests"],
        "durations": [{"s": s, "when": when, "test": test} for s, when, test in slowest],
    }


def family(name: str) -> str:
    for label, prefixes in FAMILIES:
        if name.startswith(prefixes):
            return label
    raise ValueError(f"suite row {name!r} is in no family")


def suite_point(processes: int = SUITE_PROCESSES) -> dict:
    """L4: per-family CPU of builtin_suite(), median over fresh processes."""
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "bench")
    runs = [pairs.child_json("builtin_suite()", [sys.executable, "-c", SUITE_CHILD], ROOT, env)
            for _ in range(processes)]
    rows = {}
    for name in runs[0]["rows"]:
        rows.setdefault(family(name), []).append(name)

    scales = [CAL_REF_S / run["calibration_s"] for run in runs]

    def summary(times: list[float], entries: int) -> dict:
        scaled = median([t * s for t, s in zip(times, scales)])
        return {"cpu_ms": round(median(times) * 1e3, 1),
                "reference_ms": round(scaled * 1e3, 1),
                "entries": entries,
                "reference_us_per_entry": round(scaled * 1e6 / entries, 2)}

    def passes(first: list[float], second: list[float], entries: int) -> dict:
        return summary(first, entries) | {"second_pass": summary(second, entries)}

    families = {
        label: {"rows": len(names)}
        | passes([sum(run["rows"][n] for n in names) for run in runs],
                 [sum(run["second_rows"][n] for n in names) for run in runs],
                 sum(runs[0]["entries"][n] for n in names))
        for label, names in rows.items()
    }
    total = passes([run["total_s"] for run in runs],
                   [run["second_total_s"] for run in runs],
                   sum(runs[0]["entries"].values()))
    return {"processes": processes, "total": total, "families": families}


def timed_row(call, **keys) -> dict:
    """The row: keys, then the median CPU time of CALLS calls in reference ms
    and the last result's digest; printed as it ends."""
    before = calibrate()
    times = []
    for _ in range(CALLS):
        start = thread_time()
        out = call()
        times.append(thread_time() - start)
    scale = 2 * CAL_REF_S / (before + calibrate())
    row = keys | {"reference_ms": round(median(times) * scale * 1e3, 3), "digest": digest(out)}
    print(json.dumps(row), flush=True)
    return row


def sweep_pairs(p: int) -> dict:
    """The sweep's two pairs at precision p."""
    import riordan

    return {
        "catalan_bell": riordan.catalog.named_riordan("catalan_bell", p),
        f"random_pair:{RANDOM_SEED}": riordan.catalog.random_pair(random.Random(RANDOM_SEED), p),
    }


def reciprocal_point() -> list[dict]:
    """L1: Series.reciprocal of g and of f/t for the sweep's pairs."""
    return [timed_row(s.reciprocal, pair=label, p=p, series=name)
            for p in PRECS for label, a in sweep_pairs(p).items()
            for name, s in (("g", a.g), ("f/t", a.f.shift_down()))]


def sections_point() -> list[dict]:
    """L3: c/C transforms, CSV/JSON reads, matrix ops and order transforms."""
    from riordan import (
        QuasiRiordan,
        Triangle,
        WeightSeq,
        WeightTri,
        c_transform,
        factorization_check,
        lower_order,
        raise_order,
    )

    def unseeded(t: Triangle) -> Triangle:
        vars(t).pop("_cleared_columns", None)  # read again off the rows
        return t

    rows = []
    for n in SECTION_ORDERS:
        fac, lag = WeightSeq.factorial(n), WeightTri.laguerre(n)
        fac.rho, lag.rho  # build the rho tables outside the timed calls
        for label, a in sweep_pairs(n).items():
            section, below = a.triangle(n), a.triangle(n - 1)
            quasi = QuasiRiordan.of_pair(a)
            plain = Triangle(section.rows)
            csv, text = section.to_csv(), section.to_json()
            ops = {
                "c_transform:factorial": lambda: c_transform(a, fac, n),
                "C_transform:laguerre": lambda: c_transform(a, lag, n),
                "Triangle.from_csv": lambda: Triangle.from_csv(csv),
                "Triangle.from_json": lambda: Triangle.from_json(text),
                "Triangle.inverse": section.inverse,
                "Triangle.__matmul__": lambda: section @ section,
                "Triangle.__matmul__:unseeded": lambda: plain @ unseeded(plain),
                "QuasiRiordan.matrix": lambda: quasi.matrix(n),
                "factorization_check": lambda: factorization_check(a, n),
                "raise_order": lambda: raise_order(a, below),
                "lower_order": lambda: lower_order(a, section),
            }
            rows += [timed_row(call, pair=label, n=n, op=op) for op, call in ops.items()]
    for n in MATMUL_ORDERS:
        for label, a in sweep_pairs(n).items():
            section = a.triangle(n)
            rows.append(timed_row(lambda: section @ section,
                                  pair=label, n=n, op="Triangle.__matmul__"))
    return rows


def workload_point(name: str) -> dict:
    """L5: the JSON line that bench/run.py prints last."""
    return {"command": f"python3 bench/run.py --workload {name} --seed {SEED} "
                       f"--seconds {SECONDS} --trace 0",
            **pairs.bench_run(ROOT, name, SEED, SECONDS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    require_library()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as bench/run.py does
    # The workloads run first: a child's peak RSS starts from this
    # process's high-water mark, which the in-process steps below raise.
    workloads = {}
    for name in WORKLOADS:
        workloads[name] = workload_point(name)
        print(json.dumps(workloads[name]), flush=True)
    record = {"machine": machine(), "sweep": sweep(), "tier1": tier1_point()}
    print(json.dumps(record["tier1"]), flush=True)
    record["reciprocal"] = reciprocal_point()
    record["sections"] = sections_point()
    record["suite"] = suite_point()
    print(json.dumps(record["suite"]), flush=True)
    record["workloads"] = workloads
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
