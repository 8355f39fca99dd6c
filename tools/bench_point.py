"""One point of the per-layer trajectory, written to one JSON file.

    python3 tools/bench_point.py --out BENCH_<label>.json

The file holds, for the checkout this script sits in:

- ``machine``, ``sweep`` and ``tier1``: what ``bench/baseline.py`` records,
  the layer sweep (L1 series ops, L2 pair ops and L3 triangles at p in
  {32, 64, 128}, each with its digest) and one timed tier-1 run;
- ``reciprocal`` (L1): ``Series.reciprocal`` of g and of f/t for the
  sweep's two pairs at p in {32, 64, 128}, which the sweep does not time,
  each the median CPU time of 11 calls in reference ms, with the
  result's digest;
- ``sections`` (L3): ``c_transform`` with the factorial weight,
  ``C_transform`` with the Laguerre weight, ``Triangle.from_csv``,
  ``Triangle.from_json``, ``Triangle.inverse`` and ``Triangle.__matmul__``
  (its square) of ``triangle(n)``, ``QuasiRiordan.matrix(n)``,
  ``factorization_check`` at n, ``raise_order`` of ``triangle(n - 1)``
  and ``lower_order`` of ``triangle(n)``, for the sweep's two pairs at n
  in {32, 48, 64}, each the median CPU time of 11 calls in reference ms,
  with the result's digest;
- ``suite`` (L4): the CPU time of one ``harness.builtin_suite()`` per row
  family, the median over fresh processes, in ms and in reference ms
  (CPU time scaled to the reference speed of ``bench/common.calibrate``);
- ``workloads`` (L5): the JSON line of ``bench/run.py --workload W
  --seed 1 --seconds 15 --trace 0`` for each of the three workloads.

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
import subprocess
import sys
from pathlib import Path
from time import thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from baseline import PRECS, RANDOM_SEED, machine, sweep, tier1  # noqa: E402
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
# seconds are then its CPU time, its inputs' construction included.
SUITE_CHILD = """
import json, time, types
from common import calibrate
from riordan import harness
harness.time = types.SimpleNamespace(perf_counter=time.thread_time)
cal = calibrate()
start = time.thread_time()
reports = harness.builtin_suite()
total = time.thread_time() - start
print(json.dumps({"calibration_s": (cal + calibrate()) / 2, "total_s": total,
                  "rows": {r.name: r.seconds for r in reports}}))
"""


def family(name: str) -> str:
    for label, prefixes in FAMILIES:
        if name.startswith(prefixes):
            return label
    raise ValueError(f"suite row {name!r} is in no family")


def suite_point(processes: int = SUITE_PROCESSES) -> dict:
    """L4: per-family CPU of builtin_suite(), median over fresh processes."""
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "bench")
    runs = []
    for _ in range(processes):
        proc = subprocess.run(
            [sys.executable, "-c", SUITE_CHILD],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    rows = {}
    for name in runs[0]["rows"]:
        rows.setdefault(family(name), []).append(name)

    scales = [CAL_REF_S / run["calibration_s"] for run in runs]

    def summary(times: list[float]) -> dict:
        scaled = [t * s for t, s in zip(times, scales)]
        return {"cpu_ms": round(median(times) * 1e3, 1),
                "reference_ms": round(median(scaled) * 1e3, 1)}

    families = {
        label: {"rows": len(names)}
        | summary([sum(run["rows"][n] for n in names) for run in runs])
        for label, names in rows.items()
    }
    total = summary([run["total_s"] for run in runs])
    return {"processes": processes, "total": total, "families": families}


def timed(call) -> tuple[float, object]:
    """The median CPU time of CALLS calls in reference ms, and the last result."""
    before = calibrate()
    times = []
    for _ in range(CALLS):
        start = thread_time()
        out = call()
        times.append(thread_time() - start)
    scale = 2 * CAL_REF_S / (before + calibrate())
    return round(median(times) * scale * 1e3, 3), out


def sweep_pairs(p: int) -> dict:
    """The sweep's two pairs at precision p."""
    import riordan

    return {
        "catalan_bell": riordan.catalog.named_riordan("catalan_bell", p),
        f"random_pair:{RANDOM_SEED}": riordan.catalog.random_pair(random.Random(RANDOM_SEED), p),
    }


def reciprocal_point() -> list[dict]:
    """L1: Series.reciprocal of g and of f/t for the sweep's pairs."""
    rows = []
    for p in PRECS:
        for label, a in sweep_pairs(p).items():
            for name, s in (("g", a.g), ("f/t", a.f.shift_down())):
                ms, out = timed(s.reciprocal)
                rows.append({"pair": label, "p": p, "series": name,
                             "reference_ms": ms, "digest": digest(out)})
                print(json.dumps(rows[-1]), flush=True)
    return rows


def sections_point() -> list[dict]:
    """L3: c/C transforms, CSV/JSON reads, matrix ops and order transforms."""
    from riordan import (
        C_transform,
        QuasiRiordan,
        Triangle,
        WeightSeq,
        WeightTri,
        c_transform,
        factorization_check,
        lower_order,
        raise_order,
    )

    rows = []
    for n in SECTION_ORDERS:
        fac, lag = WeightSeq.factorial(n), WeightTri.laguerre(n)
        fac.rho, lag.rho  # build the rho tables outside the timed calls
        for label, a in sweep_pairs(n).items():
            section, below = a.triangle(n), a.triangle(n - 1)
            quasi = QuasiRiordan.of_pair(a)
            csv, text = section.to_csv(), section.to_json()
            ops = {
                "c_transform:factorial": lambda: c_transform(a, fac, n),
                "C_transform:laguerre": lambda: C_transform(a, lag, n),
                "Triangle.from_csv": lambda: Triangle.from_csv(csv),
                "Triangle.from_json": lambda: Triangle.from_json(text),
                "Triangle.inverse": section.inverse,
                "Triangle.__matmul__": lambda: section @ section,
                "QuasiRiordan.matrix": lambda: quasi.matrix(n),
                "factorization_check": lambda: factorization_check(a, n),
                "raise_order": lambda: raise_order(a, below),
                "lower_order": lambda: lower_order(a, section),
            }
            for op, call in ops.items():
                ms, out = timed(call)
                rows.append({"pair": label, "n": n, "op": op,
                             "reference_ms": ms, "digest": digest(out)})
                print(json.dumps(rows[-1]), flush=True)
    return rows


def workload_point(name: str) -> dict:
    """L5: the JSON line that bench/run.py prints last."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return {"command": " ".join(["python3", "bench/run.py", *cmd[2:]]),
            **json.loads(proc.stdout.splitlines()[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    require_library()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as bench/run.py does
    record = {"machine": machine(), "sweep": sweep(), "tier1": tier1()}
    record["reciprocal"] = reciprocal_point()
    record["sections"] = sections_point()
    record["suite"] = suite_point()
    print(json.dumps(record["suite"]), flush=True)
    record["workloads"] = {}
    for name in WORKLOADS:
        record["workloads"][name] = workload_point(name)
        print(json.dumps(record["workloads"][name]), flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
