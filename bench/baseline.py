"""One-shot records: the layer sweep at ROADMAP sizes and one tier-1 run.

    python3 bench/baseline.py [--out bench/records/baseline.json]

The sweep times one call each of ``Series.__mul__``, ``compose``,
``comp_inverse``, pair ``*``, ``inverse``, ``extract_az``, ``triangle(p)``
and ``triangle_closed(p)`` on ``catalan_bell`` and on one seeded
``random_pair``, at p in {32, 64, 128}.  Each row keeps the result's digest
and its largest numerator or denominator bit length, so a later kernel can
show the same answers byte for byte.  ``ms`` is wall time; ``reference_ms``
is CPU time scaled to the reference speed, as the workloads' times are.

The tier-1 record runs the repository's tests once and keeps the wall time
and the pass and fail counts.  The red-by-design ``test_05b`` is recorded as
it is; it is not a benchmark failure.

Neither is a workload: they run once, not in the repeated runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

from common import BENCH, CAL_REF_S, ROOT, calibrate, child_env, digest, require_library

PRECS = (32, 64, 128)
RANDOM_SEED = 20240826


def _bits(obj) -> int:
    """Largest numerator or denominator bit length in a result."""
    if hasattr(obj, "coeffs"):
        values = obj.coeffs
    elif hasattr(obj, "rows"):
        values = [x for row in obj.rows for x in row]
    elif hasattr(obj, "g"):
        return max(_bits(obj.g), _bits(obj.f))
    else:
        return max(_bits(obj.a), _bits(obj.z))
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in values)


def sweep() -> list[dict]:
    import riordan

    rows = []
    for p in PRECS:
        pairs = {
            "catalan_bell": riordan.catalog.named_riordan("catalan_bell", p),
            f"random_pair:{RANDOM_SEED}": riordan.catalog.random_pair(random.Random(RANDOM_SEED), p),
        }
        for label, a in pairs.items():
            ops = {
                "Series.__mul__": lambda: a.g * a.f,
                "Series.compose": lambda: a.g.compose(a.f),
                "Series.comp_inverse": a.f.comp_inverse,
                "RiordanPair.__mul__": lambda: a * a,
                "RiordanPair.inverse": a.inverse,
                "RiordanPair.extract_az": a.extract_az,
                "RiordanPair.triangle": lambda: a.triangle(p),
                "RiordanPair.triangle_closed": lambda: a.triangle_closed(p),
            }
            for op, call in ops.items():
                before = calibrate()
                start, cpu_start = perf_counter(), thread_time()
                out = call()
                cpu_s, ms = thread_time() - cpu_start, (perf_counter() - start) * 1e3
                ref_ms = cpu_s * 1e3 * 2 * CAL_REF_S / (before + calibrate())
                rows.append({"pair": label, "p": p, "op": op, "ms": round(ms, 1),
                             "reference_ms": round(ref_ms, 1), "digest": digest(out),
                             "max_coeff_bits": _bits(out)})
                print(f"{label:22s} p={p:<4d}{op:28s}{ms:10.1f} ms {ref_ms:10.1f} ref ms", flush=True)
    return rows


def tier1() -> dict:
    """The ROADMAP's tier-1 command, timed once."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    wall = perf_counter() - start
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", proc.stdout.splitlines()[-1])}
    return {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "wall_s": round(wall, 1),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0),
        "failed_tests": re.findall(r"^FAILED (\S+)", proc.stdout, re.M),
    }


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=BENCH / "records" / "baseline.json")
    args = parser.parse_args(argv)
    require_library()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as run.py does
    record = {"machine": machine(), "sweep": sweep(), "tier1": tier1()}
    print(json.dumps(record["tier1"]))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
