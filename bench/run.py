"""Benchmark of the riordan library: one workload per run, checked exactly.

    python3 bench/run.py --workload pair_algebra --seed 1 --seconds 15 --trace 0

Workloads: ``pair_algebra`` (Riordan group operations), ``triangle_io``
(finite sections: build, multiply, invert, weight, serialize) and
``verify_cli`` (one ``riordan verify`` process per op).  See workloads.py.

With ``--trace 0`` the run reports end-to-end metrics: ``setup_s`` (median
over several cold starts of the time to the first timed op: interpreter,
``import riordan``, inputs, warm-up), ``ops_per_s`` (ops per second of op
time), ``latency_p50_ms``, ``latency_p90_ms``, ``first_result_ms`` (spawn
to first result: the first report line of a ``verify`` child, or the first
op of a cold runner) and ``peak_rss_mb`` (this process's, or for
``verify_cli`` its children's).  Times are CPU times scaled to a reference
speed (see ``common.calibrate``).  Failed ops count against ``error_rate``.

With ``--trace 1`` the run times a pass of whole rounds untraced, then the
same rounds with every public library callable wrapped, and reports
per-layer calls and self time per op, plus ``trace_overhead``.

The last line of standard output is one JSON object; the lines before it
repeat each metric for a reader.  The exit code is 2 when the checkout has
no ``src/riordan``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from time import process_time

from common import (
    BENCH, CAL_REF_S, OUT, MissingLibrary, SpeedSampler, calibrate, child_env, median, p90,
    require_library,
)

SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_SAMPLE_EVERY_S = 0.05

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "first_result_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pair_algebra", "triangle_io", "verify_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a cold start that reports when set-up ends and the first
    # result arrives, then exits.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _build(name: str, seed: int):
    """Import the library, make the inputs and warm up: the set-up."""
    import riordan
    import workloads

    wl = workloads.WORKLOADS[name](riordan, seed)
    wl.warm_up()
    return wl


def _probe(args) -> int:
    """Set up, then report this process's CPU seconds at "ready" and "first"."""
    wl = _build(args.workload, args.seed)
    print("ready", process_time(), flush=True)
    op = wl.first_op()
    if op is not None:
        op.call()
        print("first", process_time(), flush=True)
    return 0


def _cold_starts(args) -> tuple[list[float], list[float]]:
    """CPU seconds from spawn to "ready" and to "first" for fresh runners.

    Each is scaled to the reference speed by the calibrations taken while
    its probe ran and just before and after it.
    """
    ready, first = [], []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    cal = calibrate()
    for _ in range(SETUP_PROBES):
        marks = {}
        with SpeedSampler(PROBE_SAMPLE_EVERY_S) as sampler:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
            try:
                for line in proc.stdout:
                    mark, cpu = line.split()
                    marks[mark] = float(cpu)
            finally:
                proc.stdout.close()
                if proc.wait() != 0:
                    raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        after = calibrate()
        scale = CAL_REF_S / sampler.calibration(cal, after)
        cal = after
        ready.append(marks["ready"] * scale)
        if "first" in marks:
            first.append(marks["first"] * scale)
    return ready, first


def _import_ms() -> float:
    """Cumulative import time of ``riordan.cli`` and its package, from -X importtime."""
    samples = []
    cal = calibrate()
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import riordan.cli"],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        cumulative = [
            int(line.split("|")[1])
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.split("|")[2].strip().startswith("riordan")
        ]
        after = calibrate()
        samples.append(max(cumulative) / 1000 * 2 * CAL_REF_S / (cal + after))
        cal = after
    return median(samples)


def _end_to_end(args, wl, checker) -> dict[str, float]:
    from workloads import run_pass

    ready, first = _cold_starts(args)
    run = run_pass(wl, checker, seconds=args.seconds, min_ops=wl.min_ops)
    lat = run.scaled
    if args.workload == "verify_cli":
        first = [
            c.first_line_s * CAL_REF_S / c.calibration_s
            for c in wl.children
            if c.first_line_s is not None
        ]
        rss_kb = max(c.maxrss_kb for c in wl.children)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cut = p90(lat)
    tail = sum(t > cut for t in lat)
    print(f"ops {len(lat)} in {run.rounds} rounds; latency_p90_ms has {tail} samples beyond it")
    print(f"wall latency_p50_ms {median(run.wall) * 1e3} latency_p90_ms {p90(run.wall) * 1e3}")
    return {
        "setup_s": median(ready),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": median(lat) * 1e3,
        "latency_p90_ms": cut * 1e3,
        "first_result_ms": median(first) * 1e3 if first else 0.0,
        "peak_rss_mb": rss_kb / 1024,
    }


def _per_layer(args, wl, checker) -> dict[str, float]:
    import tracing
    from workloads import run_pass

    plain = run_pass(wl, checker, seconds=args.seconds / 2)
    if args.workload == "verify_cli":
        wl.traced = True
        traced = run_pass(wl, checker, rounds=plain.rounds)
        totals, first_lines = {}, []
        for i, path in enumerate(wl.span_files):
            with open(path + ".totals.json", encoding="utf-8") as fh:
                child = json.load(fh)
            totals = tracing.add_totals(totals, child["totals"])
            factor = CAL_REF_S / wl.children[plain.rounds + i].calibration_s
            # Writing the spans after the CLI returned is not tracing overhead.
            traced.scaled[i] -= child["post_cpu_s"] * factor
            if child["first_line_cpu_s"] is not None:
                first_lines.append(child["first_line_cpu_s"] * 1e3 * factor)
        first_line_ms = median(first_lines) if first_lines else 0.0
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, checker, rounds=plain.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        totals, first_line_ms = tracer.totals(), 0.0
    ops = len(traced.scaled)
    overhead_ms = (sum(traced.scaled) - sum(plain.scaled)) * 1e3 / ops
    print(f"traced {ops} ops; untraced {len(plain.scaled)} ops")
    scale = sum(traced.scaled) / sum(traced.wall)
    return tracing.layer_metrics(totals, ops, scale, first_line_ms, _import_ms(), overhead_ms)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        require_library()
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Calibration and measured work must share one processor's speed, so
    # the runner and every child it starts stay on a single CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.probe:
        return _probe(args)

    from workloads import Checker

    wl = _build(args.workload, args.seed)
    checker = Checker(getattr(wl, "references", None))
    if args.trace:
        import tracing

        values = _per_layer(args, wl, checker)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = _end_to_end(args, wl, checker)
        units = UNITS
    checker.settle()
    error_rate = checker.failed / checker.attempted
    print(f"error_rate {error_rate} ({checker.failed} failed of {checker.attempted} attempted)")
    print(f"input_repeat_share {checker.repeats / checker.attempted}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
