"""Alternating parent/change pairs of one benchmark workload, and their verdict.

    python3 tools/pairs.py --parent REV --workload W [--pairs N] [--seed S] [--seconds 15]
    python3 tools/pairs.py --parent REV --tier1 [--pairs N]
    python3 tools/pairs.py --parent REV --sections [--pairs N]

Each side runs in its own temporary tree: the parent is ``git archive`` of
REV, the change a copy of this checkout's working tree (its tracked files
and its untracked files that ``.gitignore`` does not exclude), so both run
the same ``bench/`` only when REV's ``bench/`` equals the working tree's.

With ``--workload``, pair i runs ``bench/run.py --workload W --seed S+i
--seconds T --trace 0`` on both sides, parent first in even pairs and
change first in odd ones, and prints every run's JSON line.  Then, per
end-to-end metric of ``BENCHMARK.json`` (which this script only reads), it
prints both medians, the parent's interquartile range, the change's wins,
ties and losses, and two verdicts:

- ``gain`` when at least ten pairs ran, the change won at least nine tenths
  of them (a tie counts for neither side), and its median is better than
  the parent's by more than the parent's IQR; ``no gain`` otherwise, and
  ``too few pairs`` under ten;
- ``past bound`` when the change's median is worse than the parent's by
  more than the metric's ``bound`` (a fraction of the parent's median);
  ``unresolved`` when it is not, but the parent's own IQR is wider than the
  bound and some change run reads no better than some parent run;
  ``within`` otherwise.

A gain does not count when a larger share of the change's ops failed; the
script says so under the table.

With ``--tier1``, pair i runs the tier-1 command with ``--durations=0
--durations-min=0`` (``tier1_run``, which ``tools/bench_point.py`` also
times) on both sides, alternating as above.  The verdict then
reads the summed time of the test phases both sides ran in every run (lower
is better), and the script prints the ten tests whose median time moved
most, and each side's median wall time, which it does not judge.

With ``--sections``, pair i runs ``tools/bench_point.py``'s
``sections_point()`` in a fresh process on both sides, alternating as above.
Each (pair, n, op) row that every run timed is judged as a metric, on its
reference ms (lower is better); a row whose digest differs between the two
sides of any pair fails the run.

The exit code is 0 once every run has finished, whatever the verdicts, and
1 when a run fails or, with ``--sections``, when a digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "--durations-min=0", "-p", "no:cacheprovider")
DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown) +(.+)$", re.M)
FAILED = re.compile(r"^FAILED (\S+)", re.M)


@dataclass(frozen=True)
class Comparison:
    """One metric over paired runs; the runs of pair i are parent[i], change[i]."""

    better: str
    parent_median: float
    change_median: float
    parent_iqr: float
    wins: int
    ties: int
    losses: int
    verdict: str

    @property
    def change(self) -> float:
        """The change's median relative to the parent's, as a signed fraction."""
        if self.parent_median == 0:
            return 0.0 if self.change_median == 0 else float("inf")
        return (self.change_median - self.parent_median) / abs(self.parent_median)


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _gain(parent: float, change: float, better: str) -> float:
    """How much better change reads than parent; negative when worse."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    return change - parent if better == "higher" else parent - change


def compare(parent: list[float], change: list[float], better: str) -> Comparison:
    """The Measurement rule's verdict on paired runs of one metric."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    gains = [_gain(p, c, better) for p, c in zip(parent, change)]
    wins, ties = sum(g > 0 for g in gains), sum(g == 0 for g in gains)
    pm, cm, iqr = median(parent), median(change), _iqr(parent)
    if len(parent) < MIN_PAIRS:
        verdict = "too few pairs"
    elif wins * 10 >= 9 * len(parent) and _gain(pm, cm, better) > iqr:
        verdict = "gain"
    else:
        verdict = "no gain"
    return Comparison(better, pm, cm, iqr, wins, ties, len(parent) - wins - ties, verdict)


def bound_check(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``past bound``, ``unresolved`` or ``within``: is the change's median
    worse than the parent's by more than ``bound``, a fraction of the
    parent's median, or is the parent's spread too wide to tell?"""
    pm = median(parent)
    scale = abs(pm) or 1.0
    if -_gain(pm, median(change), better) > bound * scale:
        return "past bound"
    every_run_better = all(_gain(p, c, better) > 0 for p in parent for c in change)
    if _iqr(parent) > bound * scale and not every_run_better:
        return "unresolved"
    return "within"


# -- the two trees ---------------------------------------------------------------

def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def make_trees(rev: str, into: Path) -> dict[str, Path]:
    """``parent``: git archive of rev; ``change``: a copy of the working tree."""
    parent, change = into / "parent", into / "change"
    parent.mkdir()
    subprocess.run(["tar", "-x", "-C", str(parent)], input=_git("archive", rev), check=True)
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, change / name)
    return {"parent": parent, "change": change}


def alternate(trees: dict[str, Path], pairs: int, run, show) -> dict[str, list]:
    """Each side's ``run(tree, i)`` for pairs i = 0 .. pairs - 1, the parent
    first in even pairs and the change first in odd ones; each run is
    printed as ``pair i side: show(result, i)`` as soon as it ends."""
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(trees[side], i))
            print(f"pair {i} {side}: {show(runs[side][-1], i)}", flush=True)
    return runs


# -- benchmark pairs -------------------------------------------------------------

def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def report(rows: list[tuple[str, str, Comparison, str]], name: str = "metric") -> None:
    """One line per metric: name, unit, medians, IQR, wins, verdicts."""
    head = (name, "unit", "better", "parent", "change", "delta", "parent IQR",
            "W/T/L", "verdict", "bound")
    table = [head] + [
        (name, unit, c.better, _fmt(c.parent_median), _fmt(c.change_median),
         f"{c.change:+.1%}", _fmt(c.parent_iqr), f"{c.wins}/{c.ties}/{c.losses}",
         c.verdict, bound)
        for name, unit, c, bound in rows
    ]
    widths = [max(len(r[j]) for r in table) for j in range(len(head))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def bench_report(runs: dict, benchmark: dict) -> None:
    rows = []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        bound = bound_check(parent, change, metric["better"], metric["bound"])
        rows.append((name, metric["unit"], compare(parent, change, metric["better"]),
                     f"{bound} ({metric['bound']:.0%})"))
    report(rows)
    failed = {side: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
              for side, rs in runs.items()}
    print("failed ops: " + ", ".join(f"{side} {f} of {a}" for side, (f, a) in failed.items()))
    (pf, pa), (cf, ca) = failed["parent"], failed["change"]
    if cf * pa > pf * ca:
        print("a larger share of the change's ops failed: no gain counts")


# -- tier-1 pairs ----------------------------------------------------------------

def tier1_run(tree: Path) -> dict:
    """One tier-1 run in tree: its wall time in s, pytest's last line, every
    test phase as (seconds, phase, test) in pytest's order, slowest first,
    and the tests reported ``FAILED``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH", "")) if p)
    start = perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: some test failed, which the sides may share
        raise RuntimeError(f"tier-1 in {tree} exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return {"wall_s": wall, "summary": proc.stdout.strip().splitlines()[-1],
            "phases": [(float(s), phase, test) for s, phase, test in DURATION.findall(proc.stdout)],
            "failed_tests": FAILED.findall(proc.stdout)}


def _test_times(run: dict) -> dict[str, float]:
    """Each test's time in one tier-1 run, its phases summed."""
    tests: dict[str, float] = {}
    for seconds, _, test in run["phases"]:
        tests[test] = tests.get(test, 0.0) + seconds
    return tests


def tier1_line(run: dict, i: int) -> str:
    tests = _test_times(run)
    return (f"{run['summary']}; wall {run['wall_s']:.1f} s; "
            f"{len(tests)} tests, {sum(tests.values()):.1f} s summed")


def tier1_report(runs: dict) -> None:
    times = {side: [_test_times(r) for r in rs] for side, rs in runs.items()}
    shared = set.intersection(*(set(t) for ts in times.values() for t in ts))
    sums = {side: [sum(t[test] for test in shared) for t in ts] for side, ts in times.items()}
    print(f"{len(shared)} tests ran on both sides in every run")
    report([("shared test time", "s", compare(sums["parent"], sums["change"], "lower"), "-")])
    moved = sorted(
        ((median(t[test] for t in times["change"])
          - median(t[test] for t in times["parent"]), test) for test in shared),
        key=lambda m: -abs(m[0]))
    print("biggest movers (change median - parent median):")
    for delta, test in moved[:10]:
        print(f"  {delta:+.3f} s  {test}")
    walls = {side: median(r["wall_s"] for r in rs) for side, rs in runs.items()}
    print(f"wall time, median (not judged): parent {walls['parent']:.1f} s, "
          f"change {walls['change']:.1f} s")


# -- section pairs ---------------------------------------------------------------

# One sections_point() in a fresh process, pinned to one CPU as bench/run.py
# pins its workloads; the rows are the last line it prints.
SECTIONS_CHILD = """
import json, os, sys
sys.path.insert(0, "tools")
import bench_point
bench_point.require_library()
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
print(json.dumps(bench_point.sections_point()))
"""


def sections_run(tree: Path) -> list[dict]:
    proc = subprocess.run([sys.executable, "-c", SECTIONS_CHILD], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"sections_point() in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def section_verdicts(runs: dict) -> tuple[list[tuple[str, Comparison]], list[str], list[str]]:
    """The rows every run timed, each judged on its reference ms; the rows
    whose digests differ between the sides of some pair; and the rows some
    run lacks, which are not judged."""
    keyed = {side: [{f"{r['pair']} n={r['n']} {r['op']}": r for r in rows} for rows in rs]
             for side, rs in runs.items()}
    every = keyed["parent"] + keyed["change"]
    seen = list(dict.fromkeys(k for run in every for k in run))
    shared = [k for k in seen if all(k in run for run in every)]
    differ = [k for k in shared
              if any(p[k]["digest"] != c[k]["digest"]
                     for p, c in zip(keyed["parent"], keyed["change"]))]
    verdicts = [(k, compare(*([run[k]["reference_ms"] for run in keyed[side]]
                              for side in ("parent", "change")), "lower"))
                for k in shared]
    return verdicts, differ, [k for k in seen if k not in shared]


def sections_report(runs: dict) -> int:
    """Print the verdicts; 1 when some row's digests differ, else 0."""
    verdicts, differ, missing = section_verdicts(runs)
    report([(key, "ref ms", c, "-") for key, c in verdicts], name="row")
    if missing:
        print("not judged, missing from some run: " + ", ".join(missing))
    if differ:
        print("digests differ between parent and change: " + ", ".join(differ))
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("pair_algebra", "triangle_io", "verify_cli"))
    what.add_argument("--tier1", action="store_true")
    what.add_argument("--sections", action="store_true")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        try:
            trees = make_trees(args.parent, Path(tmp))
            if args.tier1:
                runs = alternate(trees, args.pairs, lambda tree, _: tier1_run(tree), tier1_line)
                tier1_report(runs)
            elif args.sections:
                runs = alternate(trees, args.pairs, lambda tree, _: sections_run(tree),
                                 lambda rows, _: f"{len(rows)} rows")
                return sections_report(runs)
            else:
                runs = alternate(
                    trees, args.pairs,
                    lambda tree, i: bench_run(tree, args.workload, args.seed + i, args.seconds),
                    lambda run, i: f"seed {args.seed + i} {json.dumps(run)}")
                bench_report(runs, benchmark)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
