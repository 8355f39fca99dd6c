"""The benchmark's workloads: inputs from a seed, the timed ops, exact checks.

Every workload is a closed loop run by one client: the next op starts when
the previous one has returned.  Ops come in rounds of fixed composition, so
every run measures the same mix whatever its seed, and a run ends at a round
boundary.

Correctness is decided per op by a digest of the result's exact text.  The
reference digest for an input is that of the first result for it that passes
an independent check; every later result for the same input must match it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, thread_time
from typing import Callable

from common import BENCH, CAL_REF_S, OUT, ROOT, SpeedSampler, calibrate, child_env, digest

NAMED = ("catalan_bell", "fuss_bell:3", "fuss_bell:4")


@dataclass
class Op:
    """One timed library call and how to check what it returns."""

    key: tuple  # equal keys: equal inputs, so equal exact results
    call: Callable[[], object]
    check: Callable[[object], bool]
    keep: Callable[[object], None] | None = None  # hands the result to later ops
    # For an op that runs a child process: (the child's CPU seconds in the
    # last call, the calibration while it ran).
    timing: Callable[[], tuple[float, float]] | None = None


class Checker:
    """Digest comparison against oracle-checked references, per input key."""

    def __init__(self, references: dict | None = None):
        self.reference: dict[tuple, str | None] = dict(references or {})
        self._first: dict[tuple, tuple[Callable, object]] = {}
        self._waiting: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.repeats = 0  # ops whose input an earlier op already had

    def record(self, op: Op, result) -> None:
        self.attempted += 1
        self.repeats += op.key in self.reference or op.key in self._waiting
        try:
            d = digest(result)
        except TypeError:
            self.failed += 1
            return
        if op.key in self.reference:
            self.failed += d != self.reference[op.key]
        elif op.key in self._waiting:
            self._waiting[op.key].append(d)
        else:
            self._first[op.key] = (op.check, result)
            self._waiting[op.key] = [d]

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1

    def settle(self) -> None:
        """Check each new input's first result; count mismatched digests."""
        for key, (check, result) in self._first.items():
            try:
                ok = bool(check(result))
            except Exception:  # a check that cannot run rejects the result
                ok = False
            self.reference[key] = digest(result) if ok else None
            self.failed += sum(d != self.reference[key] for d in self._waiting[key])
        self._first.clear()
        self._waiting.clear()


def _matvec(rows, v):
    """Lower-triangular rows times a vector, independent of ``Triangle.apply``."""
    return [sum((x * v[j] for j, x in enumerate(row)), Fraction(0)) for row in rows]


def _named_pair(lib, name: str, prec: int):
    base, _, param = name.partition(":")
    return lib.catalog.named_riordan(base, prec, param or None)


# -- pair_algebra ----------------------------------------------------------------

PAIR_KINDS = ("mul", "inverse", "extract_az", "apply")


class PairAlgebra:
    """Riordan group operations on named and on random pairs.

    A round holds, at the lower precision, two named and two random ops of
    each kind, and at the higher precision one op of each kind, named and
    random in turn.  Random inputs are drawn from a pool made at set-up;
    they repeat only once a run has used the whole pool, which the seed code
    does not reach, so the oracle's work stays bounded however fast the
    library gets.  Results are checked after the timed phase.
    """

    name = "pair_algebra"
    min_ops = 100
    settle_each_round = False

    def __init__(self, lib, seed: int, precs=(32, 48), pool_rounds: int = 12):
        self.lib = lib
        self.seed = seed
        self.precs = precs
        self.named = {(nm, p): _named_pair(lib, nm, p) for nm in NAMED for p in precs}
        rng = random.Random(seed)
        lo, hi = precs
        self.pool = {
            p: [
                (lib.catalog.random_pair(rng, p), lib.catalog.random_pair(rng, p))
                for _ in range(count * pool_rounds)
            ]
            for p, count in ((lo, 2 * len(PAIR_KINDS)), (hi, len(PAIR_KINDS) // 2))
        }
        self._triangles: dict[tuple, object] = {}

    def warm_up(self) -> None:
        a = _named_pair(self.lib, NAMED[0], 6)
        b = _named_pair(self.lib, NAMED[1], 6)
        for kind in PAIR_KINDS:
            self._call(kind, a, b)()

    def first_op(self) -> Op:
        p = self.precs[0]
        return self._op("inverse", p, NAMED[0], self.named[(NAMED[0], p)], None, None)

    def round(self, r: int) -> list[Op]:
        lo, hi = self.precs
        ops = []
        for ki, kind in enumerate(PAIR_KINDS):
            for j in range(2):
                ops.append(self._named_op(kind, lo, (2 * r + j + ki) % len(NAMED)))
                ops.append(self._random_op(kind, lo, (2 * r + j) * len(PAIR_KINDS) + ki))
            if (ki + r) % 2 == 0:
                ops.append(self._named_op(kind, hi, (r + ki) % len(NAMED)))
            else:
                ops.append(self._random_op(kind, hi, r * 2 + ki // 2))
        random.Random(f"{self.seed}:{r}").shuffle(ops)
        return ops

    def _named_op(self, kind, p, i) -> Op:
        a_id, b_id = NAMED[i], NAMED[(i + 1) % len(NAMED)]
        return self._op(kind, p, a_id, self.named[(a_id, p)], b_id, self.named[(b_id, p)])

    def _random_op(self, kind, p, index) -> Op:
        pool = self.pool[p]
        a, b = pool[index % len(pool)]
        ident = ("random", index % len(pool))
        return self._op(kind, p, ident, a, ident + ("b",), b)

    def _op(self, kind, p, a_id, a, b_id, b) -> Op:
        key = (kind, p, a_id) + ((b_id,) if kind in ("mul", "apply") else ())
        return Op(key, self._call(kind, a, b), lambda out: self._oracle(kind, p, a_id, a, b_id, b, out))

    @staticmethod
    def _call(kind, a, b):
        if kind == "mul":
            return lambda: a * b
        if kind == "inverse":
            return a.inverse
        if kind == "extract_az":
            return a.extract_az
        h = b.g
        return lambda: a.apply(h)

    def _triangle(self, ident, pair, n):
        """``pair.triangle(n)`` by the vertical recursion, kept for named pairs."""
        if ident not in NAMED:
            return pair.triangle(n)
        if (ident, n) not in self._triangles:
            self._triangles[(ident, n)] = pair.triangle(n)
        return self._triangles[(ident, n)]

    def _oracle(self, kind, p, a_id, a, b_id, b, out) -> bool:
        """Check a result through triangles, sharing no ``series`` kernel op.

        Order n = p + 1 reaches every coefficient of the result.
        """
        n = p + 1
        ta = self._triangle(a_id, a, n)
        if kind == "mul":
            return out.triangle(n) == ta @ self._triangle(b_id, b, n)
        if kind == "inverse":
            return out.triangle(n) == ta.inverse()
        if kind == "apply":
            return list(out.coeffs) == ta.apply(list(b.g.coeffs[:n]))
        # Row n-1 reads A and Z up to index n-2; stay within their precision
        # so that no coefficient is read as an implicit zero.
        if n - 2 > min(out.a.prec, out.z.prec):
            return False
        return self.lib.group.reconstruct_from_az(out, n) == ta


# -- triangle_io -----------------------------------------------------------------

TRIANGLE_KINDS = (
    "triangle",
    "triangle_closed",
    "matmul",
    "inverse",
    "quasi_matrix",
    "factorization_check",
    "c_transform",
    "C_transform",
    "csv_round_trip",
    "json_round_trip",
)


def _csv_text(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def _json_text(rows) -> str:
    return json.dumps([[str(x) for x in row] for row in rows])


class TriangleIO:
    """Finite sections: build, multiply, invert, weight and serialize them.

    A round holds four units of ten ops, two on named pairs and two on
    fresh random pairs.  Later ops of a unit take the section that its
    ``triangle`` op built.  Each unit's results are checked when its
    round ends: the two entry routes against each other, products and
    inverses by exact matrix-vector products, the rest entry by entry.
    """

    name = "triangle_io"
    min_ops = 100
    settle_each_round = True

    def __init__(self, lib, seed: int, orders=(32, 48)):
        self.lib = lib
        self.seed = seed
        self.orders = orders
        self.named = {(nm, n): _named_pair(lib, nm, n - 1) for nm in NAMED for n in orders}
        self.factorial = {n: lib.weighted.WeightSeq.factorial(n) for n in orders}
        self.laguerre = {n: lib.weighted.WeightTri.laguerre(n) for n in orders}
        rng = random.Random(seed)
        self.vectors = {
            n: [[rng.randint(1, 2**32) for _ in range(n)] for _ in range(2)] for n in orders
        }

    def warm_up(self) -> None:
        n = 6
        pair = _named_pair(self.lib, NAMED[0], n - 1)
        fac, lag = self.lib.weighted.WeightSeq.factorial(n), self.lib.weighted.WeightTri.laguerre(n)
        for op in self._unit(("warm-up",), pair, n, fac, lag, None):
            out = op.call()
            if op.keep:
                op.keep(out)

    def first_op(self) -> Op:
        n = self.orders[0]
        return self._unit((NAMED[0],), self.named[(NAMED[0], n)], n, None, None, None)[0]

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{r}")
        lo, hi = self.orders
        # One unit at the lower order and three at the higher, two named and
        # two random: the slowest kinds at the higher order are then 15% of
        # the ops, so the 90th percentile falls inside their cluster, not in
        # the gap below it where it would rest on a single extreme op.
        named_lo = r % 2 == 0
        plan = [(lo, named_lo), (hi, True), (hi, False), (hi, not named_lo)]
        units = []
        for i, (n, named) in enumerate(plan):
            fac, lag, vecs = self.factorial[n], self.laguerre[n], self.vectors[n]
            if named:
                name = NAMED[(r + i) % len(NAMED)]
                units.append(self._unit((name,), self.named[(name, n)], n, fac, lag, vecs))
            else:
                pair = self.lib.catalog.random_pair(rng, n - 1)
                units.append(self._unit(("random", r, i), pair, n, fac, lag, vecs))
        rng.shuffle(units)
        return [op for unit in units for op in unit]

    def _unit(self, ident, a, n, fac, lag, vecs) -> list[Op]:
        lib = self.lib
        Triangle = lib.matrices.Triangle
        st: dict[str, object] = {}

        def keep(name):
            return lambda out: st.__setitem__(name, out)

        def csv_round_trip():
            text = st["T"].to_csv()
            return text, Triangle.from_csv(text)

        def json_round_trip():
            text = st["T"].to_json()
            return text, Triangle.from_json(text)

        def freivalds_product(out):
            t = st["T"].rows
            return all(_matvec(out.rows, v) == _matvec(t, _matvec(t, v)) for v in vecs)

        def freivalds_inverse(out):
            t = st["T"].rows
            return all(_matvec(t, _matvec(out.rows, v)) == v for v in vecs)

        def quasi_rows(out):
            g, f = a.g.coeffs, a.f.coeffs
            return [list(r) for r in out.rows] == [
                [g[i]] + [f[i - j + 1] for j in range(1, i + 1)] for i in range(n)
            ]

        def weighted_rows(out, ratio):
            t = st["T"].rows
            return [list(r) for r in out.entries.rows] == [
                [ratio(i, j) * x for j, x in enumerate(row)] for i, row in enumerate(t)
            ]

        def round_trip(out, render):
            text, back = out
            return text == render(st["T"].rows) and back == st["T"]

        checks = {
            "triangle": lambda out: out == st.get("Tc"),
            "triangle_closed": lambda out: out == st.get("T"),
            "matmul": freivalds_product,
            "inverse": freivalds_inverse,
            "quasi_matrix": quasi_rows,
            "factorization_check": lambda out: out is True,
            "c_transform": lambda out: weighted_rows(
                out, lambda i, j: Fraction(math.factorial(i), math.factorial(j))
            ),
            "C_transform": lambda out: weighted_rows(
                out, lambda i, j: Fraction((-1) ** (i - j), math.factorial(i - j))
            ),
            "csv_round_trip": lambda out: round_trip(out, _csv_text),
            "json_round_trip": lambda out: round_trip(out, _json_text),
        }
        calls = {
            "triangle": lambda: a.triangle(n),
            "triangle_closed": lambda: a.triangle_closed(n),
            "matmul": lambda: st["T"] @ st["T"],
            "inverse": lambda: st["T"].inverse(),
            "quasi_matrix": lambda: lib.quasi.QuasiRiordan.of_pair(a).matrix(n),
            "factorization_check": lambda: lib.quasi.factorization_check(a, n),
            "c_transform": lambda: lib.weighted.c_transform(a, fac, n),
            "C_transform": lambda: lib.weighted.C_transform(a, lag, n),
            "csv_round_trip": csv_round_trip,
            "json_round_trip": json_round_trip,
        }
        kept = {"triangle": keep("T"), "triangle_closed": keep("Tc")}
        return [
            Op((kind, n) + ident, calls[kind], checks[kind], kept.get(kind))
            for kind in TRIANGLE_KINDS
        ]


# -- verify_cli ------------------------------------------------------------------

REFERENCE = BENCH / "reference" / "verify_builtin.json"


def suite_outcome(reports: list[dict]) -> str:
    """The (name, status, counterexample) list of a ``verify --out`` file."""
    return json.dumps(
        [[r["name"], r["status"], r.get("counterexample")] for r in reports], sort_keys=True
    )


@dataclass
class ChildRun:
    outcome: str | None
    cpu_s: float
    first_line_s: float | None  # in CPU seconds, at the child's mean rate
    maxrss_kb: int
    calibration_s: float


# Calibrate this often while a child runs; each takes 2-4 ms of its CPU.
SAMPLE_EVERY_S = 0.1


class VerifyCli:
    """``python -m riordan.cli verify --out FILE``, one fresh process per op.

    The builtin suite is fixed, so the seed selects nothing.  Each child's
    report list is compared with the committed reference, not its exit code.
    """

    name = "verify_cli"
    min_ops = 1
    settle_each_round = True

    def __init__(self, lib, seed: int):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.expected = suite_outcome(json.load(fh))
        self.references = {("verify",): digest(self.expected)}
        self.seed = seed
        self.traced = False  # set for a traced pass: children run traced_cli.py
        self.children: list[ChildRun] = []
        self.span_files: list[str] = []

    def warm_up(self) -> None:
        import riordan.cli  # noqa: F401 - compiles the CLI's bytecode once

    def first_op(self) -> None:
        return None

    def round(self, r: int) -> list[Op]:
        return [Op(("verify",), self._spawn, lambda out: out == self.expected, timing=self._timing)]

    def _timing(self) -> tuple[float, float]:
        child = self.children[-1]
        return child.cpu_s, child.calibration_s

    def _spawn(self) -> str | None:
        OUT.mkdir(exist_ok=True)
        tag = f"{os.getpid()}-{len(self.children)}"
        out_path = OUT / f"verify-{tag}.json"
        if out_path.exists():
            out_path.unlink()
        if self.traced:
            spans = str(OUT / f"spans-verify_cli-{self.seed}-{tag}.json")
            self.span_files.append(spans)
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), spans]
        else:
            cmd = [sys.executable, "-m", "riordan.cli"]
        cmd += ["verify", "--out", str(out_path)]
        before = calibrate()
        first = None
        with SpeedSampler(SAMPLE_EVERY_S) as sampler:
            start = perf_counter()
            with open(OUT / f"verify-{tag}.err", "wb") as err:
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env())
            try:
                for _line in proc.stdout:
                    if first is None:
                        first = perf_counter()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        wall = perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        if first is not None:
            first = (first - start) * cpu / wall
        outcome = None
        if out_path.exists():
            with open(out_path, encoding="utf-8") as fh:
                outcome = suite_outcome(json.load(fh))
            out_path.unlink()
        err_path = OUT / f"verify-{tag}.err"
        if outcome is None:
            sys.stderr.write(err_path.read_text(errors="replace"))
        err_path.unlink()
        calibration = sampler.calibration(before, calibrate())
        self.children.append(ChildRun(outcome, cpu, first, usage.ru_maxrss, calibration))
        return outcome


WORKLOADS = {w.name: w for w in (PairAlgebra, TriangleIO, VerifyCli)}


@dataclass
class Pass:
    """Per-op times of one pass: wall, CPU, and CPU at the reference speed."""

    wall: list[float]
    cpu: list[float]
    scaled: list[float]
    rounds: int


# Op time between two calibrations; the host's speed holds for seconds.
CAL_EVERY_S = 0.1


def run_pass(workload, checker: Checker, *, seconds: float = 0.0, min_ops: int = 0,
             rounds: int | None = None, tracer=None) -> Pass:
    """Run whole rounds, timing each op.

    With ``rounds`` the pass runs exactly that many, otherwise it stops at
    the first round boundary after ``seconds`` with at least ``min_ops`` ops.
    Only the library call sits inside an op's timed interval; digests,
    checks and calibrations run between ops.  An op's CPU time is scaled by
    the mean of the calibrations just before and just after it, or for a
    child process by the calibrations taken while it ran.
    """
    wall: list[float] = []
    cpu: list[float] = []
    cal_before: list[int] = []
    own_cal: list[float | None] = []
    cals = [calibrate()]
    since_cal = 0.0
    start = perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            if tracer is not None:
                tracer.active = True
            t0, c0 = perf_counter(), thread_time()
            try:
                out = op.call()
                failed = None
            except Exception as exc:  # a failed op is counted, and the run goes on
                failed = exc
            c1, t1 = thread_time(), perf_counter()
            if tracer is not None:
                tracer.active = False
            cal = None
            if op.timing is not None and failed is None:
                c0, (c1, cal) = 0.0, op.timing()
            wall.append(t1 - t0)
            cpu.append(c1 - c0)
            own_cal.append(cal)
            cal_before.append(len(cals) - 1)
            if failed is not None:
                print(f"op {op.key} raised {failed!r}", file=sys.stderr)
                checker.fail()
            else:
                if op.keep is not None:
                    op.keep(out)
                checker.record(op, out)
            since_cal += t1 - t0
            if since_cal >= CAL_EVERY_S:
                cals.append(calibrate())
                since_cal = 0.0
        if workload.settle_each_round:
            checker.settle()
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif perf_counter() - start >= seconds and len(wall) >= min_ops:
            break
    cals.append(calibrate())
    scaled = [
        c * CAL_REF_S / (own if own is not None else (cals[j] + cals[j + 1]) / 2)
        for c, own, j in zip(cpu, own_cal, cal_before)
    ]
    return Pass(wall, cpu, scaled, r)
