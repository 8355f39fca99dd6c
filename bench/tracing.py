"""Spans around the library's public callables, recorded from outside it.

``Tracer.install`` wraps every public function and public method of the
eight ``riordan`` modules and rebinds every module attribute that names one
of them, so calls through a by-name import (``from .weighted import
c_transform`` in ``harness`` and ``cli``) are traced too.  Per-coefficient
accessors are left alone, or the trace would mostly measure itself.

Each span is ``(id, parent, callable, start, end, done)`` in nanoseconds;
``done - end`` is the tracer's own bookkeeping after the call, which is
charged to neither the span nor its parent.  Spans stay in memory and are
written out once, by ``Tracer.dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("series", "matrices", "group", "quasi", "weighted", "catalog", "harness", "cli")

# Called once per coefficient or entry; wrapping them would swamp the trace.
SKIP = {
    "Series.__getitem__",
    "Triangle.entry",
    "WeightSeq.__getitem__",
    "WeightTri.at",
    "format_rational",
}
# Operators that are layer operations rather than plumbing.
DUNDERS = {"__mul__", "__matmul__", "__add__", "__sub__", "__neg__"}

# Per-layer metric -> the callables (module-qualified) whose spans it sums.
GROUPS = {
    "series.mul": ["series:Series.__mul__"],
    "series.reciprocal": ["series:Series.reciprocal"],
    "series.compose": ["series:Series.compose"],
    "series.comp_inverse": ["series:Series.comp_inverse"],
    "group.pair_mul": ["group:RiordanPair.__mul__"],
    "group.inverse": ["group:RiordanPair.inverse"],
    "group.extract_az": ["group:RiordanPair.extract_az"],
    "group.apply": ["group:RiordanPair.apply"],
    "group.triangle": ["group:RiordanPair.triangle"],
    "group.triangle_closed": ["group:RiordanPair.triangle_closed"],
    "matrices.matmul": ["matrices:Triangle.__matmul__"],
    "matrices.inverse": ["matrices:Triangle.inverse"],
    "matrices.write": ["matrices:Triangle.to_csv", "matrices:Triangle.to_json"],
    "matrices.read": ["matrices:Triangle.from_csv", "matrices:Triangle.from_json"],
    "quasi.matrix": ["quasi:QuasiRiordan.matrix"],
    "quasi.factorization_check": ["quasi:factorization_check"],
    "weighted.transform": ["weighted:c_transform", "weighted:C_transform"],
    "weighted.recursion": [
        "weighted:horiz_recursion_c",
        "weighted:horiz_recursion_C",
        "weighted:vert_recursion_c",
        "weighted:vert_recursion_C",
    ],
    "catalog.closed_form": [
        "catalog:" + name
        for name in (
            "binomial",
            "falling",
            "catalan_power_coeff",
            "catalan_number",
            "fuss_catalan",
            "fuss_power_coeff",
            "rook_entry",
            "remainder_entry",
            "laguerre_entry",
            "rook_poly",
            "remainder_poly",
        )
    ],
    "catalog.named": ["catalog:named_series", "catalog:named_riordan"],
    "harness.verify": ["harness:verify"],
    "cli.main": ["cli:main"],
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{g}.{m}", u, "lower") for g in GROUPS for m, u in (("calls", "calls/op"), ("self_ms", "ms/op"))]
    + [
        ("series.max_coeff_bits", "bits", "lower"),
        ("matrices.bytes_written", "B/op", "lower"),
        ("harness.entries_compared", "entries/op", "higher"),
        ("harness.outside_verify_ms", "ms/op", "lower"),
        ("harness.checks_not_verified", "checks/op", "lower"),
        ("cli.first_line_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in MODULES]
    + [("trace_overhead", "ms/op", "lower")]
)


def _public_callables():
    """(layer, qualname, owner, attr, raw) for each callable to wrap."""
    for layer in MODULES:
        mod = importlib.import_module(f"riordan.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if name not in SKIP:
                    yield layer, name, mod, name, obj
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    qual = f"{name}.{attr}"
                    if attr.startswith("_") and attr not in DUNDERS or qual in SKIP:
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                        yield layer, qual, obj, attr, raw


class Tracer:
    """In-memory spans for the wrapped callables; records only while active."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.stack = [0]
        self.next_id = 1
        self.errors: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.bytes_written = 0
        self.entries_compared = 0
        self.checks_not_verified = 0
        self._last_error = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from riordan.series import Series

        replaced: dict[int, object] = {}
        for layer, qual, owner, attr, raw in list(_public_callables()):
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            target = self._count_entries(fn) if f"{layer}:{qual}" == "harness:verify" else fn
            post = None
            if layer == "series":
                post = self._note_bits(Series)
            elif qual in ("Triangle.to_csv", "Triangle.to_json"):
                post = self._note_bytes
            wrapper = self._wrap(target, fn, layer, qual, post)
            if isinstance(owner, type):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, type(raw)(wrapper) if fn is not raw else wrapper)
            else:
                replaced[id(fn)] = (fn, wrapper)
        # Rebind every module attribute naming a wrapped function, including
        # by-name imports in other riordan modules and in the benchmark.
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for attr, value in list(space.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, target, fn, layer, qual, post):
        tr = self
        idx = len(self.names)
        self.names.append(f"{layer}:{qual}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return target(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1]
            sid = tr.next_id
            tr.next_id = sid + 1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                res = target(*args, **kwargs)
            except Exception as exc:
                t1 = perf_counter_ns()
                if exc is not tr._last_error:
                    tr._last_error = exc
                    tr.errors[layer] += 1
                tr.spans.append((sid, parent, idx, t0, t1, t1))
                raise
            finally:
                stack.pop()
            t1 = perf_counter_ns()
            if post is not None:
                post(res)
            tr.spans.append((sid, parent, idx, t0, t1, perf_counter_ns()))
            return res

        return wrapper

    def _note_bits(self, series_cls):
        def post(res):
            if type(res) is series_cls:
                bits = max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in res.coeffs
                )
                if bits > self.max_bits:
                    self.max_bits = bits

        return post

    def _note_bytes(self, text):
        self.bytes_written += len(text.encode())

    def _count_entries(self, verify):
        """``harness.verify`` that also counts the (n, k) entries it compares."""
        tr = self
        signature = inspect.signature(verify)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            rhs = bound.arguments["rhs"]
            inner = rhs.eval

            def counting_eval(n, k):
                value = inner(n, k)
                if tr.active:
                    tr.entries_compared += 1
                return value

            bound.arguments["rhs"] = dataclasses.replace(rhs, eval=counting_eval)
            report = verify(*bound.args, **bound.kwargs)
            if tr.active and report.status != "verified":
                tr.checks_not_verified += 1
            return report

        return counted

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Sums over the recorded spans, in a form that adds across processes."""
        cover: dict[int, int] = defaultdict(int)
        parent_of: dict[int, tuple[int, int]] = {}
        for sid, parent, idx, t0, _t1, done in self.spans:
            cover[parent] += done - t0
            parent_of[sid] = (parent, idx)
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for sid, _parent, idx, t0, t1, _done in self.spans:
            calls[self.names[idx]] += 1
            self_ns[self.names[idx]] += (t1 - t0) - cover[sid]
        return {
            "calls": dict(calls),
            "self_ns": dict(self_ns),
            "errors": dict(self.errors),
            "max_bits": self.max_bits,
            "bytes_written": self.bytes_written,
            "entries_compared": self.entries_compared,
            "checks_not_verified": self.checks_not_verified,
            "outside_verify_ns": self._outside_verify(parent_of),
        }

    def _outside_verify(self, parent_of) -> int:
        """Time inside ``builtin_suite`` spans not covered by a ``verify`` span."""
        try:
            suite = self.names.index("harness:builtin_suite")
            verify = self.names.index("harness:verify")
        except ValueError:
            return 0
        total = 0
        for _sid, parent, idx, t0, t1, done in self.spans:
            if idx == suite:
                total += t1 - t0
            elif idx == verify:
                node = parent_of.get(parent)
                while node is not None and node[1] != suite:
                    node = parent_of.get(node[0])
                if node is not None:
                    total -= done - t0
        return total

    def dump(self, path, **extra) -> None:
        """Write the spans once, with the callable names they index."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, **extra}, fh)


def add_totals(acc: dict, more: dict) -> dict:
    """Combine the totals of two processes or passes."""
    out = dict(acc)
    for key in ("calls", "self_ns", "errors"):
        merged = defaultdict(int, acc.get(key, {}))
        for name, value in more.get(key, {}).items():
            merged[name] += value
        out[key] = dict(merged)
    out["max_bits"] = max(acc.get("max_bits", 0), more.get("max_bits", 0))
    for key in ("bytes_written", "entries_compared", "checks_not_verified", "outside_verify_ns"):
        out[key] = acc.get(key, 0) + more.get(key, 0)
    return out


def layer_metrics(totals: dict, ops: int, scale: float, first_line_ms: float,
                  import_ms: float, overhead_ms: float) -> dict[str, float]:
    """Every per-layer metric; counts and times are per op of the traced pass.

    Span times are multiplied by ``scale``, the pass's factor to the
    reference speed; the three times passed in are scaled already.
    """
    ops = max(ops, 1)
    ms = scale / 1e6 / ops
    calls, self_ns = totals.get("calls", {}), totals.get("self_ns", {})
    values: dict[str, float] = {}
    for group, members in GROUPS.items():
        values[f"{group}.calls"] = sum(calls.get(m, 0) for m in members) / ops
        values[f"{group}.self_ms"] = sum(self_ns.get(m, 0) for m in members) * ms
    values["series.max_coeff_bits"] = totals.get("max_bits", 0)
    values["matrices.bytes_written"] = totals.get("bytes_written", 0) / ops
    values["harness.entries_compared"] = totals.get("entries_compared", 0) / ops
    values["harness.outside_verify_ms"] = totals.get("outside_verify_ns", 0) * ms
    values["harness.checks_not_verified"] = totals.get("checks_not_verified", 0) / ops
    values["cli.first_line_ms"] = first_line_ms
    values["cli.import_ms"] = import_ms
    for layer in MODULES:
        values[f"{layer}.errors"] = totals.get("errors", {}).get(layer, 0)
    values["trace_overhead"] = overhead_ms
    return values
