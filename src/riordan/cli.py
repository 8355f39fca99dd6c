"""Exact Riordan arrays, quasi-Riordan arrays and weighted triangles.

Exit codes: 0 success; 64 usage error (a bad flag, a malformed spec, a
missing or unexpected parameter, a number past the int-string digit limit);
65 an unknown catalog name, a value the maths rejects, or a computed entry
past that limit (PYTHONINTMAXSTRDIGITS=0 lifts it); 73 an --out file that
cannot be written.  verify exits 0 all verified, 1 counterexample, 2
inconclusive, or 73.  Closing stdout early never changes an exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable

from . import harness
from .catalog import CatalogError, SpecError, catalog_names, pair_spec, weight_spec
from .quasi import QuasiRiordan
from .series import Series, SeriesError
from .weighted import c_transform

DEFAULT_PREC = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise SpecError(message)


def _series_line(s: Series) -> str:
    coeffs = list(s.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ", ".join(str(c) for c in coeffs)


def _lines(**named: Series) -> str:
    """One "name: c_0, c_1, ..." line per series."""
    return _written(
        lambda: "".join(f"{k}: {_series_line(s)}\n" for k, s in named.items()),
        ((f"{k}_{n}", c) for k, s in named.items() for n, c in enumerate(s.coeffs)),
    )


def _written(write: Callable[[], str], cells: Iterable[tuple[str, Fraction]]) -> str:
    """write(), or if str() refuses a number past the int-string digit limit,
    a ValueError that names the first such cell, looked for only then."""
    try:
        return write()
    except ValueError:
        from decimal import Decimal  # sizes an int with no str(), which is refused

        limit = sys.get_int_max_str_digits()
        for where, x in cells:
            digits = 1 + max(Decimal(v).adjusted() for v in x.as_integer_ratio())
            if digits > limit:
                raise ValueError(
                    f"{where} has {digits} digits, past the int-string limit of "
                    f"{limit} digits; set PYTHONINTMAXSTRDIGITS=0 to write it"
                ) from None
        raise


def _emit(text: str, out: str | None = None) -> None:
    """Write text to the file out, or else to stdout and flush it."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`riordan ... | head`): --out and the exit code
        # still stand, so the rest of stdout goes to os.devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report_line(r: harness.VerificationReport) -> str:
    line = f"{r.status:>14}  {r.name} (n_max={r.n_max}, {r.k_policy})"
    if r.counterexample:
        c = r.counterexample
        line += f"  at ({c.n},{c.k}): {c.lhs} != {c.rhs}"
    return line + "\n"


def build_parser() -> _Parser:
    parser = _Parser(prog="riordan", description=__doc__)
    parser.add_argument("--prec", type=int, default=DEFAULT_PREC, help="precision")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_opts(p):
        p.add_argument("--name", required=True, help="pair spec, e.g. fuss_bell:3")

    def add_output_opts(p):
        p.add_argument("--format", choices=("csv", "json"), help="default csv")
        p.add_argument("--out", help="write to this path instead of stdout")

    p = sub.add_parser("triangle", help="finite section of a Riordan array")
    add_pair_opts(p)
    p.add_argument("--order", type=int, required=True)
    add_output_opts(p)

    p = sub.add_parser("quasi", help="finite section of a quasi-Riordan array")
    add_pair_opts(p)
    p.add_argument("--order", type=int, required=True)
    add_output_opts(p)

    p = sub.add_parser("mul", help="product of two Riordan pairs")
    p.add_argument("--a", required=True, help="pair spec, e.g. pascal or '1;0,1,1'")
    p.add_argument("--b", required=True)
    p.add_argument("--order", type=int, help="print the product triangle, not g and f")
    add_output_opts(p)

    p = sub.add_parser("inv", help="inverse of a Riordan pair")
    add_pair_opts(p)
    p.add_argument("--order", type=int, help="print the inverse triangle, not g and f")
    add_output_opts(p)

    p = sub.add_parser("az", help="A- and Z-sequences of a Riordan pair")
    add_pair_opts(p)
    p.add_argument("--out")

    p = sub.add_parser("ctransform", help="weighted (c)/(C) triangle")
    add_pair_opts(p)
    p.add_argument("--weight", required=True, help="factorial, power:K, laguerre, or a rational list")
    p.add_argument("--order", type=int, required=True)
    add_output_opts(p)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--suite", choices=("builtin",), default="builtin")
    p.add_argument("--out", help="write the JSON reports to this path")

    p = sub.add_parser("catalog", help="registry listing")
    p.add_argument("action", choices=("list",))

    return parser


def _text(args: argparse.Namespace, prec: int) -> str:
    """What a section subcommand prints: g/f, A/Z, or one triangle."""
    if args.command == "mul":
        ra = pair_spec(args.a, prec) * pair_spec(args.b, prec)
    else:
        ra = pair_spec(args.name, prec)
    if args.command == "inv":
        ra = ra.inverse()
    if args.command == "az":
        az = ra.extract_az()
        return _lines(A=az.a, Z=az.z)
    if args.order is None:  # mul or inv
        return _lines(g=ra.g, f=ra.f)
    if args.command == "quasi":
        tri = QuasiRiordan.of_pair(ra).matrix(args.order)
    elif args.command == "ctransform":
        tri = c_transform(ra, weight_spec(args.weight, args.order - 1), args.order).entries
    else:  # triangle, or mul / inv with --order
        tri = ra.triangle(args.order)
    rows = enumerate(tri.rows)
    return _written(
        lambda: tri.to_json() + "\n" if args.format == "json" else tri.to_csv(),
        ((f"entry ({n}, {k})", x) for n, row in rows for k, x in enumerate(row)),
    )


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    prec = args.prec
    if prec < 1:
        raise SpecError("precision must be >= 1")
    order = getattr(args, "order", None)
    if order is not None:
        if order < 1:
            raise SpecError("order must be >= 1")
        prec = max(prec, order - 1)  # a section of order n reads t^(n-1)
    elif getattr(args, "format", None):  # only mul and inv have an optional --order
        raise SpecError("--format needs --order")

    if args.command == "verify":
        reports = harness.builtin_suite(lambda r: _emit(_report_line(r)))
        _emit(harness.reports_to_json(reports) + "\n", args.out)
        return harness.exit_code(reports)

    if args.command == "catalog":
        names = catalog_names()
        _emit("".join(f"{kind}: {name}\n" for kind in sorted(names) for name in names[kind]))
        return 0

    _emit(_text(args, prec), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except SpecError as exc:
        code, message = 64, f"usage error: {exc}"
    # RiordanError is a SeriesError, WeightError a ValueError
    except (CatalogError, SeriesError, ValueError) as exc:
        code, message = 65, f"error: {exc}"
    except OSError as exc:  # an --out path that cannot be written
        code, message = 73, f"error: {exc}"
    sys.stderr.write(message + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
