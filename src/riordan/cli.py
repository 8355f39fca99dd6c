"""Command-line surface.

Subcommands: triangle, quasi, mul, inv, az, ctransform, verify, catalog.
Pair, series and weight specs are parsed by riordan.catalog (series_spec,
pair_spec, weight_spec); this module only reads flags and maps errors to
exit codes: 0 success, 64 usage error (a bad flag, a malformed spec or
RIORDAN_PREC, a missing or unexpected parameter), 65 an unknown catalog
name or a value the maths rejects, 73 an --out file that cannot be
written.  The verify subcommand instead uses the report contract (0 all
verified, 1 counterexample, 2 inconclusive), and 73 as above.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .catalog import (
    CatalogError,
    SpecError,
    catalog_names,
    pair_spec,
    series_spec,
    weight_spec,
)
from .group import RiordanPair
from .matrices import Triangle
from .quasi import QuasiRiordan
from .series import Series, SeriesError
from .weighted import WeightSeq, c_transform, C_transform

DEFAULT_PREC = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise SpecError(message)


def _pair(args: argparse.Namespace, prec: int) -> RiordanPair:
    """The pair given by --name, or by --g and --f."""
    if args.name and (args.g or args.f):
        raise SpecError("give a pair with --name or with --g/--f, not both")
    if args.name:
        return pair_spec(args.name, prec)
    if args.g and args.f:
        return RiordanPair(series_spec(args.g, prec), series_spec(args.f, prec))
    raise SpecError("specify a pair with --name or with --g and --f")


def _series_line(s: Series) -> str:
    coeffs = list(s.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ", ".join(str(c) for c in coeffs)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_triangle(tri: Triangle, fmt: str, out: str | None) -> None:
    _emit(tri.to_csv() if fmt == "csv" else tri.to_json() + "\n", out)


def build_parser() -> _Parser:
    parser = _Parser(prog="riordan", description=__doc__)
    parser.add_argument("--prec", type=int, default=None, help="working precision")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_opts(p):
        p.add_argument("--name", help="pair spec, e.g. fuss_bell:3 or '1;0,1,1'")
        p.add_argument("--g", help="series spec for g")
        p.add_argument("--f", help="series spec for f")

    def add_output_opts(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--order", type=int, help="also print the product triangle")
    add_output_opts(p)

    p = sub.add_parser("inv", help="inverse of a Riordan pair")
    add_pair_opts(p)
    p.add_argument("--order", type=int, help="also print the inverse triangle")
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


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    prec = args.prec
    if prec is None:
        env = os.environ.get("RIORDAN_PREC", str(DEFAULT_PREC))
        try:
            prec = int(env)
        except ValueError:
            raise SpecError(f"RIORDAN_PREC must be an integer, got {env!r}") from None
    if prec < 1:
        raise SpecError("precision must be >= 1")
    order = getattr(args, "order", None)
    if order is not None:
        if order < 1:
            raise SpecError("order must be >= 1")
        prec = max(prec, order - 1)  # a section of order n reads t^(n-1)

    if args.command == "triangle":
        ra = _pair(args, prec)
        _emit_triangle(ra.triangle(args.order), args.format, args.out)
        return 0

    if args.command == "quasi":
        ra = _pair(args, prec)
        q = QuasiRiordan.of_pair(ra)
        _emit_triangle(q.matrix(args.order), args.format, args.out)
        return 0

    if args.command in ("mul", "inv"):
        if args.command == "mul":
            ra = pair_spec(args.a, prec) * pair_spec(args.b, prec)
        else:
            ra = _pair(args, prec).inverse()
        if args.order is not None:
            _emit_triangle(ra.triangle(args.order), args.format, args.out)
        else:
            _emit(f"g: {_series_line(ra.g)}\nf: {_series_line(ra.f)}\n", args.out)
        return 0

    if args.command == "az":
        az = _pair(args, prec).extract_az()
        _emit(f"A: {_series_line(az.a)}\nZ: {_series_line(az.z)}\n", args.out)
        return 0

    if args.command == "ctransform":
        ra = _pair(args, prec)
        weight = weight_spec(args.weight, args.order - 1)
        if isinstance(weight, WeightSeq):
            wt = c_transform(ra, weight, args.order)
        else:
            wt = C_transform(ra, weight, args.order)
        _emit_triangle(wt.entries, args.format, args.out)
        return 0

    if args.command == "verify":
        reports = harness.builtin_suite()
        for r in reports:
            line = f"{r.status:>14}  {r.name} (n_max={r.n_max}, {r.k_policy})"
            if r.counterexample:
                c = r.counterexample
                line += f"  at ({c.n},{c.k}): {c.lhs} != {c.rhs}"
            print(line)
        _emit(harness.reports_to_json(reports) + "\n", args.out)
        return harness.exit_code(reports)

    names = catalog_names()  # the catalog subcommand
    for kind in sorted(names):
        for name in names[kind]:
            print(f"{kind}: {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except SpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    # RiordanError is a SeriesError, WeightError a ValueError
    except (CatalogError, SeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 73


if __name__ == "__main__":
    sys.exit(main())
