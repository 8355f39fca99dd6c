"""Command-line surface.

Subcommands: triangle, quasi, mul, inv, az, ctransform, verify, catalog.
Exit codes: 0 success, 64 usage/parse error (including a malformed
RIORDAN_PREC or catalog parameter), 65 math-domain error; the
verify subcommand instead uses the report contract (0 all verified,
1 counterexample, 2 inconclusive).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import harness
from .catalog import (
    CatalogError,
    ParamError,
    catalog_names,
    named_riordan,
    named_series,
)
from .group import RiordanPair, RiordanError
from .matrices import Triangle
from .quasi import QuasiRiordan
from .series import Series, SeriesError
from .weighted import WeightSeq, WeightTri, WeightError, c_transform, C_transform

DEFAULT_PREC = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def parse_series(text: str, prec: int) -> Series:
    """A comma-separated rational literal or a builtin name[:param]."""
    text = text.strip()
    if "," in text or _is_rational(text):
        coeffs = []
        for tok in text.split(","):
            tok = tok.strip()
            if not _is_rational(tok):
                raise UsageError(f"malformed rational: {tok!r}")
            coeffs.append(Fraction(tok))
        return Series.from_coeffs(coeffs, prec)
    name, _, param = text.partition(":")
    return named_series(name, prec, param or None)


def _is_rational(tok: str) -> bool:
    try:
        Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def parse_pair(args: argparse.Namespace, prec: int, attr: str = "name") -> RiordanPair:
    """Pair from --name NAME[:param], or from --g/--f series specs."""
    name = getattr(args, attr, None)
    if name:
        pair_name, _, param = name.partition(":")
        return named_riordan(pair_name, prec, param or None)
    if getattr(args, "g", None) and getattr(args, "f", None):
        return RiordanPair(parse_series(args.g, prec), parse_series(args.f, prec))
    raise UsageError("specify a pair with --name or with --g and --f")


def parse_weight(text: str, n: int):
    """Named weight (factorial, power:K, laguerre) or a rational list."""
    text = text.strip()
    if "," in text or _is_rational(text):
        values = [tok.strip() for tok in text.split(",")]
        for tok in values:
            if not _is_rational(tok):
                raise UsageError(f"malformed rational: {tok!r}")
        return WeightSeq(values)
    name, _, param = text.partition(":")
    if name == "factorial":
        return WeightSeq.factorial(n)
    if name == "power":
        if not param:
            raise UsageError("power weight needs a base, e.g. power:2")
        if not _is_rational(param):
            raise UsageError(f"malformed rational: {param!r}")
        return WeightSeq.power(Fraction(param), n)
    if name == "laguerre":
        return WeightTri.laguerre(n)
    raise UsageError(f"unknown weight: {text!r}")


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
        p.add_argument("--name", help="builtin pair name, e.g. pascal or fuss_bell:3")
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
    p.add_argument("--a", required=True, help="pair name or 'GSPEC;FSPEC'")
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


def _pair_from_spec(spec: str, prec: int) -> RiordanPair:
    if ";" in spec:
        gtext, _, ftext = spec.partition(";")
        return RiordanPair(parse_series(gtext, prec), parse_series(ftext, prec))
    name, _, param = spec.partition(":")
    return named_riordan(name, prec, param or None)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    prec = args.prec
    if prec is None:
        env = os.environ.get("RIORDAN_PREC", str(DEFAULT_PREC))
        try:
            prec = int(env)
        except ValueError:
            raise UsageError(f"RIORDAN_PREC must be an integer, got {env!r}") from None
    if prec < 1:
        raise UsageError("precision must be >= 1")
    if getattr(args, "order", None) is not None and args.order < 1:
        raise UsageError("order must be >= 1")

    if args.command == "triangle":
        ra = parse_pair(args, max(prec, args.order - 1))
        _emit_triangle(ra.triangle(args.order), args.format, args.out)
        return 0

    if args.command == "quasi":
        ra = parse_pair(args, max(prec, args.order - 1))
        q = QuasiRiordan.of_pair(ra)
        _emit_triangle(q.matrix(args.order), args.format, args.out)
        return 0

    if args.command == "mul":
        product = _pair_from_spec(args.a, prec) * _pair_from_spec(args.b, prec)
        if args.order is not None:
            _emit_triangle(product.triangle(args.order), args.format, args.out)
        else:
            _emit(f"g: {_series_line(product.g)}\nf: {_series_line(product.f)}\n", args.out)
        return 0

    if args.command == "inv":
        inv = parse_pair(args, prec).inverse()
        if args.order is not None:
            _emit_triangle(inv.triangle(args.order), args.format, args.out)
        else:
            _emit(f"g: {_series_line(inv.g)}\nf: {_series_line(inv.f)}\n", args.out)
        return 0

    if args.command == "az":
        az = parse_pair(args, prec).extract_az()
        _emit(f"A: {_series_line(az.a)}\nZ: {_series_line(az.z)}\n", args.out)
        return 0

    if args.command == "ctransform":
        ra = parse_pair(args, max(prec, args.order - 1))
        weight = parse_weight(args.weight, args.order - 1)
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
        payload = harness.reports_to_json(reports) + "\n"
        if args.out:
            _emit(payload, args.out)
        else:
            sys.stdout.write(payload)
        return harness.exit_code(reports)

    if args.command == "catalog":
        names = catalog_names()
        for kind in sorted(names):
            for name in names[kind]:
                print(f"{kind}: {name}")
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (UsageError, ParamError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (SeriesError, RiordanError, WeightError, CatalogError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
