"""Named sequences, series and triangles, and the spec grammar.

Closed forms for Catalan powers, Fuss-Catalan numbers, and the rook,
remainder, and Laguerre triangles, plus the registry of named Riordan
pairs, series, and weights used by the CLI and the test corpus.  The
registry is one table per kind; the spec functions (series_spec,
pair_spec, weight_spec) and catalog_names() all read from it.  Spec text
that is malformed, or has a missing or unexpected parameter, raises
SpecError; a name not in the tables raises CatalogError.

The rook triangle's r_{5,4} and the remainder triangle's E_{4,4} follow
the closed formulas (25 and 24); the two values cross-check each other
through r_{n+1,k} = r_{n,k} + E_{n,k}.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .group import RiordanPair
from .series import Series, _rat
from .weighted import WeightSeq, WeightTri


def binomial(top: int, k: int) -> int:
    """binomial(top, k) for any integer top (falling-factorial product)."""
    if k < 0:
        return 0
    if top >= 0:
        return math.comb(top, k)
    num = 1
    for i in range(k):
        num *= top - i
    return num // math.factorial(k)


# -- Catalan and Fuss-Catalan ------------------------------------------------

def catalan_power_coeff(n: int, k: int) -> Fraction:
    """[t^n] C(t)^k = (k/(2n+k)) binomial(2n+k, n), with C(0,0) = 1."""
    if n < 0 or k < 0:
        raise ValueError(f"negative arguments ({n},{k})")
    return fuss_power_coeff(2, n, k)


def catalan_number(n: int) -> Fraction:
    return catalan_power_coeff(n, 1)


def fuss_catalan(m: int, n: int, r: int) -> Fraction:
    """F_m(n, r) = (r/(mn+r)) binomial(mn+r, n)."""
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got ({m},{n})")
    if m * n + r == 0:
        raise ValueError(f"singular case: mn + r = 0 at (m,n,r)=({m},{n},{r})")
    return Fraction(r, m * n + r) * binomial(m * n + r, n)


def fuss_power_coeff(m: int, n: int, r: int) -> Fraction:
    """[t^n] F_m(t)^r, extending fuss_catalan by the r = 0 convention."""
    if r == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    return fuss_catalan(m, n, r)


def fuss_series(m: int, prec: int) -> Series:
    """F_m(t): built from the closed form, satisfies F = 1 + t F^m."""
    if m < 1:
        raise ValueError("need m >= 1")
    return Series([fuss_catalan(m, n, 1) for n in range(prec + 1)])


def catalan_series(prec: int) -> Series:
    return fuss_series(2, prec)


# -- rook, remainder, and Laguerre triangles ---------------------------------

def rook_entry(n: int, k: int) -> Fraction:
    """r_{n,k} = (n!/k!) binomial(n,k) = (n-k)! binomial(n,k)^2."""
    if not 0 <= k <= n:
        raise ValueError(f"rook entry ({n},{k}) out of range")
    return Fraction(math.factorial(n), math.factorial(k)) * math.comb(n, k)


def remainder_entry(n: int, k: int) -> Fraction:
    """E_{n,k} = ((n^2+n+k)/(n-k+1)) (n-k)! binomial(n,k)^2; E_{n,n+1} = 1."""
    if not 0 <= k <= n + 1:
        raise ValueError(f"remainder entry ({n},{k}) out of range")
    if k == n + 1:
        return Fraction(1)
    return (
        Fraction(n * n + n + k, n - k + 1)
        * math.factorial(n - k)
        * math.comb(n, k) ** 2
    )


def laguerre_entry(n: int, k: int) -> Fraction:
    """L_{n,k} = ((-1)^{n-k} / (n-k)!) binomial(n,k)."""
    if not 0 <= k <= n:
        raise ValueError(f"Laguerre entry ({n},{k}) out of range")
    return Fraction((-1) ** (n - k) * math.comb(n, k), math.factorial(n - k))


# -- registry and spec grammar -----------------------------------------------


class CatalogError(LookupError):
    """Unknown catalog name."""


class SpecError(ValueError):
    """Malformed input text: a bad number, or a missing or unexpected parameter."""


def _shown(text: str) -> str:
    """repr(text) for a message: at most 60 characters, then the full length."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


def _number(text: str, kind=_rat):
    try:
        return kind(text)
    except ValueError:
        raise SpecError(f"malformed number: {_shown(text.strip())}") from None


def _rationals(text: str) -> list[Fraction]:
    return [_number(tok) for tok in text.split(",")]


def _build(table: dict, kind: str, name: str, param: str | None, size: int):
    """Build table[name] at size; param is None when the spec gave none."""
    if name not in table:
        raise CatalogError(f"unknown {kind} name: {_shown(name)}")
    build, default = table[name]
    if param == "":
        raise SpecError(f"malformed {kind} spec: empty parameter after {name}:")
    if default is None:
        if param is not None:
            raise SpecError(f"malformed {kind} spec: {name} takes no parameter")
        return build(size)
    if param is None and not default:
        raise SpecError(f"malformed {kind} spec: {name} needs a parameter")
    return build(size, param or default)


def _is_name(text: str) -> bool:
    return text.strip()[:1].isalpha()


def _split(text: str) -> tuple[str, str | None]:
    """NAME[:PARAM] -> (NAME, PARAM), with PARAM None when there is no colon."""
    name, colon, param = text.strip().partition(":")
    return name, param if colon else None


def _bell(s: Series) -> RiordanPair:
    """The Bell pair (s, t s)."""
    return RiordanPair(s, s.shift_up().truncate(s.prec))


def _appell(prec: int, spec: str) -> RiordanPair:
    return RiordanPair(series_spec(spec, prec), Series.t(prec))


def _lagrange(prec: int, spec: str) -> RiordanPair:
    s = series_spec(spec, prec)
    return RiordanPair(Series.one(prec), s.shift_up().truncate(prec))


# name -> (builder, parameter): parameter None means the name takes none,
# "" that one must be given, anything else is the default when left out.
_SERIES = {
    "catalan": (catalan_series, None),
    "fuss": (lambda prec, m: fuss_series(_number(m, int), prec), ""),
    "geometric": (lambda prec, r: Series.geometric(prec, _number(r)), "1"),
    "one": (Series.one, None),
    "t": (Series.t, None),
    "ternary": (lambda prec: fuss_series(3, prec), None),
}
_PAIRS = {
    "appell": (_appell, "geometric"),
    "catalan_bell": (lambda prec: _bell(catalan_series(prec)), None),
    "fuss_bell": (lambda prec, m: _bell(fuss_series(_number(m, int), prec)), "3"),
    "identity": (RiordanPair.identity, None),
    "lagrange": (_lagrange, "geometric"),
    "pascal": (lambda prec: _bell(Series.geometric(prec)), None),
}
_WEIGHTS = {
    "factorial": (WeightSeq.factorial, None),
    "laguerre": (WeightTri.laguerre, None),
    "power": (lambda n, base: WeightSeq.power(_number(base), n), ""),
}


def named_series(name: str, prec: int, param: str | None = None) -> Series:
    """Builtin series by name; 'fuss' needs a parameter, 'geometric' takes one."""
    return _build(_SERIES, "series", name, param, prec)


def named_riordan(name: str, prec: int, param: str | None = None) -> RiordanPair:
    """Builtin Riordan pairs.

    pascal           (1/(1-t), t/(1-t))
    identity         (1, t)
    catalan_bell     (C, tC)
    fuss_bell:m      (F_m, t F_m), m = 3 by default
    appell:SERIES    (g, t), with g the series spec (geometric by default)
    lagrange:SERIES  (1, t*SERIES) with SERIES a unit (geometric by default)
    """
    return _build(_PAIRS, "Riordan pair", name, param, prec)


def series_spec(text: str, prec: int) -> Series:
    """A rational list such as '1,1/2,-3', or NAME[:PARAM] such as 'fuss:4'."""
    if not _is_name(text):
        return Series.from_coeffs(_rationals(text), prec)
    name, param = _split(text)
    return named_series(name, prec, param)


def pair_spec(text: str, prec: int) -> RiordanPair:
    """NAME[:PARAM] such as 'fuss_bell:3', or GSPEC;FSPEC such as '1;0,1,1'."""
    gtext, semi, ftext = text.partition(";")
    if semi:
        return RiordanPair(series_spec(gtext, prec), series_spec(ftext, prec))
    if not _is_name(text):
        raise SpecError(f"malformed pair spec: {_shown(text)} is neither NAME nor G;F")
    name, param = _split(text)
    return named_riordan(name, prec, param)


def weight_spec(text: str, n: int) -> WeightTri:
    """Weights up to index n: a rational list, factorial, power:K or laguerre."""
    if not _is_name(text):
        return WeightSeq(_rationals(text))
    return _build(_WEIGHTS, "weight", *_split(text), n)


def catalog_names() -> dict[str, list[str]]:
    """Stable sorted listing of every registry name."""
    return {
        "pairs": sorted(_PAIRS),
        "series": sorted(_SERIES),
        "weights": sorted(_WEIGHTS),
    }


# -- deterministic test corpus ------------------------------------------------

def random_pair(rng: random.Random, prec: int) -> RiordanPair:
    """A random proper pair with small rational coefficients."""
    def coeff() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    g = Series([Fraction(1)] + [coeff() for _ in range(prec)])
    f1 = Fraction(0)
    while f1 == 0:
        f1 = coeff()
    f = Series([Fraction(0), f1] + [coeff() for _ in range(prec - 1)])
    return RiordanPair(g, f)


CORPUS_NAMES = (
    "pascal", "identity", "catalan_bell", "fuss_bell3", "appell_geometric",
    "lagrange_geometric", "derivative_geometric", "checkerboard", "random_a",
    "random_b",
)


def corpus(prec: int = 48, seed: int = 20240826) -> dict[str, RiordanPair]:
    """Ten fixed pairs exercising every named subgroup shape, keyed by CORPUS_NAMES."""
    rng = random.Random(seed)
    geo = Series.geometric(prec)
    pairs = [
        named_riordan("pascal", prec),
        named_riordan("identity", prec),
        named_riordan("catalan_bell", prec),
        named_riordan("fuss_bell", prec, "3"),
        named_riordan("appell", prec, "geometric"),
        named_riordan("lagrange", prec, "geometric"),
        # derivative pair (f', f) for f = t/(1-t): f' = 1/(1-t)^2
        RiordanPair((geo * geo).truncate(prec), geo.shift_up().truncate(prec)),
        # checkerboard pair (1/(1-t^2), t/(1-t^2))
        RiordanPair(
            Series([1 if i % 2 == 0 else 0 for i in range(prec + 1)]),
            Series([0 if i % 2 == 0 else 1 for i in range(prec + 1)]),
        ),
        random_pair(rng, prec),
        random_pair(rng, prec),
    ]
    return dict(zip(CORPUS_NAMES, pairs, strict=True))
