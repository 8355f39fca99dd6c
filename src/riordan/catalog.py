"""Named sequences, series, triangles, and polynomials.

Closed forms for Catalan powers, Fuss-Catalan numbers, and the rook,
remainder, and Laguerre triangles, plus the registry of named Riordan
pairs, series, and weight tables used by the CLI and the test corpus.

The rook triangle's r_{5,4} and the remainder triangle's E_{4,4} follow
the closed formulas (25 and 24); the two values cross-check each other
through r_{n+1,k} = r_{n,k} + E_{n,k}.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .group import RiordanPair
from .series import Series


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


def falling(n: int, j: int) -> int:
    """(n)_j = n (n-1) ... (n-j+1)."""
    out = 1
    for i in range(j):
        out *= n - i
    return out


# -- Catalan and Fuss-Catalan ------------------------------------------------

def catalan_power_coeff(n: int, k: int) -> Fraction:
    """[t^n] C(t)^k = (k/(2n+k)) binomial(2n+k, n), with C(0,0) = 1."""
    if n < 0 or k < 0:
        raise ValueError(f"negative arguments ({n},{k})")
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    return Fraction(k, 2 * n + k) * binomial(2 * n + k, n)


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


def rook_poly(n: int) -> list[Fraction]:
    """Coefficients of r_n(x) = sum_k r_{n,k} x^{n-k}, ascending degree."""
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = rook_entry(n, k)
    return out


def remainder_poly(n: int) -> list[Fraction]:
    """Coefficients of r(E_n, x) = sum_{k=0}^{n+1} E_{n,k} x^{n+1-k}."""
    out = [Fraction(0)] * (n + 2)
    for k in range(n + 2):
        out[n + 1 - k] = remainder_entry(n, k)
    return out


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rook_poly_expansion_check(n: int) -> bool:
    """The two expansion facts tying r_n, r_{n+1}, and r(E_n, x) together.

    (i)  r_{n+1}(x) = x r_n(x) + r(E_n, x), coefficientwise;
    (ii) r_{n+1}(x) = sum_{k=0}^{n} x^{n-k} r(E_k, x) + x^{n+1}.

    The entrywise form r_{n+1,k} = r_{n,k} + E_{n,k} is (i) read at the
    coefficient of x^(n+1-k); the builtin suite's rook-remainder-consistency
    row checks it entry by entry.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    target = rook_poly(n + 1)

    shifted = [Fraction(0)] + rook_poly(n)
    rem = remainder_poly(n)
    if [a + b for a, b in zip(shifted, rem)] != target:
        return False

    acc = [Fraction(0)] * (n + 2)
    acc[n + 1] = Fraction(1)
    for k in range(n + 1):
        rk = remainder_poly(k)  # degree k+1
        for d, c in enumerate(rk):
            acc[n - k + d] += c
    return acc == target


# -- registry ----------------------------------------------------------------

_SERIES_NAMES = ("catalan", "fuss", "geometric", "one", "t", "ternary")
_PAIR_NAMES = ("appell", "catalan_bell", "fuss_bell", "identity", "lagrange", "pascal")
_WEIGHT_NAMES = ("factorial", "laguerre", "power")


class CatalogError(LookupError):
    """Unknown catalog name."""


class ParamError(CatalogError, ValueError):
    """A catalog name's parameter does not parse as a number."""


def _param(text: str, kind: type):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParamError(f"malformed parameter: {text!r}") from None


def named_series(name: str, prec: int, param: str | None = None) -> Series:
    """Builtin series by name; 'fuss' and 'geometric' take a parameter."""
    if name == "catalan":
        return catalan_series(prec)
    if name == "ternary":
        return fuss_series(3, prec)
    if name == "fuss":
        if param is None:
            raise CatalogError("fuss needs a parameter, e.g. fuss:3")
        return fuss_series(_param(param, int), prec)
    if name == "geometric":
        return Series.geometric(prec, _param(param, Fraction) if param else 1)
    if name == "one":
        return Series.one(prec)
    if name == "t":
        return Series.t(prec)
    raise CatalogError(f"unknown series name: {name!r}")


def named_riordan(name: str, prec: int, param: str | None = None) -> RiordanPair:
    """Builtin Riordan pairs.

    pascal           (1/(1-t), t/(1-t))
    identity         (1, t)
    catalan_bell     (C, tC)
    fuss_bell:m      (F_m, t F_m)
    appell:SERIES    (g, t)
    lagrange:SERIES  (1, t*SERIES) with SERIES a unit
    """
    if name == "pascal":
        geo = Series.geometric(prec)
        return RiordanPair(geo, geo.shift_up().truncate(prec))
    if name == "identity":
        return RiordanPair.identity(prec)
    if name == "catalan_bell":
        c = catalan_series(prec)
        return RiordanPair(c, c.shift_up().truncate(prec))
    if name == "fuss_bell":
        f = fuss_series(_param(param, int) if param else 3, prec)
        return RiordanPair(f, f.shift_up().truncate(prec))
    if name in ("appell", "lagrange"):
        # the series spec may carry its own parameter, e.g. appell:fuss:3
        series_name, _, series_param = (param or "geometric").partition(":")
        s = named_series(series_name, prec, series_param or None)
        if name == "appell":
            return RiordanPair(s, Series.t(prec))
        return RiordanPair(Series.one(prec), s.shift_up().truncate(prec))
    raise CatalogError(f"unknown Riordan pair name: {name!r}")


def catalog_names() -> dict[str, list[str]]:
    """Stable sorted listing of every registry name."""
    return {
        "pairs": sorted(_PAIR_NAMES),
        "series": sorted(_SERIES_NAMES),
        "weights": sorted(_WEIGHT_NAMES),
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


def corpus(prec: int = 48, seed: int = 20240826) -> dict[str, RiordanPair]:
    """Ten fixed Riordan pairs exercising every named subgroup shape."""
    rng = random.Random(seed)
    geo = Series.geometric(prec)
    pairs = {
        "pascal": named_riordan("pascal", prec),
        "identity": named_riordan("identity", prec),
        "catalan_bell": named_riordan("catalan_bell", prec),
        "fuss_bell3": named_riordan("fuss_bell", prec, "3"),
        "appell_geometric": named_riordan("appell", prec, "geometric"),
        "lagrange_geometric": named_riordan("lagrange", prec, "geometric"),
        # derivative pair (f', f) for f = t/(1-t): f' = 1/(1-t)^2
        "derivative_geometric": RiordanPair(
            (geo * geo).truncate(prec), geo.shift_up().truncate(prec)
        ),
        # checkerboard pair (1/(1-t^2), t/(1-t^2))
        "checkerboard": RiordanPair(
            Series([1 if i % 2 == 0 else 0 for i in range(prec + 1)]),
            Series([0 if i % 2 == 0 else 1 for i in range(prec + 1)]),
        ),
        "random_a": random_pair(rng, prec),
        "random_b": random_pair(rng, prec),
    }
    return pairs
