"""Exact comparison of two independent entry routes, and the builtin suite.

``verify`` walks (n, k) in lexicographic order over a labelled k-range
(``K_POLICIES``) and reports "verified", the first counterexample, or
"inconclusive" where a route raises or gives a value with no exact ratio.
Values agree when their ``as_integer_ratio()`` are equal: no tolerance.
``builtin_suite`` checks one row per identity, its inputs built on first use
(a raise makes only its own rows inconclusive); then a compared entry costs
at most one Fraction normalisation per route and no Fraction arithmetic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, Iterator

from . import catalog
from .catalog import catalan_power_coeff, fuss_power_coeff, remainder_entry
from .matrices import _cleared
from .quasi import factorization_check
from .series import Series, _powers, _to_ints
from .weighted import (
    WeightSeq,
    WeightTri,
    c_transform,
    horiz_recursion_C,
    vert_recursion_C,
)

# The k-range walked in row n, by the label that reports name it.
K_POLICIES: dict[str, Callable[[int], range]] = {
    "0 <= k <= n": lambda n: range(n + 1),
    "0 <= k <= n, n >= 1": lambda n: range(n + 1 if n >= 1 else 0),
    "0 <= k <= n+1": lambda n: range(n + 2),
    "1 <= k <= n": lambda n: range(1, n + 1),
    "1 <= k <= n, n >= 1": lambda n: range(1, n + 1),
    "1 <= k <= n-1": lambda n: range(1, n),
    "k = 0": lambda n: range(1),
}


@dataclass(frozen=True)
class EntryGenerator:
    """A described closure over some module's entry computation."""

    description: str
    eval: Callable[[int, int], Fraction | int]


@dataclass(frozen=True)
class Counterexample:
    n: int
    k: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    name: str
    n_max: int
    k_policy: str
    status: str  # "verified" | "counterexample" | "inconclusive"
    counterexample: Counterexample | None = None
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "n_max": self.n_max,
            "k_policy": self.k_policy,
            "status": self.status,
            "seconds": round(self.seconds, 4),
        }
        if self.counterexample is not None:
            d["counterexample"] = asdict(self.counterexample)
        if self.detail:
            d["detail"] = self.detail
        return d


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def verify(
    name: str,
    lhs: EntryGenerator,
    rhs: EntryGenerator,
    n_max: int,
    k_policy: str = "0 <= k <= n",
) -> VerificationReport:
    """Exact comparison over 0 <= n <= n_max, k per the labelled policy."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k_range = K_POLICIES[k_policy]
    start = time.perf_counter()

    def report(status: str, counterexample=None, detail: str = ""):
        seconds = time.perf_counter() - start
        return VerificationReport(
            name, n_max, k_policy, status, counterexample, detail, seconds
        )

    for n in range(n_max + 1):
        for k in k_range(n):
            try:
                left = lhs.eval(n, k)
                right = rhs.eval(n, k)
            except Exception as exc:  # noqa: BLE001 - reported, never swallowed
                return report("inconclusive", detail=f"at ({n},{k}): {exc!r}")
            try:  # Fraction's own != goes through the numbers ABCs
                differ = left.as_integer_ratio() != right.as_integer_ratio()
            except Exception:  # noqa: BLE001 - None, a str, a NaN: nothing exact
                detail = _no_ratio((lhs, left), (rhs, right))
                return report("inconclusive", detail=f"at ({n},{k}): {detail}")
            if differ:
                ce = Counterexample(n, k, str(left), str(right))
                return report("counterexample", ce)
    return report("verified")


def _no_ratio(*sides: tuple[EntryGenerator, object]) -> str:
    """Name the first route whose value has no exact ratio, and its type."""
    for gen, value in sides:
        try:
            value.as_integer_ratio()
        except Exception:  # noqa: BLE001
            break
    return f"{gen.description!r} gave a {type(value).__name__}, not an exact ratio"


def exit_code(reports: list[VerificationReport]) -> int:
    """CI contract: 0 all verified, 1 any counterexample, 2 inconclusive."""
    if any(r.status == "counterexample" for r in reports):
        return 1
    if any(r.status == "inconclusive" for r in reports):
        return 2
    return 0


# -- builtin identity suite ---------------------------------------------------
#
# Each identity is one row (name, lhs, rhs, n_max, k_policy), where lhs and
# rhs are (description, eval) pairs: two independent routes to the same
# entries.  The k_policy labels are part of the report format.

_EXPECTED = ("expected", lambda n, k: 1)


def _vertical_relation(
    entry: Callable[[int, int], Fraction | int],
    weights: Callable[[int, int], tuple[Iterable[int], int]],
    n_max: int,
) -> Callable[[int, int], Fraction]:
    """The route sum_{j=1}^{n-k+1} w_j entry(n-j, k-1) / den, the paper's
    vertical relation, where weights(n, k) = ((w_1, w_2, ...), den).

    An int when den and the cleared column's denominator are both 1, one
    Fraction otherwise.  n_max must be the row's own: column k-1 is cleared
    once, through row n_max - 1.
    """

    @cache
    def column(k: int) -> tuple[list[int], int]:
        return _cleared([entry(i, k) for i in range(k, n_max)])

    def route(n: int, k: int) -> Fraction | int:
        (w, dw), (c, dc) = weights(n, k), column(k - 1)
        s, den = sum(map(mul, w, reversed(c[: n - k + 1]))), dw * dc
        return s if den == 1 else Fraction(s, den)

    return route


def _convolution(name: str, coeff: Callable[[int, int], Fraction], n_max: int) -> tuple:
    """The route sum_j [t^j]S [t^(n-j-k)]S^k, given coeff(n, k) = [t^n] S^k:
    the vertical relation of the Bell pair (S, tS), d_{n,k} = [t^(n-k)]
    S^(k+1), f_j = [t^(j-1)] S; row n, column -1 stands for [t^(n+1)] S^0."""
    s = cache(lambda: _cleared([coeff(i, 1) for i in range(n_max + 1)]))
    route = _vertical_relation(
        lambda n, k: coeff(n - k, k + 1), lambda n, k: s(), n_max
    )
    return f"sum_j [t^j] {name} [t^(n-j-k)] {name}^k", route


def _fuss_rows(m: int, n_max: int = 25) -> list[tuple]:
    """[t^(n-k)] F_m^(k+1) by closed form, by convolution and by series."""

    @cache
    def powers() -> list[tuple[list[int], int]]:  # F_m^0, ..., F_m^(n_max+1)
        fm = _to_ints(catalog.fuss_series(m, n_max).coeffs)
        return _powers(fm, n_max + 1, n_max + 1)

    def power_entry(n: int, k: int) -> Fraction | int:  # [t^(n-k)] F_m^(k+1)
        nums, den = powers()[k + 1]
        return nums[n - k] if den == 1 else Fraction(nums[n - k], den)

    coeff = cache(partial(fuss_power_coeff, m))  # one memo per suite run
    closed = ("[t^(n-k)] F_m^(k+1), closed form", lambda n, k: coeff(n - k, k + 1))
    convolution = _convolution("F_m", coeff, n_max)
    series = ("[t^(n-k)] of the multiplied-out series F_m^(k+1)", power_entry)
    return [
        (f"fuss-convolution-m{m}", closed, convolution, n_max, "1 <= k <= n"),
        (f"fuss-series-coefficients-m{m}", closed, series, n_max, "0 <= k <= n"),
    ]


def _fuss_functional_row(m: int, prec: int = 40) -> tuple:
    """F_m = 1 + t F_m^m, coefficient by coefficient."""

    @cache
    def sides() -> tuple[Series, list[Fraction]]:
        fm = catalog.fuss_series(m, prec)
        nums, den = _powers(_to_ints(fm.coeffs), m, prec)[m]  # F_m^m to t^(prec-1)
        return fm, [Fraction(1), *(Fraction(c, den) for c in nums)]

    return (
        f"fuss-functional-equation-m{m}",
        ("coefficients of F_m", lambda n, k: sides()[0][n]),
        ("coefficients of 1 + t F_m^m", lambda n, k: sides()[1][n]),
        prec,
        "k = 0",
    )


def _transform_rows(tag: str, base: Callable, w, n_max: int) -> Iterator[tuple]:
    """The horizontal and vertical rows of one base pair and one weight."""
    x = cache(lambda: c_transform(base(), w, n_max + 1))
    direct = (f"{w.kind}-transform entries", lambda n, k: x().entries.rows[n][k])
    horiz = ("weighted A/Z recursion", lambda n, k: horiz_recursion_C(x(), n, k))
    vert = ("weighted vertical recursion", lambda n, k: vert_recursion_C(x(), n, k))
    yield f"{w.kind}-horizontal-{tag}", direct, horiz, n_max, "0 <= k <= n, n >= 1"
    yield f"{w.kind}-vertical-{tag}", direct, vert, n_max, "1 <= k <= n"


def _weighted_rows(n_max: int = 20) -> Iterator[tuple]:
    """Recursion-vs-transform equivalence for each weighted recursion."""
    prec = n_max + 2
    bases = {
        "pascal": cache(partial(catalog.named_riordan, "pascal", prec)),
        "catalan_bell": cache(partial(catalog.named_riordan, "catalan_bell", prec)),
        "fuss_bell3": cache(partial(catalog.named_riordan, "fuss_bell", prec, "3")),
    }
    weights = {
        "factorial": WeightSeq.factorial(n_max),
        "power2": WeightSeq.power(2, n_max),
        "laguerre": WeightTri.laguerre(n_max),
    }
    for bname, base in bases.items():
        for wname, w in weights.items():
            yield from _transform_rows(f"{bname}-{wname}", base, w, n_max)


def _rows() -> Iterator[tuple]:
    """The builtin identities in report order, each built just before use."""
    # One memo per closed form per suite run: the routes re-read arguments.
    choose = cache(catalog.binomial)
    binomial = ("binomial(n,k)", choose)
    binomial_vertical = (
        "sum_{j=1}^{n-k+1} binomial(n-j,k-1)",
        _vertical_relation(choose, lambda n, k: (repeat(1), 1), 50),
    )
    yield "pascal-vertical-recursion", binomial, binomial_vertical, 50, "1 <= k <= n"
    for m in range(1, 6):
        yield from _fuss_rows(m)
    catalan_coeff = cache(catalan_power_coeff)
    catalan = ("C(n-k, k+1)", lambda n, k: catalan_coeff(n - k, k + 1))
    n_max = 40
    convolution = _convolution("C", catalan_coeff, n_max)
    yield "catalan-convolution", catalan, convolution, n_max, "0 <= k <= n"
    for m in range(1, 6):
        yield _fuss_functional_row(m)
    corpus = cache(partial(catalog.corpus, prec=32))
    for name in catalog.CORPUS_NAMES:
        holds = (
            "factorization holds",
            lambda n, k, p=name: int(factorization_check(corpus()[p], 24)),
        )
        yield f"quasi-factorization-{name}", holds, _EXPECTED, 0, "k = 0"
    yield from _closed_form_rows()
    yield from _weighted_rows()


def _closed_form_rows() -> list[tuple]:
    """The rook and Laguerre recursions against their closed forms."""
    # One memo per suite run: the routes read the same (n, k) many times.
    rook_entry = cache(catalog.rook_entry)
    laguerre_entry = cache(catalog.laguerre_entry)
    remainder = cache(remainder_entry)

    def scaled(p: int, q: int, x: Fraction) -> Fraction:  # (p/q) x
        a, b = x.as_integer_ratio()
        return Fraction(p * a, q * b)

    def rook_sum(n: int, k: int) -> Fraction:  # n a + (n/k) b
        a, da = rook_entry(n - 1, k).as_integer_ratio() if k <= n - 1 else (0, 1)
        b, db = rook_entry(n - 1, k - 1).as_integer_ratio()
        return Fraction(n * (k * a * db + b * da), k * da * db)

    def lag_difference(n: int, k: int) -> Fraction:  # a - b / (n-k)
        a, da = laguerre_entry(n - 1, k - 1).as_integer_ratio()
        b, db = laguerre_entry(n - 1, k).as_integer_ratio()
        return Fraction((n - k) * a * db - b * da, (n - k) * da * db)

    @cache
    def falling(n: int) -> list[int]:  # (n)_1, ..., (n)_n
        return list(accumulate(range(n, 0, -1), mul))

    @cache
    def lag_weights(m: int) -> tuple[list[int], int]:
        # (-1)^(j-1) (m-j+1)! over m!, j = 1..m+1, for m = n - k
        w = [(-1) ** i * math.factorial(m - i) for i in range(m + 1)]
        return w, math.factorial(m)

    rook = ("rook entry r_{n,k}", lambda n, k: rook_entry(n, k))
    rook_horizontal = ("n r_{n-1,k} + (n/k) r_{n-1,k-1}", rook_sum)
    rook0 = ("r_{n,0}", lambda n, k: rook_entry(n, 0))
    rook0_recursion = (
        "n r_{n-1,0}",
        lambda n, k: scaled(n, 1, rook_entry(n - 1, 0)) if n >= 1 else 1,
    )
    rook_vertical = (
        "sum_j ((n)_j / k) r_{n-j,k-1}",
        _vertical_relation(rook_entry, lambda n, k: (falling(n), k), 30),
    )
    lag = ("Laguerre entry L_{n,k}", lambda n, k: laguerre_entry(n, k))
    lag_horizontal = ("L_{n-1,k-1} - (1/(n-k)) L_{n-1,k}", lag_difference)
    lag0 = ("L_{n,0}", lambda n, k: laguerre_entry(n, 0))
    lag0_recursion = (
        "-(1/n) L_{n-1,0}",
        lambda n, k: scaled(-1, n, laguerre_entry(n - 1, 0)) if n >= 1 else 1,
    )
    lag_vertical = (
        "(1/(n-k)!) sum_j (-1)^(j-1) (n-k-j+1)! L_{n-j,k-1}",
        _vertical_relation(laguerre_entry, lambda n, k: lag_weights(n - k), 30),
    )

    small = 12  # n_max of the expansion, remainder and duality rows

    @cache
    def remainder_column(j: int) -> tuple[list[int], int]:
        # E_{i,j}, i = max(j-1, 0)..small: all that the expansion row reads
        return _cleared([remainder(i, j) for i in range(max(j - 1, 0), small + 1)])

    def expansion_holds(n: int, k: int) -> int:
        # r_{n+1,j} - [j = 0] = a / da against the first n + 2 - max(j, 1)
        # entries of column j of E, compared cross-multiplied
        for j in range(n + 2):
            a, da = rook_entry(n + 1, j).as_integer_ratio()
            e, de = remainder_column(j)
            if (a - (j == 0) * da) * de != sum(e[: n + 2 - max(j, 1)]) * da:
                return 0
        return 1

    def rook_remainder_sum(n: int, k: int) -> Fraction:
        a, da = rook_entry(n, k).as_integer_ratio() if k <= n else (0, 1)
        b, db = remainder(n, k).as_integer_ratio()
        return Fraction(a * db + b * da, da * db)

    expansion = (
        "fact (ii) at x^(n+1-j): r_{n+1,j} = [j = 0] + sum_{i>=j-1} E_{i,j}, all j",
        expansion_holds,
    )
    rook_next = ("r_{n+1,k}", lambda n, k: rook_entry(n + 1, k))
    rook_plus_remainder = ("r_{n,k} + E_{n,k}", rook_remainder_sum)
    rook_reversed = ("r_{n,n-k}", lambda n, k: rook_entry(n, n - k))
    lag_scaled = (
        "(-1)^(n-k) n! L_{n,k}",
        lambda n, k: scaled(
            (-1) ** (n - k) * math.factorial(n), 1, laguerre_entry(n, k)
        ),
    )
    positive, full, past = "1 <= k <= n, n >= 1", "0 <= k <= n", "0 <= k <= n+1"
    return [
        ("rook-horizontal", rook, rook_horizontal, 30, positive),
        ("rook-column0", rook0, rook0_recursion, 30, "k = 0"),
        ("rook-vertical", rook, rook_vertical, 30, positive),
        ("laguerre-horizontal", lag, lag_horizontal, 30, "1 <= k <= n-1"),
        ("laguerre-column0", lag0, lag0_recursion, 30, "k = 0"),
        ("laguerre-vertical", lag, lag_vertical, 30, positive),
        ("rook-expansion", expansion, _EXPECTED, small, "k = 0"),
        ("rook-remainder-consistency", rook_next, rook_plus_remainder, small, past),
        ("rook-laguerre-duality-classical", rook_reversed, lag_scaled, small, full),
    ]


def _check(name, lhs, rhs, n_max: int, k_policy: str) -> VerificationReport:
    return verify(name, EntryGenerator(*lhs), EntryGenerator(*rhs), n_max, k_policy)


def builtin_suite(
    on_report: Callable[[VerificationReport], object] = lambda report: None,
) -> list[VerificationReport]:
    """One report per numbered identity, at the documented default ranges,
    each passed to on_report as soon as its check ends."""
    reports = []
    for row in _rows():
        reports.append(_check(*row))
        on_report(reports[-1])
    return reports
