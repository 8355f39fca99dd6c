"""Engine for comparing two independently computed entry generators.

Every numbered identity of the library is phrased as two closures
(n, k) -> Fraction whose values must agree exactly over a finite index
range.  The engine walks the range in lexicographic (n, k) order, stops
at the first mismatch, and turns generator exceptions into an
"inconclusive" report rather than a silent pass.  There is no tolerance
parameter: over the rationals equality is equality.

The builtin suite is a table of identities: each row names an identity,
gives its two described entry routes, the range n_max and the k-policy
with its report label, and one helper runs every row through verify.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

from . import catalog
from .catalog import (
    catalan_power_coeff,
    fuss_power_coeff,
    laguerre_entry,
    remainder_entry,
    rook_entry,
)
from .quasi import factorization_check
from .series import Series
from .weighted import (
    C_transform,
    WeightSeq,
    WeightTri,
    c_transform,
    horiz_recursion_C,
    vert_recursion_C,
)

KPolicy = Callable[[int], Iterable[int]]


def k_full(n: int) -> range:
    return range(0, n + 1)


def k_positive(n: int) -> range:
    return range(1, n + 1)


def k_zero_only(n: int) -> range:
    return range(0, 1)


@dataclass(frozen=True)
class EntryGenerator:
    """A described closure over some module's entry computation."""

    description: str
    eval: Callable[[int, int], Fraction]


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
    k_policy: KPolicy = k_full,
    k_policy_name: str = "0 <= k <= n",
) -> VerificationReport:
    """Exact comparison over 0 <= n <= n_max, k per policy."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    start = time.perf_counter()

    def report(status: str, counterexample=None, detail: str = ""):
        seconds = time.perf_counter() - start
        return VerificationReport(
            name, n_max, k_policy_name, status, counterexample, detail, seconds
        )

    for n in range(n_max + 1):
        for k in k_policy(n):
            try:
                left = lhs.eval(n, k)
                right = rhs.eval(n, k)
            except Exception as exc:  # noqa: BLE001 - reported, never swallowed
                return report("inconclusive", detail=f"at ({n},{k}): {exc!r}")
            if left != right:
                ce = Counterexample(n, k, str(left), str(right))
                return report("counterexample", ce)
    return report("verified")


def exit_code(reports: list[VerificationReport]) -> int:
    """CI contract: 0 all verified, 1 any counterexample, 2 inconclusive."""
    if any(r.status == "counterexample" for r in reports):
        return 1
    if any(r.status == "inconclusive" for r in reports):
        return 2
    return 0


# -- builtin identity suite ---------------------------------------------------
#
# Each identity is one row (name, lhs, rhs, n_max, (k_policy, label)), where
# lhs and rhs are (description, eval) pairs: two independent routes to the
# same entries.  The labels are part of the report format.

_FULL = (k_full, "0 <= k <= n")
_POS = (k_positive, "1 <= k <= n")
_POS_N1 = (k_positive, "1 <= k <= n, n >= 1")
_ZERO = (k_zero_only, "k = 0")
_EXPECTED = ("expected", lambda n, k: Fraction(1))


def _fuss_rows(m: int, n_max: int = 25) -> list[tuple]:
    """[t^(n-k)] F_m^(k+1) by closed form, by convolution and by series."""
    fm = catalog.fuss_series(m, n_max)
    powers = [Series.one(n_max)]
    for _ in range(n_max + 1):
        powers.append(powers[-1] * fm)
    closed = (
        "[t^(n-k)] F_m^(k+1), closed form",
        lambda n, k: fuss_power_coeff(m, n - k, k + 1),
    )
    convolution = (
        "convolution of F_m coefficients against [t^.] F_m^k",
        lambda n, k: sum(
            fuss_power_coeff(m, j, 1) * fuss_power_coeff(m, n - j - k, k)
            for j in range(n - k + 1)
        ),
    )
    series = (
        "[t^(n-k)] of the multiplied-out series F_m^(k+1)",
        lambda n, k: powers[k + 1][n - k],
    )
    return [
        (f"fuss-convolution-m{m}", closed, convolution, n_max, _POS),
        (f"fuss-series-coefficients-m{m}", closed, series, n_max, _FULL),
    ]


def _fuss_functional_row(m: int, prec: int = 40) -> tuple:
    """F_m = 1 + t F_m^m, coefficient by coefficient."""
    fm = catalog.fuss_series(m, prec)
    power = Series.one(prec)
    for _ in range(m):
        power = power * fm
    rhs = Series.one(prec) + power.shift_up().truncate(prec)
    return (
        f"fuss-functional-equation-m{m}",
        ("coefficients of F_m", lambda n, k: fm[n]),
        ("coefficients of 1 + t F_m^m", lambda n, k: rhs[n]),
        prec,
        _ZERO,
    )


def _weighted_rows(n_max: int = 20) -> Iterator[tuple]:
    """Recursion-vs-transform equivalence for each weighted recursion."""
    prec = n_max + 2
    bases = {
        "pascal": catalog.named_riordan("pascal", prec),
        "catalan_bell": catalog.named_riordan("catalan_bell", prec),
        "fuss_bell3": catalog.named_riordan("fuss_bell", prec, "3"),
    }
    weights = {
        "factorial": (WeightSeq.factorial(n_max), c_transform),
        "power2": (WeightSeq.power(2, n_max), c_transform),
        "laguerre": (WeightTri.laguerre(n_max), C_transform),
    }
    rows_from_1 = (lambda n: range(n + 1 if n >= 1 else 0), "0 <= k <= n, n >= 1")
    for bname, ra in bases.items():
        for wname, (w, transform) in weights.items():
            x = transform(ra, w, n_max + 1)
            direct = (f"{x.kind}-transform entries", x.entries.entry)
            tag = f"{bname}-{wname}"
            horiz_route = ("weighted A/Z recursion", partial(horiz_recursion_C, x))
            vert_route = ("weighted vertical recursion", partial(vert_recursion_C, x))
            yield f"{x.kind}-horizontal-{tag}", direct, horiz_route, n_max, rows_from_1
            yield f"{x.kind}-vertical-{tag}", direct, vert_route, n_max, _POS


def _rows() -> Iterator[tuple]:
    """The builtin identities in report order, each built just before use."""
    binomial = ("binomial(n,k)", lambda n, k: Fraction(catalog.binomial(n, k)))
    binomial_vertical = (
        "sum_{j=1}^{n-k+1} binomial(n-j,k-1)",
        lambda n, k: Fraction(
            sum(catalog.binomial(n - j, k - 1) for j in range(1, n - k + 2))
        ),
    )
    yield "pascal-vertical-recursion", binomial, binomial_vertical, 50, _POS
    for m in range(1, 6):
        yield from _fuss_rows(m)
    catalan = ("C(n-k, k+1)", lambda n, k: catalan_power_coeff(n - k, k + 1))
    catalan_convolution = (
        "sum_j C(j,1) C(n-j-k, k)",
        lambda n, k: sum(
            catalan_power_coeff(j, 1) * catalan_power_coeff(n - j - k, k)
            for j in range(n - k + 1)
        ),
    )
    yield "catalan-convolution", catalan, catalan_convolution, 40, _FULL
    for m in range(1, 6):
        yield _fuss_functional_row(m)
    for name, ra in catalog.corpus(prec=32).items():
        holds = Fraction(int(factorization_check(ra, 24)))
        lhs = ("factorization holds", lambda n, k, holds=holds: holds)
        yield f"quasi-factorization-{name}", lhs, _EXPECTED, 0, _ZERO
    yield from _closed_form_rows()
    yield from _weighted_rows()


def _closed_form_rows() -> list[tuple]:
    """The rook and Laguerre recursions against their closed forms."""
    rook = ("rook entry r_{n,k}", lambda n, k: rook_entry(n, k))
    rook_horizontal = (
        "n r_{n-1,k} + (n/k) r_{n-1,k-1}",
        lambda n, k: n * (rook_entry(n - 1, k) if k <= n - 1 else Fraction(0))
        + Fraction(n, k) * rook_entry(n - 1, k - 1),
    )
    rook0 = ("r_{n,0}", lambda n, k: rook_entry(n, 0))
    rook0_recursion = (
        "n r_{n-1,0}",
        lambda n, k: Fraction(n) * rook_entry(n - 1, 0) if n >= 1 else Fraction(1),
    )
    rook_vertical = (
        "sum_j ((n)_j / k) r_{n-j,k-1}",
        lambda n, k: sum(
            Fraction(catalog.falling(n, j), k) * rook_entry(n - j, k - 1)
            for j in range(1, n - k + 2)
        ),
    )
    lag = ("Laguerre entry L_{n,k}", lambda n, k: laguerre_entry(n, k))
    lag_horizontal = (
        "L_{n-1,k-1} - (1/(n-k)) L_{n-1,k}",
        lambda n, k: laguerre_entry(n - 1, k - 1)
        - Fraction(1, n - k) * laguerre_entry(n - 1, k),
    )
    lag0 = ("L_{n,0}", lambda n, k: laguerre_entry(n, 0))
    lag0_recursion = (
        "-(1/n) L_{n-1,0}",
        lambda n, k: -Fraction(1, n) * laguerre_entry(n - 1, 0)
        if n >= 1
        else Fraction(1),
    )
    lag_vertical = (
        "(1/(n-k)!) sum_j (-1)^(j-1) (n-k-j+1)! L_{n-j,k-1}",
        lambda n, k: sum(
            Fraction((-1) ** (j - 1) * math.factorial(n - k - j + 1))
            * laguerre_entry(n - j, k - 1)
            for j in range(1, n - k + 2)
        )
        / math.factorial(n - k),
    )
    expansion = (
        "rook expansion checks (coefficientwise, telescoped)",
        lambda n, k: Fraction(int(catalog.rook_poly_expansion_check(n))),
    )
    rook_next = ("r_{n+1,k}", lambda n, k: rook_entry(n + 1, k))
    rook_plus_remainder = (
        "r_{n,k} + E_{n,k}",
        lambda n, k: (rook_entry(n, k) if k <= n else Fraction(0))
        + remainder_entry(n, k),
    )
    rook_reversed = ("r_{n,n-k}", lambda n, k: rook_entry(n, n - k))
    lag_scaled = (
        "(-1)^(n-k) n! L_{n,k}",
        lambda n, k: Fraction((-1) ** (n - k))
        * math.factorial(n)
        * laguerre_entry(n, k),
    )
    strict = (lambda n: range(1, n), "1 <= k <= n-1")
    past_diag = (lambda n: range(0, n + 2), "0 <= k <= n+1")
    return [
        ("rook-horizontal", rook, rook_horizontal, 30, _POS_N1),
        ("rook-column0", rook0, rook0_recursion, 30, _ZERO),
        ("rook-vertical", rook, rook_vertical, 30, _POS_N1),
        ("laguerre-horizontal", lag, lag_horizontal, 30, strict),
        ("laguerre-column0", lag0, lag0_recursion, 30, _ZERO),
        ("laguerre-vertical", lag, lag_vertical, 30, _POS_N1),
        ("rook-expansion", expansion, _EXPECTED, 12, _ZERO),
        ("rook-remainder-consistency", rook_next, rook_plus_remainder, 12, past_diag),
        ("rook-laguerre-duality-classical", rook_reversed, lag_scaled, 12, _FULL),
    ]


def _check(name, lhs, rhs, n_max: int, policy) -> VerificationReport:
    return verify(name, EntryGenerator(*lhs), EntryGenerator(*rhs), n_max, *policy)


def builtin_suite() -> list[VerificationReport]:
    """One report per numbered identity, at the documented default ranges."""
    return [_check(*row) for row in _rows()]
