"""Engine for comparing two independently computed entry generators.

Every numbered identity of the library is phrased as two closures
(n, k) -> Fraction whose values must agree exactly over a finite index
range.  The engine walks the range in lexicographic (n, k) order, stops
at the first mismatch, and turns generator exceptions into an
"inconclusive" report rather than a silent pass.  There is no tolerance
parameter: over the rationals equality is equality.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from . import catalog
from .catalog import (
    catalan_power_coeff,
    fuss_power_coeff,
    laguerre_entry,
    remainder_entry,
    rook_entry,
)
from .group import RiordanPair
from .quasi import factorization_check
from .series import Series
from .weighted import (
    C_transform,
    WeightSeq,
    WeightTri,
    c_transform,
    horiz_recursion_C,
    horiz_recursion_c,
    vert_recursion_C,
    vert_recursion_c,
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
            d["counterexample"] = {
                "n": self.counterexample.n,
                "k": self.counterexample.k,
                "lhs": self.counterexample.lhs,
                "rhs": self.counterexample.rhs,
            }
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
    for n in range(n_max + 1):
        for k in k_policy(n):
            try:
                left = lhs.eval(n, k)
                right = rhs.eval(n, k)
            except Exception as exc:  # noqa: BLE001 - reported, never swallowed
                return VerificationReport(
                    name,
                    n_max,
                    k_policy_name,
                    "inconclusive",
                    detail=f"at ({n},{k}): {exc!r}",
                    seconds=time.perf_counter() - start,
                )
            if left != right:
                return VerificationReport(
                    name,
                    n_max,
                    k_policy_name,
                    "counterexample",
                    Counterexample(n, k, str(left), str(right)),
                    seconds=time.perf_counter() - start,
                )
    return VerificationReport(
        name, n_max, k_policy_name, "verified", seconds=time.perf_counter() - start
    )


def exit_code(reports: list[VerificationReport]) -> int:
    """CI contract: 0 all verified, 1 any counterexample, 2 inconclusive."""
    if any(r.status == "counterexample" for r in reports):
        return 1
    if any(r.status == "inconclusive" for r in reports):
        return 2
    return 0


# -- builtin identity suite ---------------------------------------------------

def _tri_gen(tri, description: str) -> EntryGenerator:
    return EntryGenerator(description, lambda n, k: tri.entry(n, k))


def _pascal_vertical_report(n_max: int = 50) -> VerificationReport:
    lhs = EntryGenerator(
        "binomial(n,k)", lambda n, k: Fraction(catalog.binomial(n, k))
    )
    rhs = EntryGenerator(
        "sum_{j=1}^{n-k+1} binomial(n-j,k-1)",
        lambda n, k: Fraction(
            sum(catalog.binomial(n - j, k - 1) for j in range(1, n - k + 2))
        ),
    )
    return verify(
        "pascal-vertical-recursion",
        lhs,
        rhs,
        n_max,
        k_positive,
        "1 <= k <= n",
    )


def _fuss_convolution_report(m: int, n_max: int = 25) -> VerificationReport:
    lhs = EntryGenerator(
        "[t^(n-k)] F_m^(k+1), closed form",
        lambda n, k: fuss_power_coeff(m, n - k, k + 1),
    )
    rhs = EntryGenerator(
        "convolution of F_m coefficients against [t^.] F_m^k",
        lambda n, k: sum(
            (
                fuss_power_coeff(m, j, 1) * fuss_power_coeff(m, n - j - k, k)
                for j in range(n - k + 1)
            ),
            Fraction(0),
        ),
    )
    return verify(
        f"fuss-convolution-m{m}", lhs, rhs, n_max, k_positive, "1 <= k <= n"
    )


def _fuss_triple_report(m: int, n_max: int = 25) -> VerificationReport:
    """Third route: the same coefficients read from the series F_m^(k+1)."""
    fm = catalog.fuss_series(m, n_max)
    powers = {0: Series.one(n_max)}
    for k in range(1, n_max + 2):
        powers[k] = powers[k - 1] * fm
    lhs = EntryGenerator(
        "[t^(n-k)] F_m^(k+1), closed form",
        lambda n, k: fuss_power_coeff(m, n - k, k + 1),
    )
    rhs = EntryGenerator(
        "[t^(n-k)] of the multiplied-out series F_m^(k+1)",
        lambda n, k: powers[k + 1][n - k],
    )
    return verify(
        f"fuss-series-coefficients-m{m}", lhs, rhs, n_max, k_full, "0 <= k <= n"
    )


def _catalan_convolution_report(n_max: int = 40) -> VerificationReport:
    lhs = EntryGenerator(
        "C(n-k, k+1)", lambda n, k: catalan_power_coeff(n - k, k + 1)
    )
    rhs = EntryGenerator(
        "sum_j C(j,1) C(n-j-k, k)",
        lambda n, k: sum(
            (
                catalan_power_coeff(j, 1) * catalan_power_coeff(n - j - k, k)
                for j in range(n - k + 1)
            ),
            Fraction(0),
        ),
    )
    return verify("catalan-convolution", lhs, rhs, n_max, k_full, "0 <= k <= n")


def _fuss_functional_report(m: int, prec: int = 40) -> VerificationReport:
    fm = catalog.fuss_series(m, prec)
    power = Series.one(prec)
    for _ in range(m):
        power = power * fm
    rhs_series = Series.one(prec) + power.shift_up().truncate(prec)
    lhs = EntryGenerator("coefficients of F_m", lambda n, k: fm[n])
    rhs = EntryGenerator("coefficients of 1 + t F_m^m", lambda n, k: rhs_series[n])
    return verify(
        f"fuss-functional-equation-m{m}", lhs, rhs, prec, k_zero_only, "k = 0"
    )


def _factorization_report(name: str, ra: RiordanPair, n: int = 24) -> VerificationReport:
    ok = factorization_check(ra, n)
    lhs = EntryGenerator("factorization holds", lambda _n, _k: Fraction(int(ok)))
    rhs = EntryGenerator("expected", lambda _n, _k: Fraction(1))
    return verify(f"quasi-factorization-{name}", lhs, rhs, 0, k_zero_only, "k = 0")


def _rook_horizontal_report(n_max: int = 30) -> VerificationReport:
    lhs = EntryGenerator("rook entry r_{n,k}", lambda n, k: rook_entry(n, k))
    rhs = EntryGenerator(
        "n r_{n-1,k} + (n/k) r_{n-1,k-1}",
        lambda n, k: n * (rook_entry(n - 1, k) if k <= n - 1 else Fraction(0))
        + Fraction(n, k) * rook_entry(n - 1, k - 1),
    )
    return verify("rook-horizontal", lhs, rhs, n_max, k_positive, "1 <= k <= n, n >= 1")


def _k_pos_strict(n: int) -> range:
    return range(1, n) if n >= 2 else range(0)


def _rook_column0_report(n_max: int = 30) -> VerificationReport:
    lhs = EntryGenerator("r_{n,0}", lambda n, k: rook_entry(n, 0))
    rhs = EntryGenerator(
        "n r_{n-1,0}",
        lambda n, k: Fraction(n) * rook_entry(n - 1, 0) if n >= 1 else Fraction(1),
    )
    return verify("rook-column0", lhs, rhs, n_max, k_zero_only, "k = 0")


def _rook_vertical_report(n_max: int = 30) -> VerificationReport:
    lhs = EntryGenerator("rook entry r_{n,k}", lambda n, k: rook_entry(n, k))
    rhs = EntryGenerator(
        "sum_j ((n)_j / k) r_{n-j,k-1}",
        lambda n, k: sum(
            (
                Fraction(catalog.falling(n, j), k) * rook_entry(n - j, k - 1)
                for j in range(1, n - k + 2)
            ),
            Fraction(0),
        ),
    )
    return verify("rook-vertical", lhs, rhs, n_max, k_positive, "1 <= k <= n, n >= 1")


def _laguerre_horizontal_report(n_max: int = 30) -> VerificationReport:
    lhs = EntryGenerator("Laguerre entry L_{n,k}", lambda n, k: laguerre_entry(n, k))
    rhs = EntryGenerator(
        "L_{n-1,k-1} - (1/(n-k)) L_{n-1,k}",
        lambda n, k: laguerre_entry(n - 1, k - 1)
        - Fraction(1, n - k) * laguerre_entry(n - 1, k),
    )
    return verify(
        "laguerre-horizontal", lhs, rhs, n_max, _k_pos_strict, "1 <= k <= n-1"
    )


def _laguerre_column0_report(n_max: int = 30) -> VerificationReport:
    lhs = EntryGenerator("L_{n,0}", lambda n, k: laguerre_entry(n, 0))
    rhs = EntryGenerator(
        "-(1/n) L_{n-1,0}",
        lambda n, k: -Fraction(1, n) * laguerre_entry(n - 1, 0)
        if n >= 1
        else Fraction(1),
    )
    return verify("laguerre-column0", lhs, rhs, n_max, k_zero_only, "k = 0")


def _laguerre_vertical_report(n_max: int = 30) -> VerificationReport:
    lhs = EntryGenerator("Laguerre entry L_{n,k}", lambda n, k: laguerre_entry(n, k))

    def rhs_eval(n: int, k: int) -> Fraction:
        s = sum(
            (
                Fraction((-1) ** (j - 1) * math.factorial(n - k - j + 1))
                * laguerre_entry(n - j, k - 1)
                for j in range(1, n - k + 2)
            ),
            Fraction(0),
        )
        return s / math.factorial(n - k)

    rhs = EntryGenerator(
        "(1/(n-k)!) sum_j (-1)^(j-1) (n-k-j+1)! L_{n-j,k-1}", rhs_eval
    )
    return verify("laguerre-vertical", lhs, rhs, n_max, k_positive, "1 <= k <= n, n >= 1")


def _rook_expansion_report(n_max: int = 12) -> VerificationReport:
    lhs = EntryGenerator(
        "rook expansion checks (coefficientwise, matrix form, telescoped)",
        lambda n, k: Fraction(int(catalog.rook_poly_expansion_check(n))),
    )
    rhs = EntryGenerator("expected", lambda n, k: Fraction(1))
    return verify("rook-expansion", lhs, rhs, n_max, k_zero_only, "k = 0")


def _rook_remainder_consistency_report(n_max: int = 12) -> VerificationReport:
    lhs = EntryGenerator("r_{n+1,k}", lambda n, k: rook_entry(n + 1, k))
    rhs = EntryGenerator(
        "r_{n,k} + E_{n,k}",
        lambda n, k: (rook_entry(n, k) if k <= n else Fraction(0))
        + remainder_entry(n, k),
    )
    return verify(
        "rook-remainder-consistency",
        lhs,
        rhs,
        n_max,
        lambda n: range(0, n + 2),
        "0 <= k <= n+1",
    )


def _rook_laguerre_classical_report(n_max: int = 12) -> VerificationReport:
    lhs = EntryGenerator("r_{n,n-k}", lambda n, k: rook_entry(n, n - k))
    rhs = EntryGenerator(
        "(-1)^(n-k) n! L_{n,k}",
        lambda n, k: Fraction((-1) ** (n - k)) * math.factorial(n)
        * laguerre_entry(n, k),
    )
    return verify("rook-laguerre-duality-classical", lhs, rhs, n_max)


def _weighted_equivalence_reports(n_max: int = 20) -> list[VerificationReport]:
    """Recursion-vs-transform equivalence for each weighted recursion."""
    prec = n_max + 2
    bases = {
        "pascal": catalog.named_riordan("pascal", prec),
        "catalan_bell": catalog.named_riordan("catalan_bell", prec),
        "fuss_bell3": catalog.named_riordan("fuss_bell", prec, "3"),
    }
    seq_weights = {
        "factorial": WeightSeq.factorial(n_max),
        "power2": WeightSeq.power(2, n_max),
    }
    reports = []
    for bname, ra in bases.items():
        for wname, w in seq_weights.items():
            x = c_transform(ra, w, n_max + 1)
            direct = _tri_gen(x.entries, "c-transform entries")
            reports.append(
                verify(
                    f"c-horizontal-{bname}-{wname}",
                    direct,
                    EntryGenerator(
                        "weighted A/Z recursion",
                        lambda n, k, x=x: horiz_recursion_c(x, n, k),
                    ),
                    n_max,
                    _n_from_1,
                    "0 <= k <= n, n >= 1",
                )
            )
            reports.append(
                verify(
                    f"c-vertical-{bname}-{wname}",
                    direct,
                    EntryGenerator(
                        "weighted vertical recursion",
                        lambda n, k, x=x: vert_recursion_c(x, n, k),
                    ),
                    n_max,
                    k_positive,
                    "1 <= k <= n",
                )
            )
        lag = WeightTri.laguerre(n_max)
        x = C_transform(ra, lag, n_max + 1)
        direct = _tri_gen(x.entries, "C-transform entries")
        reports.append(
            verify(
                f"C-horizontal-{bname}-laguerre",
                direct,
                EntryGenerator(
                    "weighted A/Z recursion",
                    lambda n, k, x=x: horiz_recursion_C(x, n, k),
                ),
                n_max,
                _n_from_1,
                "0 <= k <= n, n >= 1",
            )
        )
        reports.append(
            verify(
                f"C-vertical-{bname}-laguerre",
                direct,
                EntryGenerator(
                    "weighted vertical recursion",
                    lambda n, k, x=x: vert_recursion_C(x, n, k),
                ),
                n_max,
                k_positive,
                "1 <= k <= n",
            )
        )
    return reports


def _n_from_1(n: int) -> range:
    return range(0, n + 1) if n >= 1 else range(0)


def builtin_suite() -> list[VerificationReport]:
    """One report per numbered identity, at the documented default ranges."""
    reports: list[VerificationReport] = []
    reports.append(_pascal_vertical_report())
    for m in range(1, 6):
        reports.append(_fuss_convolution_report(m))
        reports.append(_fuss_triple_report(m))
    reports.append(_catalan_convolution_report())
    for m in range(1, 6):
        reports.append(_fuss_functional_report(m))
    for name, ra in catalog.corpus(prec=32).items():
        reports.append(_factorization_report(name, ra, n=24))
    reports.append(_rook_horizontal_report())
    reports.append(_rook_column0_report())
    reports.append(_rook_vertical_report())
    reports.append(_laguerre_horizontal_report())
    reports.append(_laguerre_column0_report())
    reports.append(_laguerre_vertical_report())
    reports.append(_rook_expansion_report())
    reports.append(_rook_remainder_consistency_report())
    reports.append(_rook_laguerre_classical_report())
    reports.extend(_weighted_equivalence_reports())
    return reports
