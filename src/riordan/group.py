"""The Riordan group over exact rationals.

A pair (g, f) with g(0) = 1, f(0) = 0, f'(0) != 0 generates an infinite
lower-triangular array whose column k has generating function g*f^k.
This module provides three independent ways to compute entries (closed
form, vertical recursion, fully nested sum), the group law and inverse,
the fundamental-theorem action, A/Z-sequence extraction and
reconstruction, subgroup predicates, and the Appell/Lagrange semidirect
split.  The vertical recursion runs on integer numerators over one
denominator per column, and the A/Z step on cleared rows, A and Z; both
still return reduced Fractions.  The closed form runs on the series
kernel instead, as one shifted integer chain: column k from row k on is
g*(f/t)^k, n - k coefficients over its own denominator, one Kronecker
product of column k-1 with f/t, and each column becomes one Series.
Sharing no code, the closed form and the vertical recursion are each
other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .matrices import Triangle, _cleared, _dot
from .series import PrecisionError, Series, SeriesError, _compose, _lagrange
from .series import _kmul, _reduce, _to_ints


class RiordanError(SeriesError):
    """Invalid Riordan pair or out-of-range entry request."""


@dataclass(frozen=True)
class _Pair:
    """Validation and value semantics shared by the Riordan and quasi pairs.

    Both are built from (g, f) with g(0) = 1 and f of order exactly 1;
    equality holds only between pairs of the same class.
    """

    g: Series
    f: Series

    def __post_init__(self):
        if self.g.coeffs[0] != 1:
            # The Z-sequence formula assumes the g(0) = 1 normalization;
            # rescaling silently would change the array, so reject.
            raise RiordanError("g(0) must be 1")
        if self.f.prec < 1:
            raise PrecisionError("f needs precision >= 1 to have order exactly 1")
        if self.f.order() != 1:
            raise RiordanError("f must have order exactly 1")

    @property
    def prec(self) -> int:
        return min(self.g.prec, self.f.prec)

    def agrees_with(self, other: "_Pair") -> bool:
        return self.g.agrees_with(other.g) and self.f.agrees_with(other.f)

    @classmethod
    def identity(cls, prec: int):
        return cls(Series.one(prec), Series.t(prec))

    def _check_order(self, n: int) -> None:
        """An n x n section needs n >= 1 and coefficients up to t^(n-1)."""
        if n < 1:
            raise RiordanError("order must be >= 1")
        if n - 1 > self.prec:
            raise RiordanError(f"order {n} needs precision {n - 1}, have {self.prec}")


@dataclass(frozen=True)
class RiordanPair(_Pair):
    """A proper, normalized Riordan pair (g, f)."""

    # -- entries, three independent ways --------------------------------------

    def _check_range(self, n: int, k: int) -> None:
        if not 0 <= k <= n:
            raise RiordanError(f"entry ({n},{k}) outside the triangle")
        if n > self.prec:
            raise RiordanError(f"entry row {n} beyond precision {self.prec}")

    def entry_closed(self, n: int, k: int) -> Fraction:
        """d_{n,k} = [t^n] g*f^k, read from triangle_closed."""
        self._check_range(n, k)
        return self.triangle_closed(n + 1).rows[n][k]

    def entry_vertical(self, n: int, k: int) -> Fraction:
        """d_{n,k} from column k-1 through the coefficients of f.

        Read from triangle, which fills d_{n,k} = sum_{j=1}^{n-k+1} f_j
        d_{n-j,k-1} column by column from column 0 = g.
        """
        self._check_range(n, k)
        return self.triangle(n + 1).rows[n][k]

    def entry_nested(self, n: int, k: int) -> Fraction:
        """The k-fold nested sum over f-indices, by direct recursion.

        Exponential in k; intended as a test oracle at small n only.
        """
        self._check_range(n, k)
        if k == 0:
            return self.g[n]
        return sum(
            (self.f[i] * self.entry_nested(n - i, k - 1) for i in range(1, n - k + 2)),
            Fraction(0),
        )

    def triangle(self, n: int) -> Triangle:
        """The n x n leading principal submatrix, via the vertical recursion.

        Each entry is one reduced Fraction of the integer columns of
        ``_vertical``, read row by row.
        """
        cols, dens = self._vertical(n)
        return Triangle(
            [Fraction(cols[k][i - k], dens[k]) for k in range(i + 1)] for i in range(n)
        )

    def _vertical(self, n: int) -> tuple[list[list[int]], list[int]]:
        """The vertical recursion's integer columns and their denominators.

        g and f are held as integer numerators over one denominator each,
        dg and df.  Column k, its n - k entries from the diagonal down, is
        the schoolbook convolution of column k-1 with f/t, over dg * df^k.
        """
        self._check_order(n)
        g, dg = _cleared(self.g.coeffs[:n])
        f, df = _cleared(self.f.coeffs[:n])
        f1 = f[1:]
        cols = [g]
        for k in range(1, n):
            prev = cols[-1]
            cols.append(
                [sum(map(mul, f1, reversed(prev[:m]))) for m in range(1, n - k + 1)]
            )
        return cols, [dg * df**k for k in range(n)]

    def triangle_closed(self, n: int) -> Triangle:
        """Same submatrix built from the column generating functions g*f^k.

        Column k is zero above row k, and from row k on it is g*(f/t)^k,
        n - k coefficients long.  g and f/t are cleared once on the series
        kernel; column k is then one Kronecker product of column k-1 with
        f/t, truncated to n - k, over its own denominator with the content
        divided out.  Each column becomes one Series of reduced Fractions.
        """
        self._check_order(n)
        u, du = _to_ints(self.f.coeffs[1:n])
        col, den = _to_ints(self.g.coeffs[:n])
        cols = []
        for k in range(n):
            if k:
                col, den = _reduce(_kmul(col, u, n - k), den * du)
            cols.append(Series.from_coeffs([Fraction(c, den) for c in col], n - k - 1))
        return Triangle._from_columns([s.coeffs for s in cols])

    # -- group structure ------------------------------------------------------

    def __mul__(self, other: "RiordanPair") -> "RiordanPair":
        """(g1, f1)(g2, f2) = (g1 * g2(f1), f2(f1))."""
        g2, f2 = _compose(self.f, [other.g, other.f])
        return RiordanPair(self.g * g2, f2)

    def inverse(self) -> "RiordanPair":
        """(g, f)^-1 = (1 / g(fbar), fbar) = ((1/g)(fbar), t(fbar)).

        Both by ``_lagrange``: fbar at f.prec, 1/g(fbar) at min(g.prec, f.prec).
        """
        fbar, h = _lagrange(self.f, [Series.t(self.f.prec), self.g.reciprocal()])
        return RiordanPair(h, fbar)

    def apply(self, h: Series) -> Series:
        """The fundamental-theorem action: (g, f) h = g * h(f)."""
        return self.g * _compose(self.f, [h])[0]

    # -- A- and Z-sequences ---------------------------------------------------

    def extract_az(self) -> "AZSequences":
        """A(t) = t / fbar(t);  Z(t) = (1 - 1/g(fbar)) / fbar(t).

        Both by ``_lagrange``: A = (f/t)(fbar), since f(fbar) = t, and
        Z = K(fbar) with K = (1 - 1/g)/t.  A has precision f.prec - 1 and
        Z min(g.prec, f.prec) - 1.
        """
        k = (Series.one(self.g.prec) - self.g.reciprocal()).shift_down()
        a, z = _lagrange(self.f, [self.f.shift_down(), k.truncate(self.prec - 1)])
        return AZSequences(a, z)

    def semidirect_split(self) -> tuple["RiordanPair", "RiordanPair"]:
        """(g, f) = (g, t)(1, f): Appell factor times Lagrange factor."""
        p = self.prec
        return (
            RiordanPair(self.g, Series.t(p)),
            RiordanPair(Series.one(p), self.f),
        )

    def subgroups(self) -> set[str]:
        """Labels of the named subgroups this pair sits in.

        Decided by exact series comparison at the working precision, so a
        label means "holds up to prec", not a proof for the infinite array.
        The k-Bell subgroups f = t g^k are tried for k = 1..8.
        """
        labels: set[str] = set()
        p = self.prec
        t = Series.t(p)
        one = Series.one(p)
        if self.f.agrees_with(t):
            labels.add("appell")
        if self.g.agrees_with(one):
            labels.add("lagrange")
        gk = self.g
        for k in range(1, 9):
            if self.f.agrees_with(gk.shift_up()):
                labels.add(f"{k}-bell")
            gk = gk * self.g
        fprime = self.f.derivative()
        u_inv = self.f.shift_down().reciprocal()
        if self.g.agrees_with(fprime * u_inv):
            labels.add("hitting-time")
        if self.g.agrees_with(fprime):
            labels.add("derivative")
        if all(self.g.coeffs[i] == 0 for i in range(1, p + 1, 2)) and all(
            self.f.coeffs[i] == 0 for i in range(0, p + 1, 2)
        ):
            labels.add("checkerboard")
        return labels


@dataclass(frozen=True)
class AZSequences:
    """The horizontal-recursion weights of a Riordan array."""

    a: Series
    z: Series

    def __post_init__(self):
        if self.a.coeffs[0] == 0:
            raise RiordanError("not a proper A-sequence: a_0 = 0")


def _az_step(
    a: tuple[list[int], int],
    z: tuple[list[int], int],
    prev: tuple[list[int], int],
    k: int,
) -> Fraction:
    """Entry k of the row after prev: sum_j z_j prev_j, or sum_j a_j prev_{k-1+j}.

    A, Z and prev are integer numerators over one denominator each, as
    ``matrices._cleared`` gives them, with A and Z cleared over all their
    coefficients 0..prec.  The step is one integer dot product and one
    Fraction; a step that needs a coefficient past prec raises
    PrecisionError rather than reading it as zero.
    """
    (c, dc), (p, dp) = z if k == 0 else a, prev
    p = p[max(k - 1, 0) :]
    if len(p) > len(c):
        raise PrecisionError(
            f"the A/Z step needs coefficient {len(p) - 1}, have {len(c) - 1}"
        )
    return _dot((c, dc), (p, dp))


def reconstruct_from_az(az: AZSequences, n: int) -> Triangle:
    """Rebuild the triangle row by row from its A- and Z-sequences.

    d_{0,0} = 1; column 0 of each new row comes from the Z-sequence and
    columns k >= 1 from the A-sequence, each by ``_az_step`` on the
    cleared previous row.  Row n - 1 reads A and Z up to index n - 2;
    lower precision raises PrecisionError rather than reading the missing
    coefficients as zero.
    """
    if n < 1:
        raise RiordanError("order must be >= 1")
    a, z = _cleared(az.a.coeffs), _cleared(az.z.coeffs)
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for r in range(n - 1):
        prev = _cleared(rows[r])
        rows.append([_az_step(a, z, prev, k) for k in range(r + 2)])
    return Triangle(rows)
