"""The Riordan group over exact rationals.

``RiordanPair`` (g, f), g(0) = 1 and f of order exactly 1, is the array whose
column k has generating function g f^k.  It gives each entry three ways
(closed form, vertical recursion d_{n,k} = sum_j f_j d_{n-j,k-1}, nested
sum), the group law and inverse, the action g h(f), the A- and Z-sequences
and the reconstruction from them, the named subgroups and the
Appell/Lagrange split.  The closed form and the vertical recursion share no
code: each is the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .matrices import Triangle, _cleared, _fields_state
from .series import PrecisionError, Series, SeriesError, _compose, _frac, _from_ints
from .series import _krecip, _lagrange_powers, _lagrange_read, _powers, _times, _to_ints


class RiordanError(SeriesError):
    """Invalid Riordan pair or out-of-range entry request."""


@dataclass(frozen=True)
class _Pair:
    """(g, f) with g(0) = 1 and f of order exactly 1, for the Riordan and
    quasi pairs; equality holds only between pairs of the same class."""

    g: Series
    f: Series

    __getstate__ = _fields_state

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
        """d_{n,k} = [t^n] g*f^k, from column k alone on the series kernel."""
        self._check_range(n, k)
        m = n - k + 1
        u, col = _to_ints(self.f.coeffs[1 : m + 1]), _to_ints(self.g.coeffs[:m])
        for _ in range(k):
            col = _times(col, u, m)
        nums, den = col
        return Fraction(nums[-1], den)

    def entry_vertical(self, n: int, k: int) -> Fraction:
        """d_{n,k} = sum_{j=1}^{n-k+1} f_j d_{n-j,k-1}, from column 0 = g."""
        self._check_range(n, k)
        cols, dens = self._vertical(n + 1)
        return Fraction(cols[k][n - k], dens[k])

    def entry_nested(self, n: int, k: int) -> Fraction:
        """The k-fold nested sum over f-indices, by direct recursion: exponential
        in k, a test oracle for small n only."""
        self._check_range(n, k)
        if k == 0:
            return self.g[n]
        return sum(
            (self.f[i] * self.entry_nested(n - i, k - 1) for i in range(1, n - k + 2)),
            Fraction(0),
        )

    def triangle(self, n: int) -> Triangle:
        """The n x n leading principal submatrix, via the vertical recursion.

        The section carries the recursion's integer columns as its
        ``_cleared_columns``: only their values are pinned, not their
        denominators.
        """
        cols, dens = self._vertical(n)
        return Triangle._unchecked(
            ([_frac(cols[k][i - k], dens[k]) for k in range(i + 1)] for i in range(n)),
            list(zip(cols, dens)),
        )

    def _vertical(self, n: int) -> tuple[list[list[int]], list[int]]:
        """The vertical recursion's integer columns at order n, and their
        denominators: column k holds its n - k entries from the diagonal down.

        Built once per pair at the largest order asked so far, and handed
        out as fresh lists, which a caller may mutate.  A denominator is a
        multiple of the least, not always equal: only the values are pinned.
        """
        self._check_order(n)
        memo = self.__dict__.get("_vertical_cols")
        if memo is None or len(memo[1]) < n:
            g, dg = _cleared(self.g.coeffs[:n])
            f, df = _cleared(self.f.coeffs[:n])
            f1 = f[1:]
            cols, dens = [g], [dg]
            for k in range(1, n):
                prev = cols[-1]
                col = [sum(map(mul, f1, reversed(prev[:m]))) for m in range(1, n - k + 1)]
                den = dens[-1] * df
                c = gcd(den, *col)
                if c > 1:
                    col = [x // c for x in col]
                    den //= c
                cols.append(col)
                dens.append(den)
            memo = cols, dens
            self.__dict__["_vertical_cols"] = memo
        cols, dens = memo
        return [c[: n - k] for k, c in enumerate(cols[:n])], dens[:n]

    def triangle_closed(self, n: int) -> Triangle:
        """Same submatrix from the column generating functions g*f^k, on the
        series kernel."""
        self._check_order(n)
        u, col = _to_ints(self.f.coeffs[1:n]), _to_ints(self.g.coeffs[:n])
        cols = []
        for k in range(n):
            if k:
                col = _times(col, u, n - k)
            nums, den = col
            cols.append(Series.from_coeffs([_frac(c, den) for c in nums], n - k - 1))
        return Triangle._from_columns([s.coeffs for s in cols])

    # -- group structure ------------------------------------------------------

    def __mul__(self, other: "RiordanPair") -> "RiordanPair":
        """(g1, f1)(g2, f2) = (g1 * g2(f1), f2(f1))."""
        if not isinstance(other, RiordanPair):
            return NotImplemented
        g2, f2 = _compose(self.f, [other.g, other.f])
        return RiordanPair(self.g * g2, f2)

    def inverse(self) -> "RiordanPair":
        """(g, f)^-1 = (1 / g(fbar), fbar), fbar at f.prec and 1 / g(fbar) at
        min(g.prec, f.prec)."""
        powers = _lagrange_powers(self.f, self.f.prec)
        fbar = _lagrange_read(powers, [0, 1] + [0] * (self.f.prec - 1), 1)
        g_inv = _lagrange_read(powers, *_krecip(self.g.coeffs, self.prec + 1))
        return RiordanPair(g_inv, fbar)

    def apply(self, h: Series) -> Series:
        """The fundamental-theorem action: (g, f) h = g * h(f)."""
        return self.g * _compose(self.f, [h])[0]

    # -- A- and Z-sequences ---------------------------------------------------

    def extract_az(self) -> "AZSequences":
        """A(t) = t / fbar(t);  Z(t) = (1 - 1/g(fbar)) / fbar(t).

        With u = t/f: a_0 = f_1, a_1 = f_2/f_1 and, for n >= 2, a_n =
        -[t^n] u^(n-1) / (n-1); Z = K(fbar), K = (1 - 1/g)/t.  A has precision
        f.prec - 1 and Z min(g.prec, f.prec) - 1; g of precision 0 raises
        PrecisionError.
        """
        if self.g.prec == 0:
            raise PrecisionError("Z needs g to precision >= 1")
        baby, giant = powers = _lagrange_powers(self.f, self.f.prec)
        k, f = len(baby) - 1, self.f.coeffs
        a = [f[1], *(c / f[1] for c in f[2:3])]
        for n in range(2, self.f.prec):
            (x, dx), (y, dy) = baby[(n - 1) % k], giant[(n - 1) // k]
            dot = sum(map(mul, x[: n + 1], reversed(y[: n + 1])))
            a.append(_frac(-dot, (n - 1) * dx * dy))
        r, e = _krecip(self.g.coeffs, self.prec + 1)
        z = _lagrange_read(powers, [-c for c in r[1:]], e)
        return AZSequences(Series(a), z)

    @cached_property
    def _az(self) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
        """A and Z cleared over all their coefficients, for ``_az_step``, built
        once per pair; the public ``extract_az`` stays uncached."""
        az = self.extract_az()
        return _cleared(az.a.coeffs), _cleared(az.z.coeffs)

    def semidirect_split(self) -> tuple["RiordanPair", "RiordanPair"]:
        """(g, f) = (g, t)(1, f): Appell factor times Lagrange factor."""
        p = self.prec
        return (
            RiordanPair(self.g, Series.t(p)),
            RiordanPair(Series.one(p), self.f),
        )

    def subgroups(self) -> set[str]:
        """Labels of the named subgroups this pair sits in, k-Bell (f = t g^k)
        for k = 1..8.  A label means "holds up to prec", not a proof for the
        infinite array."""
        labels: set[str] = set()
        p = self.prec
        t = Series.t(p)
        one = Series.one(p)
        if self.f.agrees_with(t):
            labels.add("appell")
        if self.g.agrees_with(one):
            labels.add("lagrange")
        gks = _powers(_to_ints(self.g.coeffs[: p + 1]), 8, p + 1)
        for k in range(1, 9):
            if self.f.agrees_with(_from_ints(*gks[k]).shift_up()):
                labels.add(f"{k}-bell")
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
) -> tuple[int, int]:
    """Entry k of the row after prev: sum_j z_j prev_j, or sum_j a_j prev_{k-1+j}.

    A, Z (over all their coefficients 0..prec) and prev come cleared, as
    ``matrices._cleared`` gives them; the result is (sum, denominator),
    unnormalised.  A coefficient past prec raises PrecisionError, not zero.
    """
    (c, dc), (p, dp) = z if k == 0 else a, prev
    p = p[max(k - 1, 0) :]
    if len(p) > len(c):
        raise PrecisionError(
            f"the A/Z step needs coefficient {len(p) - 1}, have {len(c) - 1}"
        )
    return sum(map(mul, c, p)), dc * dp


def reconstruct_from_az(az: AZSequences, n: int) -> Triangle:
    """Rebuild the n x n triangle row by row from its A- and Z-sequences.

    Row n - 1 reads A and Z up to index n - 2; lower precision raises
    PrecisionError rather than reading the missing coefficients as zero.
    """
    if n < 1:
        raise RiordanError("order must be >= 1")
    a, z = _cleared(az.a.coeffs), _cleared(az.z.coeffs)
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for r in range(n - 1):
        prev = _cleared(rows[r])
        rows.append([Fraction(*_az_step(a, z, prev, k)) for k in range(r + 2)])
    return Triangle._unchecked(rows)
