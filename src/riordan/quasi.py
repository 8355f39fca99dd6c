"""The quasi-Riordan group and the paper's order transforms.

A quasi-Riordan array [g, f] has columns g, f, tf, t^2 f, ...; under the
matrix product these form a group, and conjugation fixes f.  The paper's
factorization (g, f)_m = [g, f]_m ([1] (+) (g, f)_(m-1)) moves a section
between orders (``raise_order``, ``lower_order``) on the series kernel, and
``factorization_check`` tests it on the vertical recursion's own columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .group import RiordanError, RiordanPair, _Pair
from .matrices import Triangle, _columns
from .series import Series, _Cleared, _frac, _krecip, _times, _to_ints


@dataclass(frozen=True)
class QuasiRiordan(_Pair):
    """A quasi-Riordan pair [g, f]: g(0) = 1, f of order exactly 1."""

    @classmethod
    def of_pair(cls, ra: RiordanPair) -> "QuasiRiordan":
        return cls(ra.g, ra.f)

    def matrix(self, n: int) -> Triangle:
        """The n x n section: column 0 is g, column j >= 1 is t^{j-1} f."""
        self._check_order(n)
        g, f = self.g.coeffs, self.f.coeffs  # row i: g_i, f_i, f_{i-1}, ..., f_1
        return Triangle._unchecked([g[i], *f[i:0:-1]] for i in range(n))

    def apply(self, u: Series) -> Series:
        """The quasi fundamental-theorem action: g*u(0) + (f/t)(u - u(0))."""
        u0 = Series.from_coeffs([u.coeffs[0]], u.prec)
        return self.g.scale(u.coeffs[0]) + self.f * (u - u0).shift_down()

    def __mul__(self, other: "QuasiRiordan") -> "QuasiRiordan":
        """[g, f][d, h] = [g + (f/t)(d - 1), f h / t]."""
        if not isinstance(other, QuasiRiordan):
            return NotImplemented
        ft = self.f.shift_down()
        one = Series.one(other.g.prec)
        return QuasiRiordan(
            self.g + ft * (other.g - one), (self.f * other.f).shift_down()
        )

    def inverse(self) -> "QuasiRiordan":
        """[g, f]^-1 = [1 + (t/f)(1 - g), t^2 / f]."""
        t_over_f = self.f.shift_down().reciprocal()
        one = Series.one(self.g.prec)
        return QuasiRiordan(
            one + t_over_f * (one - self.g), t_over_f.shift_up()
        )

    def conjugate_by(self, by: "QuasiRiordan") -> "QuasiRiordan":
        """by * self * by^-1; the second component always comes back f."""
        return by * self * by.inverse()


# -- order transforms ---------------------------------------------------------

def _raised(ra: RiordanPair, cols: Iterable[_Cleared], m: int) -> Iterator[_Cleared]:
    """The columns of [g, f]_m ([1] (+) T) from those of T: g, then f/t times each."""
    u = _to_ints(ra.f.coeffs[1:m])  # f/t
    return chain([_to_ints(ra.g.coeffs[:m])], (_times(c, u, len(c[0])) for c in cols))


def _section(cols: Iterable[_Cleared]) -> Triangle:
    return Triangle._from_columns([[_frac(x, d) for x in c] for c, d in cols])


def raise_order(ra: RiordanPair, tri: Triangle) -> Triangle:
    """[g, f]_m ([1] (+) tri), m = tri.n + 1: (g, f)_m when tri is (g, f)_(m-1)."""
    ra._check_order(tri.n + 1)
    return _section(_raised(ra, map(_to_ints, _columns(tri.rows)), tri.n + 1))


def lower_order(ra: RiordanPair, tri: Triangle) -> Triangle:
    """The lower block of [g, f]_m^-1 tri, m = tri.n: (g, f)_(m-1) if tri is (g, f)_m.

    Column j is t/f times column j + 1 of tri; of [g, f]^-1 only t/f is used.
    """
    m = tri.n
    if m < 2:
        raise RiordanError("cannot lower an order-1 triangle: there is no order 0")
    ra._check_order(m)
    u = _krecip(ra.f.coeffs[1:m], m - 1)  # t/f
    cols = map(_to_ints, _columns(tri.rows)[1:])
    return _section(_times(c, u, len(c[0])) for c in cols)


def factorization_check(ra: RiordanPair, n: int) -> bool:
    """Does (g,f)_n = [g,f]_n ([1] (+) (g,f)_{n-1}) hold exactly, on the
    integer columns of ``triangle(n)`` raised as in ``raise_order``?"""
    cols = ra.triangle(n)._cleared_columns
    upper = ((c[:-1], d) for c, d in cols[:-1])
    return all(
        all(a * e == b * d for a, b in zip(col, want, strict=True))
        for (col, d), (want, e) in zip(cols, _raised(ra, upper, n))
    )
