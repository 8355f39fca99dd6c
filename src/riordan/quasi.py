"""The quasi-Riordan group and the paper's order transforms.

A quasi-Riordan array [g, f] has columns g, f, tf, t^2 f, ..., so row i
of its section is g_i, f_i, f_{i-1}, ..., f_1; with ordinary matrix
multiplication these form a group whose law and inverse have closed forms
in terms of g and f, and conjugation in the group fixes the second
component.  The paper's factorization
(g, f)_m = [g, f]_m ([1] (+) (g, f)_(m-1)) moves a finite array between
orders: ``raise_order`` and ``lower_order`` multiply each column of a
section, from the diagonal down as ``matrices`` lays it out, by f/t or
t/f, one Kronecker product each.  ``factorization_check`` runs the same
products on ``triangle(n)`` and cross-multiplies: it checks the schoolbook
recursion against the kernel, not the quasi matrix, which the tests check
against the literal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .group import RiordanError, RiordanPair, _Pair
from .matrices import Triangle, _columns
from .series import Series, _kmul, _to_ints


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
        return Triangle([g[i], *f[i:0:-1]] for i in range(n))

    def apply(self, u: Series) -> Series:
        """The quasi fundamental-theorem action: g*u(0) + (f/t)(u - u(0))."""
        u0 = Series.from_coeffs([u.coeffs[0]], u.prec)
        return self.g.scale(u.coeffs[0]) + self.f * (u - u0).shift_down()

    def __mul__(self, other: "QuasiRiordan") -> "QuasiRiordan":
        """[g, f][d, h] = [g + (f/t)(d - 1), f h / t]."""
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

_Cleared = tuple[list[int], int]  # integer numerators over one denominator


def _times(u: Sequence[Fraction], cols: Iterable[_Cleared]) -> Iterator[_Cleared]:
    """Each column c / d, from the diagonal down, times u: one _kmul each."""
    u, du = _to_ints(u)
    return ((_kmul(c, u, len(c)), d * du) for c, d in cols)


def _raised(ra: RiordanPair, cols: Iterable[_Cleared], m: int) -> Iterator[_Cleared]:
    """The columns of [g, f]_m ([1] (+) T) from those of T: g, then f/t times each."""
    return chain([_to_ints(ra.g.coeffs[:m])], _times(ra.f.coeffs[1:m], cols))


def _section(cols: Iterable[_Cleared]) -> Triangle:
    return Triangle._from_columns([[Fraction(x, d) for x in c] for c, d in cols])


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
    t_over_f = ra.f.truncate(m - 1).shift_down().reciprocal()
    return _section(_times(t_over_f.coeffs, map(_to_ints, _columns(tri.rows)[1:])))


def factorization_check(ra: RiordanPair, n: int) -> bool:
    """Does (g,f)_n = [g,f]_n ([1] (+) (g,f)_{n-1}) hold exactly?

    The columns of ``triangle(n)`` less their last entries, (g,f)_{n-1}, are
    raised as in ``raise_order``; a raised b / e must equal a / d, a e == b d.
    """
    cols = list(map(_to_ints, _columns(ra.triangle(n).rows)))
    upper = ((c[:-1], d) for c, d in cols[:-1])
    return all(
        all(a * e == b * d for a, b in zip(col, want, strict=True))
        for (col, d), (want, e) in zip(cols, _raised(ra, upper, n))
    )
