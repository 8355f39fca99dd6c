"""The quasi-Riordan group.

A quasi-Riordan array [g, f] has columns g, f, tf, t^2 f, ...; with
ordinary matrix multiplication these form a group whose law and inverse
have closed forms in terms of g and f.  The factorization
(g, f) = [g, f] ([1] (+) (g, f)) links a Riordan array to its own
recursive matrix, and conjugation in the group fixes the second
component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import RiordanPair, _Pair
from .matrices import Triangle, direct_sum_one
from .series import Series


@dataclass(frozen=True)
class QuasiRiordan(_Pair):
    """A quasi-Riordan pair [g, f]: g(0) = 1, f of order exactly 1."""

    @classmethod
    def of_pair(cls, ra: RiordanPair) -> "QuasiRiordan":
        return cls(ra.g, ra.f)

    def matrix(self, n: int) -> Triangle:
        """The n x n section: column 0 is g, column j >= 1 is t^{j-1} f."""
        self._check_order(n)
        rows = []
        for i in range(n):
            row = [self.g[i]]
            for j in range(1, i + 1):
                # column j holds t^{j-1} f, whose t^i coefficient is f_{i-j+1}
                row.append(self.f[i - j + 1])
            rows.append(row)
        return Triangle(rows)

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


def factorization_check(ra: RiordanPair, n: int) -> bool:
    """Does (g,f)_n = [g,f]_n ([1] (+) (g,f)_{n-1}) hold exactly?"""
    left = ra.triangle(n)
    quasi = QuasiRiordan.of_pair(ra).matrix(n)
    if n == 1:
        return left == quasi
    right = quasi @ direct_sum_one(Triangle(left.rows[:-1]))
    return left == right
