"""(c)- and (C)-weighted Riordan classes.

A weight triangle C (c_{n,0} = 1, all c_{n,k} nonzero) rescales a Riordan
array's entries d_{n,k} to xhat_{n,k} = rho(n,k) d_{n,k}, with the weight
ratio rho(n,k) = c_{n,n}/c_{n,k}.  A (c)-weight, the sequence c (c_0 = 1),
is the (C)-table c_{n,k} = c_k (WeightSeq is a WeightTri built from its
rows), where rho(n,k) = c_n/c_k.  So one class validates a weight and holds
its rho table (rho, built on first read and shared by every transform and
recursion over that weight), and one transform multiplies the triangle by
it entrywise (c_transform takes either kind; C_transform is the same map
under the paper's name).  The transform reads the vertical recursion's
integer columns and their denominators, so each entry rho(n,k) d_{n,k} is
normalised once, as one Fraction.  Copies and pickles carry the fields
alone; the cached tables rebuild on first read.  Each recursion is
rho(n,k) times a linear Riordan step on the unweighted entries
d = xhat/rho of the weighted triangle itself: the A/Z step on row n-1
(horiz_recursion_C) or sum_j f_j d_{n-j,k-1} (vert_recursion_C), each one
integer dot product over inputs cleared to one denominator on first use
(rows and columns of d, A, Z and f; a transform that is never recursed on
pays nothing for them).  Conjugating by the weights is what turns these
linear recursions into nonlinear ones like those of the rook and Laguerre
triangles.  The (c)-weighted arrays again
form a group under matrix multiplication; the (C)-class does not, so the
group law here rejects C-weighted inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .group import RiordanPair, _az_step
from .matrices import Triangle, _cleared, _columns, _dot
from .series import PrecisionError, Rat, _rat


class WeightError(ValueError):
    """Invalid weight table or mismatched weights."""


def _fields_state(self) -> dict:
    # Copies and pickles carry the fields alone; the cached tables (rho,
    # _d, _d_rows, ...) rebuild from them on first read.
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class WeightTri:
    """A lower-triangular weight table with c_{n,0} = 1, c_{n,k} != 0."""

    kind = "C"

    rows: tuple[tuple[Fraction, ...], ...]

    __getstate__ = _fields_state

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        try:
            rows = Triangle(rows).rows
        except ValueError as exc:
            raise WeightError(f"weight table: {exc}") from None
        for i, r in enumerate(rows):
            if r[0] != 1:
                raise WeightError(f"weight row {i} must start with 1")
            if not all(r):
                raise WeightError(f"weight row {i} has a zero entry")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def rho(self) -> tuple[tuple[Fraction, ...], ...]:
        """rho(i, j) = c_{i,i} / c_{i,j} for 0 <= j <= i < len, built once."""
        return tuple(tuple(r[i] / v for v in r) for i, r in enumerate(self.rows))

    @classmethod
    def laguerre(cls, n: int) -> "WeightTri":
        """c_{n,k} = (-1)^k / (n)_k, the weight behind the Laguerre triangle."""
        return cls(
            [
                [Fraction((-1) ** k, math.perm(i, k)) for k in range(i + 1)]
                for i in range(n + 1)
            ]
        )


@dataclass(frozen=True)
class WeightSeq(WeightTri):
    """A weight sequence (c_0, c_1, ...): the table c_{n,k} = c_k, of kind "c"."""

    kind = "c"

    def __init__(self, values: Sequence[Rat]):
        try:
            c = tuple(map(_rat, values))
        except ValueError as exc:
            raise WeightError(f"weight sequence: {exc}") from None
        super().__init__([c[: i + 1] for i in range(len(c))])

    @classmethod
    def factorial(cls, n: int) -> "WeightSeq":
        return cls([math.factorial(i) for i in range(n + 1)])

    @classmethod
    def power(cls, base: Rat, n: int) -> "WeightSeq":
        try:
            b = _rat(base)
        except ValueError as exc:
            raise WeightError(f"power weight base: {exc}") from None
        if b == 0:
            raise WeightError("power weight base must be nonzero")
        return cls([b ** i for i in range(n + 1)])


@dataclass(frozen=True)
class WeightedTriangle:
    """A finite weighted Riordan triangle with its provenance."""

    base: RiordanPair
    weight: WeightTri
    entries: Triangle

    __getstate__ = _fields_state

    def __post_init__(self):
        if len(self.weight) < self.n:
            raise WeightError(f"weight table too short: {len(self.weight)} < {self.n}")

    @property
    def kind(self) -> str:
        return self.weight.kind

    @property
    def n(self) -> int:
        return self.entries.n

    @cached_property
    def _d(self) -> list[list[Fraction]]:  # d = xhat / rho, off the entries
        return [
            [v / r for v, r in zip(row, rho)]
            for row, rho in zip(self.entries.rows, self.weight.rho)
        ]

    # The recursions' inputs as integer numerators over one denominator
    # each (matrices._cleared), built on first use.

    @cached_property
    def _d_rows(self) -> list[tuple[list[int], int]]:  # for the A/Z step
        return [_cleared(row) for row in self._d]

    @cached_property
    def _d_cols(self) -> list[tuple[list[int], int]]:  # column k from row k
        return [_cleared(col) for col in _columns(self._d)]

    @cached_property
    def _az(self) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
        # A and Z over all their coefficients; _az_step raises
        # PrecisionError for a step that needs more.
        az = self.base.extract_az()
        return _cleared(az.a.coeffs), _cleared(az.z.coeffs)

    @cached_property
    def _f(self) -> tuple[list[int], int]:
        return _cleared(self.base.f.coeffs)


def c_transform(ra: RiordanPair, c: WeightTri, n: int) -> WeightedTriangle:
    """The first n rows of rho(n, k) d_{n,k}, with rho = c.rho."""
    if len(c) < n:
        raise WeightError(f"weight table too short: {len(c)} < {n}")
    cols, dens = ra._vertical(n)
    rows = [
        [
            Fraction(r.numerator * cols[k][i - k], r.denominator * dens[k])
            for k, r in enumerate(rho)
        ]
        for i, rho in enumerate(c.rho[:n])
    ]
    return WeightedTriangle(ra, c, Triangle(rows))


C_transform = c_transform  # the same map, under the paper's name


def c_group_mul(x: WeightedTriangle, y: WeightedTriangle) -> WeightedTriangle:
    """Matrix product in the (c)-group; (C)-weighted inputs are rejected."""
    if x.kind != "c" or y.kind != "c":
        raise WeightError("the (C)-class is not closed under multiplication")
    if x.weight != y.weight:
        raise WeightError("mismatched weight sequences")
    if x.n != y.n:
        raise WeightError("mismatched orders")
    return WeightedTriangle(x.base * y.base, x.weight, x.entries @ y.entries)


# -- the recursions: rho(n, k) times a linear Riordan step on d ---------------

def horiz_recursion_C(x: WeightedTriangle, n: int, k: int) -> Fraction:
    """Entry (n, k) of a (c)- or (C)-weighted triangle from row n-1.

    rho(n, k) times the A/Z step (group._az_step) on cleared row n-1 of d:
    the Z-sequence for column 0, the A-sequence for k >= 1, both from the
    base pair's own extract_az.  Row n = x.n is defined when the weight
    reaches index n.
    """
    if not (0 <= k <= n and 1 <= n < min(len(x.weight), x.n + 1)):
        raise WeightError(f"entry ({n},{k}) not defined by the recursion")
    return x.weight.rho[n][k] * _az_step(*x._az, x._d_rows[n - 1], k)


def vert_recursion_C(x: WeightedTriangle, n: int, k: int) -> Fraction:
    """Entry (n, k), k >= 1, of a weighted triangle from column k-1.

    rho(n, k) times sum_{j=1}^{m} f_j d_{n-j,k-1}, m = n-k+1, over the same
    rows as horiz_recursion_C: one integer dot product of the base pair's
    cleared f with column k-1 of d.  Reading f past its precision raises
    PrecisionError.
    """
    if not 1 <= k <= n < min(len(x.weight), x.n + 1):
        raise WeightError(f"entry ({n},{k}) not defined by the vertical recursion")
    (f, df), (d, dd), m = x._f, x._d_cols[k - 1], n - k + 1
    if m >= len(f):
        raise PrecisionError(f"coefficient {m} beyond precision {len(f) - 1}")
    return x.weight.rho[n][k] * _dot((f[1 : m + 1], df), (reversed(d[:m]), dd))


# -- generalized rook and Laguerre triangles ----------------------------------

def generalized_rook(ra: RiordanPair, n: int) -> WeightedTriangle:
    """The factorial-weighted triangle (n!/k!) d_{n,k}."""
    return c_transform(ra, WeightSeq.factorial(n), n)


def generalized_laguerre(ra: RiordanPair, n: int) -> WeightedTriangle:
    """The triangle ((-1)^{n-k} / (n-k)!) d_{n,k}."""
    return C_transform(ra, WeightTri.laguerre(n), n)


def rook_laguerre_duality(ra: RiordanPair, n: int) -> bool:
    """Does rhat_{m,m-k} = (-1)^{m-k} m! lhat_{m,k} hold for all m <= n?

    The polynomial form rhat_m(x) = m! x^m lhat_m(-1/x) is this identity
    summed against x^(m-k), so it holds whenever the entrywise one does and
    needs no separate check.  Both sides reduce to weight ratios times
    d_{m,m-k} and d_{m,k}, so the identity holds exactly when the base
    triangle has row-symmetric entries (the classical Pascal case); for
    asymmetric bases it genuinely fails.
    """
    rook = generalized_rook(ra, n + 1).entries
    lag = generalized_laguerre(ra, n + 1).entries
    for m in range(n + 1):
        for k in range(m + 1):
            lhs = rook.rows[m][m - k]
            rhs = (-1) ** (m - k) * math.factorial(m) * lag.rows[m][k]
            if lhs != rhs:
                return False
    return True
