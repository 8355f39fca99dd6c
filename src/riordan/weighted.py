"""(c)- and (C)-weighted Riordan classes.

A weight table C (c_{n,0} = 1, every c_{n,k} nonzero) rescales d_{n,k} to
xhat_{n,k} = rho(n,k) d_{n,k}, rho(n,k) = c_{n,n}/c_{n,k}; a (c)-weight c is
the table c_{n,k} = c_k.  ``c_transform`` takes either kind and reads the
vertical recursion's integer columns, never the series kernel.  Each
recursion is rho(n,k) times a linear Riordan step on d = xhat/rho.  The
(c)-weighted arrays form a group under the matrix product; the (C)-class does
not, so ``c_group_mul`` and ``c_group_inverse`` reject (C)-weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .group import RiordanPair, _az_step
from .matrices import Triangle, _cleared, _columns, _fields_state
from .series import PrecisionError, Rat, _frac, _rat

_ratio = Fraction.as_integer_ratio


class WeightError(ValueError):
    """Invalid weight table or mismatched weights."""


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
        rho = []
        for i, r in enumerate(self.rows):  # each ratio one Fraction
            c, e = r[i].as_integer_ratio()
            rho.append(tuple(Fraction(c * b, e * a) for a, b in map(_ratio, r)))
        return tuple(rho)

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
    def _reach(self) -> int:  # the recursions define rows 1 .. _reach - 1
        return min(len(self.weight), self.n + 1)

    # The recursions' inputs as integer numerators over one denominator
    # each, built on first use: d = xhat / rho off the entries (_quotients).

    @cached_property
    def _d_rows(self) -> list[tuple[list[int], int]]:  # for the A/Z step
        return list(map(_quotients, self.entries.rows, self.weight.rho))

    @cached_property
    def _d_cols(self) -> list[tuple[list[int], int]]:  # column k from row k
        rho = _columns(self.weight.rho[: self.n])
        return list(map(_quotients, _columns(self.entries.rows), rho))

    @cached_property
    def _az(self) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
        # The base pair's A and Z, cleared once per pair; _az_step raises
        # PrecisionError for a step that needs more.
        return self.base._az

    @cached_property
    def _f(self) -> tuple[list[int], int]:
        return _cleared(self.base.f.coeffs)


def _quotients(
    xs: Sequence[Fraction], rs: Sequence[Fraction]
) -> tuple[list[int], int]:
    """x_i / r_i, unreduced, as integer numerators over one positive
    denominator: the lcm of the b c for x_i = a/b and r_i = c/e."""
    pq = [(a * e, b * c) for (a, b), (c, e) in zip(map(_ratio, xs), map(_ratio, rs))]
    den = math.lcm(*(q for _, q in pq))
    return [p * (den // q) for p, q in pq], den


def c_transform(ra: RiordanPair, c: WeightTri, n: int) -> WeightedTriangle:
    """The first n rows of rho(n, k) d_{n,k}, with rho = c.rho."""
    if len(c) < n:
        raise WeightError(f"weight table too short: {len(c)} < {n}")
    cols, dens = ra._vertical(n)
    rows = [
        [
            _frac(p * cols[k][i - k], q * dens[k])
            for k, (p, q) in enumerate(map(_ratio, rho))
        ]
        for i, rho in enumerate(c.rho[:n])
    ]
    return WeightedTriangle(ra, c, Triangle._unchecked(rows))


C_transform = c_transform  # the same map, under the paper's name


def _c_kind(*xs: WeightedTriangle) -> None:
    if any(x.kind != "c" for x in xs):
        raise WeightError("the (C)-class is not a group under multiplication")


def c_group_mul(x: WeightedTriangle, y: WeightedTriangle) -> WeightedTriangle:
    """Matrix product in the (c)-group; (C)-weighted inputs are rejected."""
    _c_kind(x, y)
    if x.weight != y.weight:
        raise WeightError("mismatched weight sequences")
    if x.n != y.n:
        raise WeightError("mismatched orders")
    return WeightedTriangle(x.base * y.base, x.weight, x.entries @ y.entries)


def c_group_inverse(x: WeightedTriangle) -> WeightedTriangle:
    """Inverse in the (c)-group; (C)-weighted inputs are rejected.  The
    transform is D -> W D W^-1, W = diag(c), so this is the transform of the
    base pair's inverse by the same weight."""
    _c_kind(x)
    return c_transform(x.base.inverse(), x.weight, x.n)


# -- the recursions: rho(n, k) times a linear Riordan step on d ---------------

def horiz_recursion_C(x: WeightedTriangle, n: int, k: int) -> Fraction:
    """Entry (n, k) of a (c)- or (C)-weighted triangle from row n-1: rho(n, k)
    times the A/Z step on row n-1 of d.  Row n = x.n is defined when the
    weight reaches index n; a step past A's or Z's precision raises
    PrecisionError."""
    if not (0 <= k <= n and 1 <= n < x._reach):
        raise WeightError(f"entry ({n},{k}) not defined by the recursion")
    (p, q), (s, den) = _ratio(x.weight.rho[n][k]), _az_step(*x._az, x._d_rows[n - 1], k)
    return Fraction(p * s, q * den)


def vert_recursion_C(x: WeightedTriangle, n: int, k: int) -> Fraction:
    """Entry (n, k), k >= 1, of a weighted triangle from column k-1: rho(n, k)
    times sum_{j=1}^{n-k+1} f_j d_{n-j,k-1}, over the rows of
    horiz_recursion_C.  Reading f past its precision raises PrecisionError."""
    if not 1 <= k <= n < x._reach:
        raise WeightError(f"entry ({n},{k}) not defined by the vertical recursion")
    (f, df), (d, dd), m = x._f, x._d_cols[k - 1], n - k + 1
    if m >= len(f):
        raise PrecisionError(f"coefficient {m} beyond precision {len(f) - 1}")
    (p, q), s = _ratio(x.weight.rho[n][k]), sum(map(mul, f[1 : m + 1], reversed(d[:m])))
    return Fraction(p * s, q * df * dd)


# -- generalized rook and Laguerre triangles ----------------------------------

def generalized_rook(ra: RiordanPair, n: int) -> WeightedTriangle:
    """The factorial-weighted triangle (n!/k!) d_{n,k}."""
    return c_transform(ra, WeightSeq.factorial(n), n)


def generalized_laguerre(ra: RiordanPair, n: int) -> WeightedTriangle:
    """The triangle ((-1)^{n-k} / (n-k)!) d_{n,k}."""
    return C_transform(ra, WeightTri.laguerre(n), n)


def rook_laguerre_duality(ra: RiordanPair, n: int) -> bool:
    """Does rhat_{m,m-k} = (-1)^{m-k} m! lhat_{m,k} hold for all m <= n?

    This entrywise form implies the polynomial one, rhat_m(x) = m! x^m
    lhat_m(-1/x).  Both sides reduce to weight ratios times d_{m,m-k} and
    d_{m,k}, so it holds exactly when the base triangle's rows are symmetric
    (the classical Pascal case), and fails for an asymmetric base.
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
