"""(c)- and (C)-weighted Riordan classes.

A weight sequence c (c_0 = 1, all c_k nonzero) rescales a Riordan array's
entries to (c_n/c_k) d_{n,k}; a weight triangle C rescales them to
(c_{n,n}/c_{n,k}) d_{n,k}.  A (c)-weight is read as the (C)-weight
c_{n,k} = c_k, for which c_{n,n}/c_{n,k} = c_n/c_k, so one transform and
one recursion per direction serve both kinds: horiz_recursion_C (row n
from row n-1, through the base array's A/Z-sequences) and
vert_recursion_C (column k from column k-1, through the coefficients of
f), each with weight-ratio corrections, which is what turns the linear
Riordan recursions into nonlinear recursions like those of the rook and
Laguerre triangles.  The (c)-weighted arrays again form a group under
matrix multiplication; the (C)-class does not, so the group law here
rejects C-weighted inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from .group import RiordanPair
from .matrices import Triangle
from .series import Rat, Series


class WeightError(ValueError):
    """Invalid weight table or mismatched weights."""


@dataclass(frozen=True)
class WeightSeq:
    """A weight sequence (c_0, c_1, ...) with c_0 = 1 and no zero entry."""

    __slots__ = ("c",)

    c: tuple[Fraction, ...]

    def __init__(self, values: Sequence[Rat]):
        c = tuple(Fraction(v) for v in values)
        if not c or c[0] != 1:
            raise WeightError("weight sequence must start with c_0 = 1")
        if any(v == 0 for v in c):
            raise WeightError("weight sequence entries must be nonzero")
        object.__setattr__(self, "c", c)

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n < len(self.c):
            raise WeightError(f"weight index {n} beyond table of {len(self.c)}")
        return self.c[n]

    def reciprocal(self) -> "WeightSeq":
        return WeightSeq([1 / v for v in self.c])

    @classmethod
    def factorial(cls, n: int) -> "WeightSeq":
        return cls([math.factorial(i) for i in range(n + 1)])

    @classmethod
    def power(cls, base: Rat, n: int) -> "WeightSeq":
        b = Fraction(base)
        if b == 0:
            raise WeightError("power weight base must be nonzero")
        return cls([b ** i for i in range(n + 1)])


@dataclass(frozen=True)
class WeightTri:
    """A lower-triangular weight table with c_{n,0} = 1, c_{n,k} != 0."""

    __slots__ = ("rows",)

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        built = []
        for i, row in enumerate(rows):
            r = tuple(Fraction(v) for v in row)
            if len(r) != i + 1:
                raise WeightError(f"weight row {i} must have {i + 1} entries")
            if r[0] != 1:
                raise WeightError(f"weight row {i} must start with 1")
            if any(v == 0 for v in r):
                raise WeightError(f"weight row {i} has a zero entry")
            built.append(r)
        if not built:
            raise WeightError("empty weight triangle")
        object.__setattr__(self, "rows", tuple(built))

    def __len__(self) -> int:
        return len(self.rows)

    def at(self, n: int, k: int) -> Fraction:
        if not 0 <= k <= n < len(self.rows):
            raise WeightError(f"weight index ({n},{k}) out of range")
        return self.rows[n][k]

    @classmethod
    def from_seq(cls, c: WeightSeq) -> "WeightTri":
        return cls([[c[k] for k in range(n + 1)] for n in range(len(c))])

    @classmethod
    def laguerre(cls, n: int) -> "WeightTri":
        """c_{n,k} = (-1)^k / (n)_k, the weight behind the Laguerre triangle."""
        return cls(
            [
                [Fraction((-1) ** k, math.perm(i, k)) for k in range(i + 1)]
                for i in range(n + 1)
            ]
        )


Weight = Union[WeightSeq, WeightTri]


@dataclass(frozen=True)
class WeightedTriangle:
    """A finite weighted Riordan triangle with its provenance."""

    base: RiordanPair
    weight: Weight
    entries: Triangle

    @property
    def kind(self) -> str:
        return "c" if isinstance(self.weight, WeightSeq) else "C"

    @property
    def n(self) -> int:
        return self.entries.n

    @cached_property
    def _az(self) -> tuple[Series, Series]:
        # Indexing the series raises PrecisionError past their precision.
        az = self.base.extract_az()
        return az.a, az.z


def _weight_fn(weight: Weight) -> Callable[[int, int], Fraction]:
    """The weight as w(n, k): c_k for a (c)-weight, c_{n,k} for a (C)-weight."""
    if isinstance(weight, WeightSeq):
        return lambda n, k: weight[k]
    return weight.at


def _transform(ra: RiordanPair, weight: Weight, n: int) -> WeightedTriangle:
    """Entries (w(i, i) / w(i, j)) d_{i,j} for the first n rows."""
    if len(weight) < n:
        raise WeightError(f"weight table too short: {len(weight)} < {n}")
    w = _weight_fn(weight)
    tri = ra.triangle(n)
    rows = [
        [w(i, i) / w(i, j) * tri.rows[i][j] for j in range(i + 1)] for i in range(n)
    ]
    return WeightedTriangle(ra, weight, Triangle(rows))


def c_transform(ra: RiordanPair, c: WeightSeq, n: int) -> WeightedTriangle:
    """Entries (c_n / c_k) d_{n,k} from the first n rows of (g, f)."""
    return _transform(ra, c, n)


def C_transform(ra: RiordanPair, C: WeightTri, n: int) -> WeightedTriangle:
    """Entries (c_{n,n} / c_{n,k}) d_{n,k}."""
    return _transform(ra, C, n)


def c_group_mul(x: WeightedTriangle, y: WeightedTriangle) -> WeightedTriangle:
    """Matrix product in the (c)-group; (C)-weighted inputs are rejected."""
    if x.kind != "c" or y.kind != "c":
        raise WeightError("the (C)-class is not closed under multiplication")
    if x.weight != y.weight:
        raise WeightError("mismatched weight sequences")
    if x.n != y.n:
        raise WeightError("mismatched orders")
    return WeightedTriangle(x.base * y.base, x.weight, x.entries @ y.entries)


# -- the recursions, one per direction, for either weight kind ---------------

def horiz_recursion_C(x: WeightedTriangle, n: int, k: int) -> Fraction:
    """Entry (n, k) of a (c)- or (C)-weighted triangle from row n-1.

    A (c)-weight is read as c_{n,k} = c_k.  Column 0 uses the Z-sequence,
    columns k >= 1 the A-sequence, each weighted by the weight ratios.
    The A/Z sequences are always recomputed from the base pair, never
    supplied by the caller.
    """
    if n < 1 or not 0 <= k <= n:
        raise WeightError(f"entry ({n},{k}) not defined by the recursion")
    w = _weight_fn(x.weight)
    a, z = x._az
    prev = x.entries.rows[n - 1]
    ratio = w(n, n) / w(n - 1, n - 1)
    if k == 0:
        s = sum((z[j] * w(n - 1, j) * prev[j] for j in range(n)), Fraction(0))
        return ratio * s
    s = sum(
        (
            a[j] * w(n - 1, k - 1 + j) * prev[k - 1 + j]
            for j in range(n - k + 1)
        ),
        Fraction(0),
    )
    return ratio / w(n, k) * s


def vert_recursion_C(x: WeightedTriangle, n: int, k: int) -> Fraction:
    """Entry (n, k), k >= 1, of a weighted triangle from column k-1.

    A (c)-weight is read as c_{n,k} = c_k, as in horiz_recursion_C.
    """
    if not 1 <= k <= n:
        raise WeightError(f"vertical recursion needs 1 <= k <= n, got ({n},{k})")
    w = _weight_fn(x.weight)
    f = x.base.f
    s = sum(
        (
            f[j]
            * w(n - j, k - 1)
            / w(n - j, n - j)
            * x.entries.rows[n - j][k - 1]
            for j in range(1, n - k + 2)
        ),
        Fraction(0),
    )
    return w(n, n) / w(n, k) * s


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
