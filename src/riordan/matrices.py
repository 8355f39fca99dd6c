"""Exact lower-triangular matrices of rationals.

One matrix kernel serves both the finite sections of Riordan arrays and
the block matrices of quasi-Riordan arrays; the distinction between the
two is documentary.  Rows are ragged: row i holds columns 0..i.  A column
k runs from the diagonal down, n - k entries; ``_columns`` reads them off
the rows and ``Triangle._from_columns`` builds the rows from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .series import Rat, _rat


def _cleared(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators.

    The series kernel has its own copy (``series._to_ints``): the vertical
    recursion clears with this one, so that it shares no code with the
    closed form it is checked against.
    """
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _columns(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Column k of ragged lower-triangular rows, from the diagonal down."""
    return [[row[k] for row in rows[k:]] for k in range(len(rows))]


def _dot(a: tuple[Iterable[int], int], b: tuple[Iterable[int], int]) -> Fraction:
    """sum_i a_i b_i of two cleared vectors, as one Fraction."""
    return Fraction(sum(map(mul, a[0], b[0])), a[1] * b[1])


def _solve_column(num: Sequence[list[int]], j: int) -> tuple[list[int], int]:
    """Rows j.. of column j of N^-1, as numerators over one denominator.

    N is an integer lower-triangular matrix with a nonzero diagonal.
    Forward substitution x_i = (delta_ij - sum_{j<=k<i} N_ik x_k) / N_ii
    runs over one running denominator, kept positive and coprime to the
    numerators.  Step i scales it by |N_ii| and appends the numerator s;
    since the old numerators and denominator were coprime, the content to
    divide out is gcd(|N_ii|, s).  The result is in lowest terms.
    """
    x: list[int] = []
    den = 1
    for row in num[j:]:
        i = len(row) - 1
        s = (den if i == j else 0) - sum(map(mul, row[j:i], x))
        p = row[i]
        if p < 0:
            s, p = -s, -p
        g = gcd(p, s)
        if p != g:
            x = [v * (p // g) for v in x]
            den *= p // g
        x.append(s // g)
    return x, den


@dataclass(frozen=True)
class Triangle:
    """An n x n lower-triangular matrix, stored as ragged rows."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Sequence[Rat]]):
        built = []
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")
            # Most entries are Fractions already; testing that here, as _rat
            # does first, saves a call per entry, about a fifth of the time
            # to build a triangle of Fractions.
            built.append(tuple(x if type(x) is Fraction else _rat(x) for x in row))
        object.__setattr__(self, "rows", tuple(built))
        if not self.rows:
            raise ValueError("empty triangle")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        if not 0 <= i < self.n or not 0 <= j < self.n:
            raise IndexError(f"({i},{j}) outside {self.n}x{self.n} matrix")
        if j > i:
            return Fraction(0)
        return self.rows[i][j]

    def __repr__(self) -> str:
        return f"Triangle(n={self.n})"

    @classmethod
    def _from_columns(cls, cols: Sequence[Sequence[Rat]]) -> "Triangle":
        """The triangle whose column k, from the diagonal down, is cols[k]."""
        return cls([cols[k][i - k] for k in range(i + 1)] for i in range(len(cols)))

    @classmethod
    def identity(cls, n: int) -> "Triangle":
        return cls([[1 if j == i else 0 for j in range(i + 1)] for i in range(n)])

    def __matmul__(self, other: "Triangle") -> "Triangle":
        """Product with rows of self and columns of other each cleared."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        rows = [_cleared(row) for row in self.rows]
        cols = [_cleared(col) for col in _columns(other.rows)]
        return Triangle(
            [_dot((a[j:], da), col) for j, col in enumerate(cols[: i + 1])]
            for i, (a, da) in enumerate(rows)
        )

    def inverse(self) -> "Triangle":
        """Inverse by forward substitution; requires a nonzero diagonal.

        With d_i the lcm of row i's denominators, self = diag(d)^-1 N for
        an integer matrix N, so the inverse is N^-1 diag(d).
        """
        for i in range(self.n):
            if self.rows[i][i] == 0:
                raise ValueError(f"singular: zero diagonal entry at {i}")
        num, dens = zip(*map(_cleared, self.rows))
        cols = []
        for j, dj in enumerate(dens):
            x, den = _solve_column(num, j)
            cols.append([Fraction(v * dj, den) for v in x])
        return Triangle._from_columns(cols)

    def apply(self, vector: Sequence[Rat]) -> list[Fraction]:
        """Matrix times coefficient vector (vector length must be n)."""
        if len(vector) != self.n:
            raise ValueError("vector length must match matrix order")
        v = _cleared(list(map(_rat, vector)))
        return [_dot(a, v) for a in map(_cleared, self.rows)]

    # -- serialization (stable: row-major, row 0 first) -----------------------

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.rows) + "\n"

    def to_json(self) -> str:
        return json.dumps([[str(x) for x in row] for row in self.rows])

    @classmethod
    def from_csv(cls, text: str) -> "Triangle":
        return cls([line.split(",") for line in text.strip().splitlines()])

    @classmethod
    def from_json(cls, text: str) -> "Triangle":
        rows = json.loads(text)
        if type(rows) is not list or not all(
            type(row) is list and all(type(x) is str for x in row) for row in rows
        ):
            raise ValueError("a JSON triangle is a list of lists of strings")
        return cls(rows)


def direct_sum_one(m: Triangle) -> Triangle:
    """[1] (+) M: a 1 in the corner, zeros bordering, M in the lower block."""
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for i, row in enumerate(m.rows):
        rows.append([Fraction(0)] + list(row))
    return Triangle(rows)
