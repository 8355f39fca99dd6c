"""Exact lower-triangular matrices of rationals.

``Triangle`` serves both the finite sections of Riordan arrays and the block
matrices of quasi-Riordan arrays.  Rows are ragged, row i holding columns
0..i; column k runs from the diagonal down, n - k entries.  The product,
inverse and matrix-vector product run on integers and share no code with the
series kernel: ``@`` checks the pair law that the kernel computes.  Every
entry handed out is a reduced Fraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add, lshift, mul, sub
from typing import Iterable, Iterator, Sequence

from .series import Rat, _frac, _rat


def _fields_state(self) -> dict:
    # Copies and pickles carry the fields alone; cached tables rebuild from
    # them on first read.
    return {f.name: getattr(self, f.name) for f in fields(self)}


def _cleared(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators: a copy of
    ``series._to_ints``, so that the vertical recursion and ``@`` share no
    code with the series kernel they check."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _columns(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Column k of ragged lower-triangular rows, from the diagonal down."""
    return [[row[k] for row in rows[k:]] for k in range(len(rows))]


def _dot(a: tuple[Iterable[int], int], b: tuple[Iterable[int], int]) -> Fraction:
    """sum_i a_i b_i of two cleared vectors, as one Fraction."""
    return Fraction(sum(map(mul, a[0], b[0])), a[1] * b[1])


def _solve_rows(num: Sequence[Sequence[int]]) -> Iterator[tuple[list[int], int]]:
    """Each row of N^-1, N integer lower-triangular with a nonzero diagonal,
    as integer numerators over a positive denominator, in lowest terms.

    With rows Y_k / den_k of N^-1 and L = lcm(den_0..den_(i-1)), row i is
    (L e_i - sum_k c_k Y_k) / (L N_ii), with c_k = N_ik (L / den_k).
    """
    cols: list[list[int]] = []  # column j of Y, rows j..i-1
    dens: list[int] = []
    big = 1
    for i, row in enumerate(num):
        c = [a * (big // d) for a, d in zip(row, dens)]
        c.reverse()
        y = [-sum(map(mul, c, reversed(col))) for col in cols]
        y.append(big)
        den = big * row[i]
        g = gcd(den, *y)
        if den < 0:
            g = -g
        y = [v // g for v in y]
        den //= g
        for col, v in zip(cols, y):
            col.append(v)
        cols.append([y[i]])
        dens.append(den)
        big = lcm(big, den)
        yield y, den


@dataclass(frozen=True)
class Triangle:
    """An n x n lower-triangular matrix, stored as ragged rows."""

    rows: tuple[tuple[Fraction, ...], ...]

    __getstate__ = _fields_state

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

    @classmethod
    def _unchecked(
        cls,
        rows: Iterable[Sequence[Fraction]],
        columns: list[tuple[list[int], int]] | None = None,
    ) -> "Triangle":
        """Rows of Fractions built in this library, taken without ``__init__``'s
        checks; ``columns`` seeds ``_cleared_columns``."""
        tri = object.__new__(cls)
        object.__setattr__(tri, "rows", tuple(map(tuple, rows)))
        if columns is not None:
            tri.__dict__["_cleared_columns"] = columns
        return tri

    @cached_property
    def _cleared_columns(self) -> list[tuple[list[int], int]]:
        """Column k as integer numerators over one denominator, built on first
        read unless seeded.  A seeded denominator may be a multiple of the
        least; readers use the values alone and mutate nothing."""
        return list(map(_cleared, _columns(self.rows)))

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
    def _from_columns(cls, cols: Sequence[Sequence[Fraction]]) -> "Triangle":
        """The triangle whose column k, from the diagonal down, is cols[k]."""
        return cls._unchecked([cols[k][i - k] for k in range(i + 1)] for i in range(len(cols)))

    @classmethod
    def identity(cls, n: int) -> "Triangle":
        return cls([[1 if j == i else 0 for j in range(i + 1)] for i in range(n)])

    def __matmul__(self, other: "Triangle") -> "Triangle":
        """Product as packed-row integer combinations: row i is sum_k a_ik P_k,
        P_k row k of other packed into one integer, a slot per column.

        Slot j holds sum_k a_ik b_kj, at most n - j products, so it has room
        for bits(a) + bits(b_j) + log2(n - j) bits and a sign, in whole bytes;
        a bias of half a slot keeps every slot nonnegative.
        """
        if not isinstance(other, Triangle):
            return NotImplemented
        n = self.n
        if n != other.n:
            raise ValueError(f"size mismatch: {n} vs {other.n}")
        rows = list(map(_cleared, self.rows))
        cols, dens = zip(*other._cleared_columns)
        bits = max(map(int.bit_length, chain.from_iterable(a for a, _ in rows)))
        nbytes = [
            (bits + max(map(int.bit_length, col)) + (n - j).bit_length() + 8) // 8
            for j, col in enumerate(cols)
        ]
        ends = list(accumulate(nbytes))
        starts = [0, *ends[:-1]]
        halves = [1 << (8 * size - 1) for size in nbytes]
        # biases[k]: the bias of slots 0..k
        biases = list(accumulate(map(lshift, halves, [8 * s for s in starts])))
        little = repeat("little")
        heads = list(map(iter, cols))  # next(heads[j]) reads b_jj, b_(j+1)j, ...
        slots = list(map(slice, starts, ends))
        packed, out = [], []  # P_0..P_i, and rows 0..i of the product
        for i, (a, da) in enumerate(rows):
            biased = map(add, map(next, heads[: i + 1]), halves)  # row i of the b's
            raw = b"".join(map(int.to_bytes, biased, nbytes, little))
            packed.append(int.from_bytes(raw, "little") - biases[i])
            raw = sum(map(mul, a, packed), biases[i]).to_bytes(ends[i], "little")
            biased = map(int.from_bytes, map(raw.__getitem__, slots[: i + 1]), little)
            out.append(tuple(map(_frac, map(sub, biased, halves), map(mul, repeat(da), dens))))
        return Triangle._unchecked(out)

    def inverse(self) -> "Triangle":
        """Inverse by forward substitution, N^-1 diag(d) for self = diag(d)^-1 N
        with N integer; a zero diagonal entry raises ValueError."""
        for i in range(self.n):
            if self.rows[i][i] == 0:
                raise ValueError(f"singular: zero diagonal entry at {i}")
        num, dens = zip(*map(_cleared, self.rows))
        return Triangle._unchecked(
            [_frac(v * d, den) for v, d in zip(y, dens)] for y, den in _solve_rows(num)
        )

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
    return Triangle._unchecked([[Fraction(1)], *([Fraction(0), *row] for row in m.rows)])
