"""Exact lower-triangular matrices of rationals.

One matrix kernel serves both the finite sections of Riordan arrays and
the block matrices of quasi-Riordan arrays; the distinction between the
two is documentary.  Rows are ragged: row i holds entries for columns
0..i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Triangle:
    """An n x n lower-triangular matrix, stored as ragged rows."""

    __slots__ = ("rows",)

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Sequence[Fraction | int | str]]):
        built = []
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")
            built.append(tuple(Fraction(x) for x in row))
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
    def identity(cls, n: int) -> "Triangle":
        return cls([[1 if j == i else 0 for j in range(i + 1)] for i in range(n)])

    def __matmul__(self, other: "Triangle") -> "Triangle":
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        out = []
        for i in range(self.n):
            row = []
            for j in range(i + 1):
                row.append(
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(j, i + 1)),
                        Fraction(0),
                    )
                )
            out.append(row)
        return Triangle(out)

    def inverse(self) -> "Triangle":
        """Inverse by forward substitution; requires a nonzero diagonal."""
        for i in range(self.n):
            if self.rows[i][i] == 0:
                raise ValueError(f"singular: zero diagonal entry at {i}")
        inv: list[list[Fraction]] = []
        for i in range(self.n):
            row = []
            for j in range(i + 1):
                if j == i:
                    row.append(1 / self.rows[i][i])
                else:
                    s = sum(
                        (self.rows[i][k] * inv[k][j] for k in range(j, i)),
                        Fraction(0),
                    )
                    row.append(-s / self.rows[i][i])
            inv.append(row)
        return Triangle(inv)

    def apply(self, vector: Sequence[Fraction]) -> list[Fraction]:
        """Matrix times coefficient vector (vector length must be n)."""
        if len(vector) != self.n:
            raise ValueError("vector length must match matrix order")
        return [
            sum((self.rows[i][j] * vector[j] for j in range(i + 1)), Fraction(0))
            for i in range(self.n)
        ]

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
        return cls(json.loads(text))


def direct_sum_one(m: Triangle) -> Triangle:
    """[1] (+) M: a 1 in the corner, zeros bordering, M in the lower block."""
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for i, row in enumerate(m.rows):
        rows.append([Fraction(0)] + list(row))
    return Triangle(rows)
