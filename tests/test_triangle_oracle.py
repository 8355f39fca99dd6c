"""Triangle arithmetic against oracles that share no code with it.

``RiordanPair.triangle``, ``Triangle.__matmul__``, ``inverse`` and
``apply`` run on integer numerators over cleared denominators.  Each is
compared with a plain ``Fraction`` loop written out below, one term at a
time.  Denominators up to 7, zero entries, negative and non-unit diagonals
and t-coefficients f_1 other than +-1 make the clearing, the column
denominators of the recursion and the row denominators of the inverse do
real work.  The ``Triangle`` error paths are pinned at the end.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import RiordanPair, Series, Triangle, catalog, group, matrices, series
from riordan.matrices import _solve_rows

entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
sparse = st.one_of(st.just(Fraction(0)), entry)
nonzero = entry.filter(lambda x: x != 0)
orders = st.integers(min_value=1, max_value=12)


# -- oracles ------------------------------------------------------------------

def vertical(g, f, n):
    """Rows of the n x n section, column k from column k-1 by f."""
    cols = [list(g[:n])]
    for k in range(1, n):
        prev = cols[k - 1]
        col = []
        for m in range(n):
            if m < k:
                col.append(Fraction(0))
            else:
                col.append(
                    sum(
                        (f[j] * prev[m - j] for j in range(1, m - k + 2)),
                        Fraction(0),
                    )
                )
        cols.append(col)
    return [[cols[k][i] for k in range(i + 1)] for i in range(n)]


def matmul(a, b):
    """Rows of a @ b, each entry the sum over k of a_ik b_kj."""
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(j, i + 1)), Fraction(0))
            for j in range(i + 1)
        ]
        for i in range(len(a))
    ]


def inverse(t):
    """Rows of t^-1, by forward substitution."""
    inv = []
    for i in range(len(t)):
        row = []
        for j in range(i + 1):
            if j == i:
                row.append(1 / t[i][i])
            else:
                s = sum((t[i][k] * inv[k][j] for k in range(j, i)), Fraction(0))
                row.append(-s / t[i][i])
        inv.append(row)
    return inv


def apply(t, v):
    """t times the column vector v."""
    return [
        sum((t[i][j] * v[j] for j in range(i + 1)), Fraction(0)) for i in range(len(t))
    ]


def rows(tri):
    return [list(r) for r in tri.rows]


# -- strategies ---------------------------------------------------------------

@st.composite
def triangles(draw, n, invertible=False):
    return [
        [draw(nonzero if invertible and j == i else sparse) for j in range(i + 1)]
        for i in range(n)
    ]


@st.composite
def pairs(draw):
    """(g, f, n): a pair with f_1 != +-1, precision n - 1 (at least 1)."""
    n = draw(orders)
    p = max(n - 1, 1)
    g = [Fraction(1)] + draw(st.lists(sparse, min_size=p, max_size=p))
    f1 = draw(nonzero.filter(lambda x: abs(x) != 1))
    f = [Fraction(0), f1] + draw(st.lists(sparse, min_size=p - 1, max_size=p - 1))
    return g, f, n


def seeded_pair(seed, n):
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    g = [Fraction(1)] + [coeff() for _ in range(n - 1)]
    f = [Fraction(0), Fraction(rng.choice([-5, -2, 3, 4]), 7)]
    return g, f + [coeff() for _ in range(n - 2)]


# -- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    orders.flatmap(
        lambda n: st.tuples(
            triangles(n), triangles(n), st.lists(entry, min_size=n, max_size=n)
        )
    )
)
def test_matmul_and_apply(abv):
    a, b, v = abv
    assert rows(Triangle(a) @ Triangle(b)) == matmul(a, b)
    assert Triangle(a).apply(v) == apply(a, v)


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: triangles(n, invertible=True)))
def test_inverse(t):
    assert rows(Triangle(t).inverse()) == inverse(t)
    # Each row of N^-1, for N = 420 t, comes back in lowest terms over a
    # positive denominator; a wrong sign or a missed common factor would
    # still give the right Fractions above.
    num = [[x.numerator * 420 // x.denominator for x in row] for row in t]
    n_inv = inverse([[Fraction(x) for x in row] for row in num])
    solved = list(_solve_rows(num))
    assert len(solved) == len(num)
    for (y, den), want in zip(solved, n_inv):
        assert den > 0
        assert gcd(den, *y) == 1
        assert [Fraction(v, den) for v in y] == want


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_pair_sections(pair):
    g, f, n = pair
    t = vertical(g, f, n)
    tri = RiordanPair(Series(g), Series(f)).triangle(n)
    assert rows(tri) == t
    assert rows(tri @ tri) == matmul(t, t)
    assert rows(tri.inverse()) == inverse(t)


def test_order_48():
    n = 48
    g, f = seeded_pair(1, n)
    t = vertical(g, f, n)
    tri = RiordanPair(Series(g), Series(f)).triangle(n)
    assert rows(tri) == t
    assert rows(tri @ tri) == matmul(t, t)
    assert rows(tri.inverse()) == inverse(t)
    v = [Fraction(i + 1, 7 - i % 7) for i in range(n)]
    assert tri.apply(v) == apply(t, v)


@pytest.mark.parametrize("n", [64, 128])
def test_large_sections_times_their_inverse(n):
    # past the orders the Fraction oracles above can reach: the inverse is
    # checked as the identity it must give on both sides
    for pair in (
        catalog.named_riordan("catalan_bell", n - 1),
        catalog.random_pair(random.Random(20240826), n - 1),
    ):
        section = pair.triangle(n)
        inv = section.inverse()
        assert section @ inv == Triangle.identity(n)
        assert inv @ section == Triangle.identity(n)


def test_triangle_shares_no_code_with_the_kernel(monkeypatch):
    """triangle and triangle_closed (on the kernel) are each other's oracle.

    The kernel is patched both where it is defined and where ``group``
    imports it by name.  Every listed helper must exist in ``series``, so a
    renamed one cannot escape the patch; ``group`` imports only some.
    """
    g, f = seeded_pair(2, 8)
    pair = RiordanPair(Series(g), Series(f))

    def kernel(*args):
        raise AssertionError("triangle called the series kernel")

    for name in ("_to_ints", "_from_ints", "_reduce", "_kmul", "_krecip"):
        assert hasattr(series, name), f"series has no {name}: update this list"
        monkeypatch.setattr(series, name, kernel)
        if hasattr(group, name):
            monkeypatch.setattr(group, name, kernel)
    assert rows(pair.triangle(8)) == vertical(g, f, 8)


def test_triangle_closed_shares_no_code_with_the_recursion(monkeypatch):
    """The mirror: triangle_closed clears nothing with ``matrices``.

    The helpers are patched where they are defined and where ``group``
    imports them by name; ``group`` imports only some.
    """
    g, f = seeded_pair(3, 8)
    pair = RiordanPair(Series(g), Series(f))

    def recursion(*args):
        raise AssertionError("triangle_closed called the matrix helpers")

    for name in ("_cleared", "_dot"):
        assert hasattr(matrices, name), f"matrices has no {name}: update this list"
        monkeypatch.setattr(matrices, name, recursion)
        if hasattr(group, name):
            monkeypatch.setattr(group, name, recursion)
    assert rows(pair.triangle_closed(8)) == vertical(g, f, 8)


# -- the edges of a packed product --------------------------------------------
#
# ``@`` packs each row of its right factor into one integer, a slot per
# column sized from that column's bit lengths, and unpacks each row of the
# product from one integer combination of them.

def test_matmul_order_one():
    for x, y in [(Fraction(-3, 7), Fraction(5, 2)), (Fraction(0), Fraction(-1)),
                 (Fraction(2**1000 + 1, 3), Fraction(-1)), (Fraction(1), Fraction(0))]:
        assert rows(Triangle([[x]]) @ Triangle([[y]])) == matmul([[x]], [[y]])


@pytest.mark.parametrize("n", [2, 5, 9])
def test_matmul_wide_entries_beside_narrow_ones(n):
    # entries past 1,000 bits and 1-bit entries, zeros and both signs, in
    # the same rows and columns, over small and wide denominators
    big = 2**1200 - 1
    choices = [0, 1, -1, big, -big, Fraction(1, big), Fraction(-big, 7), Fraction(3, 2)]
    rng = random.Random(n)
    for _ in range(4):
        a, b = ([[rng.choice(choices) for _ in range(i + 1)] for i in range(n)]
                for _ in range(2))
        assert rows(Triangle(a) @ Triangle(b)) == matmul(a, b)
        assert rows(Triangle(b) @ Triangle(a)) == matmul(b, a)
    # one wide column among narrow ones, and one wide row
    a = [[big if j == 1 else 1 for j in range(i + 1)] for i in range(n)]
    b = [[-big if i == n - 1 else -1 for j in range(i + 1)] for i in range(n)]
    assert rows(Triangle(a) @ Triangle(b)) == matmul(a, b)
    assert rows(Triangle(b) @ Triangle(a)) == matmul(b, a)


@pytest.mark.parametrize(
    "n, bits_a, bits_b", [(7, 6, 6), (7, 6, 7), (15, 1001, 1002), (15, 1001, 1003), (1, 3, 3)]
)
def test_matmul_sums_reach_the_slot_bound(n, bits_a, bits_b):
    # Every entry of a is +-(2^bits_a - 1) and of b +-(2^bits_b - 1), and
    # n = 2^m - 1, so slot 0 of row n - 1 sums n products as large as
    # those bit lengths allow.  Its width, bits_a + bits_b + m and a sign
    # bit, is a whole number of bytes, so the slot has no spare bit, or
    # one bit more, so a slot one bit short would be a byte narrower.
    # Both signs, and columns of alternating sign, so that neighbouring
    # slots differ in sign.
    assert (bits_a + bits_b + n.bit_length() + 1) % 8 in (0, 1)
    x, y = 2**bits_a - 1, 2**bits_b - 1
    for sa in (1, -1):
        for alternate in (False, True):
            a = [[sa * x for _ in range(i + 1)] for i in range(n)]
            b = [[y * (-1) ** (j * alternate) for j in range(i + 1)] for i in range(n)]
            want = matmul(a, b)
            assert abs(want[-1][0]) == n * x * y
            assert rows(Triangle(a) @ Triangle(b)) == want


def test_matmul_shares_no_code_with_the_kernel(monkeypatch):
    """``@`` is the pair law's oracle, so it packs with its own code.

    The kernel is patched where it is defined and wherever ``matrices``
    imports it by name.
    """
    g, f = seeded_pair(4, 8)
    t = vertical(g, f, 8)
    other = [[x * 3 for x in row] for row in t]

    def kernel(*args):
        raise AssertionError("@ called the series kernel")

    for name in ("_to_ints", "_from_ints", "_reduce", "_kmul", "_krecip"):
        assert hasattr(series, name), f"series has no {name}: update this list"
        monkeypatch.setattr(series, name, kernel)
        if hasattr(matrices, name):
            monkeypatch.setattr(matrices, name, kernel)
    assert rows(Triangle(t) @ Triangle(other)) == matmul(t, other)


# -- error paths --------------------------------------------------------------

def test_inverse_names_first_zero_diagonal():
    t = Triangle([[2], [1, 0], [1, 1, 3], [5, 1, 1, 0]])
    with pytest.raises(ValueError, match=r"zero diagonal entry at 1$"):
        t.inverse()


def test_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
        Triangle.identity(2) @ Triangle.identity(3)
    with pytest.raises(ValueError, match="vector length"):
        Triangle.identity(2).apply([1, 2, 3])


def test_order_one_round_trip():
    t = Triangle([[Fraction(-3, 7)]])
    inv = t.inverse()
    assert inv == Triangle([[Fraction(-7, 3)]])
    assert t @ inv == inv @ t == Triangle.identity(1)
    assert inv.inverse() == t
