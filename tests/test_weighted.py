"""Weighted Riordan classes: (c)-sequences, (C)-triangles, recursions, duality."""

import random
from fractions import Fraction

import pytest

from riordan import (
    C_transform,
    PrecisionError,
    WeightError,
    WeightSeq,
    WeightTri,
    WeightedTriangle,
    c_group_mul,
    c_transform,
    generalized_laguerre,
    generalized_rook,
    horiz_recursion_C,
    rook_laguerre_duality,
    vert_recursion_C,
)
from riordan.catalog import corpus, named_riordan, random_pair

F = Fraction

ROOK_ROWS = [
    [1],
    [1, 1],
    [2, 4, 1],
    [6, 18, 9, 1],
    [24, 96, 72, 16, 1],
    [120, 600, 600, 200, 25, 1],
]

LAGUERRE_ROWS = [
    [1],
    [-1, 1],
    [F(1, 2), -2, 1],
    [F(-1, 6), F(3, 2), -3, 1],
    [F(1, 24), F(-2, 3), 3, -4, 1],
    [F(-1, 120), F(5, 24), F(-5, 3), 5, -5, 1],
]


class TestWeights:
    def test_factorial_values(self):
        c = WeightSeq.factorial(6)
        assert [c[i] for i in range(7)] == [1, 1, 2, 6, 24, 120, 720]

    def test_power_values(self):
        c = WeightSeq.power(2, 4)
        assert [c[i] for i in range(5)] == [1, 2, 4, 8, 16]

    def test_reciprocal(self):
        c = WeightSeq.factorial(4).reciprocal()
        assert c[3] == F(1, 6)

    def test_rejects_bad_start(self):
        with pytest.raises(WeightError):
            WeightSeq([2, 1])

    def test_rejects_zero(self):
        with pytest.raises(WeightError):
            WeightSeq([1, 0, 1])

    @pytest.mark.parametrize(
        "rows",
        [[], [[1], [1]], [[1], [1, 2, 3]], [[1], [2, 1]], [[1], [1, 0]]],
        ids=["empty", "short-row", "long-row", "bad-start", "zero-entry"],
    )
    def test_tri_rejects_bad_table(self, rows):
        with pytest.raises(WeightError):
            WeightTri(rows)

    def test_laguerre_triangle_weights(self):
        C = WeightTri.laguerre(4)
        # c_{n,k} = (-1)^k / (n)_k with (n)_0 = 1
        assert C.at(3, 0) == 1
        assert C.at(3, 1) == -F(1, 3)
        assert C.at(4, 2) == F(1, 12)
        assert C.at(2, 2) == F(1, 2)

    def test_from_seq_embedding(self):
        # c_{n,k} = c_k, so the triangle entry ratio c_{n,n}/c_{n,k} = c_n/c_k
        # reproduces the sequence-weighted transform
        c = WeightSeq.factorial(4)
        C = WeightTri.from_seq(c)
        for n in range(5):
            for k in range(n + 1):
                assert C.at(n, k) == c[k]
        # the recursions read a (c)-weight as its embedding c_{n,k} = c_k
        ra = named_riordan("catalan_bell", 16)
        c = WeightSeq.factorial(12)
        x = c_transform(ra, c, 12)
        y = C_transform(ra, WeightTri.from_seq(c), 12)
        assert x.entries == y.entries
        for n in range(1, 12):
            for k in range(n + 1):
                assert horiz_recursion_C(x, n, k) == horiz_recursion_C(y, n, k), (n, k)
            for k in range(1, n + 1):
                assert vert_recursion_C(x, n, k) == vert_recursion_C(y, n, k), (n, k)


class TestTransforms:
    def test_rook_matrix(self):
        x = generalized_rook(named_riordan("pascal", 16), 6)
        assert [list(r) for r in x.entries.rows] == ROOK_ROWS

    def test_laguerre_matrix(self):
        x = generalized_laguerre(named_riordan("pascal", 16), 6)
        assert [list(r) for r in x.entries.rows] == LAGUERRE_ROWS

    def test_trivial_weight_is_unweighted(self):
        ra = named_riordan("catalan_bell", 16)
        x = c_transform(ra, WeightSeq.power(1, 10), 10)
        assert x.entries == ra.triangle(10)

    def test_power_weight_row(self):
        # weight 2^n multiplies d_{n,k} by 2^{n-k}
        x = c_transform(named_riordan("pascal", 8), WeightSeq.power(2, 4), 4)
        assert list(x.entries.rows[2]) == [4, 4, 1]

    def test_kind_labels(self):
        ra = named_riordan("pascal", 8)
        assert c_transform(ra, WeightSeq.factorial(4), 4).kind == "c"
        assert C_transform(ra, WeightTri.laguerre(4), 4).kind == "C"

    def test_short_weight_rejected(self):
        ra = named_riordan("pascal", 16)
        with pytest.raises(WeightError):
            c_transform(ra, WeightSeq.factorial(3), 10)


class TestRecursions:
    def test_rook_horizontal_spot(self):
        x = generalized_rook(named_riordan("pascal", 16), 6)
        assert horiz_recursion_C(x, 4, 2) == 72
        assert horiz_recursion_C(x, 5, 0) == 120

    def test_rook_vertical_spot(self):
        x = generalized_rook(named_riordan("pascal", 16), 6)
        assert vert_recursion_C(x, 2, 1) == 4
        assert vert_recursion_C(x, 5, 3) == 200

    def test_laguerre_horizontal_spot(self):
        x = generalized_laguerre(named_riordan("pascal", 16), 6)
        assert horiz_recursion_C(x, 4, 2) == 3
        assert horiz_recursion_C(x, 5, 0) == F(-1, 120)

    def test_laguerre_vertical_spot(self):
        x = generalized_laguerre(named_riordan("pascal", 16), 6)
        assert vert_recursion_C(x, 2, 1) == -2

    @pytest.mark.parametrize("name", ["pascal", "catalan_bell", "fuss_bell"])
    @pytest.mark.parametrize(
        "weight",
        [WeightSeq.factorial(20), WeightSeq.power(2, 20)],
        ids=["factorial", "power2"],
    )
    def test_c_recursions_match_transform(self, name, weight):
        param = "3" if name == "fuss_bell" else None
        x = c_transform(named_riordan(name, 32, param), weight, 20)
        for n in range(1, 20):
            for k in range(n + 1):
                assert horiz_recursion_C(x, n, k) == x.entries.rows[n][k], (n, k)
            for k in range(1, n + 1):
                assert vert_recursion_C(x, n, k) == x.entries.rows[n][k], (n, k)

    @pytest.mark.parametrize("name", ["pascal", "catalan_bell"])
    def test_C_recursions_match_transform(self, name):
        x = C_transform(named_riordan(name, 32), WeightTri.laguerre(20), 20)
        for n in range(1, 20):
            for k in range(n + 1):
                assert horiz_recursion_C(x, n, k) == x.entries.rows[n][k], (n, k)
            for k in range(1, n + 1):
                assert vert_recursion_C(x, n, k) == x.entries.rows[n][k], (n, k)

    def test_row_zero_not_defined(self):
        x = generalized_rook(named_riordan("pascal", 8), 4)
        with pytest.raises(WeightError):
            horiz_recursion_C(x, 0, 0)
        with pytest.raises(WeightError):
            vert_recursion_C(x, 3, 0)

    def test_az_past_precision_raises(self):
        # catalan_bell has A = Z = 1/(1-t); reading them as zero past
        # their precision would give a wrong entry, not an error
        x = generalized_rook(named_riordan("catalan_bell", 11), 12)
        short = WeightedTriangle(named_riordan("catalan_bell", 6), x.weight, x.entries)
        for n in range(1, 7):
            assert horiz_recursion_C(short, n, 0) == x.entries.rows[n][0]
        with pytest.raises(PrecisionError):
            horiz_recursion_C(short, 11, 0)


class TestCGroup:
    def test_identity_element(self):
        c = WeightSeq.factorial(16)
        e = c_transform(named_riordan("identity", 24), c, 16)
        x = c_transform(named_riordan("pascal", 24), c, 16)
        assert c_group_mul(e, x).entries == x.entries
        assert c_group_mul(x, e).entries == x.entries

    def test_homomorphism(self):
        # the weighting is D -> W D W^-1, so products of transforms are
        # transforms of products
        rng = random.Random(41)
        c = WeightSeq.power(3, 16)
        for _ in range(4):
            a = random_pair(rng, 24)
            b = random_pair(rng, 24)
            lhs = c_group_mul(c_transform(a, c, 16), c_transform(b, c, 16))
            rhs = c_transform(a * b, c, 16)
            assert lhs.entries.rows == rhs.entries.rows

    def test_inverse_via_base(self):
        c = WeightSeq.factorial(16)
        ra = named_riordan("pascal", 24)
        prod = c_group_mul(c_transform(ra, c, 16), c_transform(ra.inverse(), c, 16))
        e = c_transform(named_riordan("identity", 24), c, 16)
        assert prod.entries.rows == e.entries.rows

    def test_rejects_C_kind(self):
        ra = named_riordan("pascal", 8)
        x = C_transform(ra, WeightTri.laguerre(4), 4)
        with pytest.raises(WeightError):
            c_group_mul(x, x)

    def test_rejects_mismatched_weights(self):
        ra = named_riordan("pascal", 8)
        a = c_transform(ra, WeightSeq.factorial(4), 4)
        b = c_transform(ra, WeightSeq.power(2, 4), 4)
        with pytest.raises(WeightError):
            c_group_mul(a, b)


class TestGeneralized:
    def test_catalan_rook_entry(self):
        x = generalized_rook(named_riordan("catalan_bell", 16), 4)
        assert x.entries.rows[3][1] == 30

    def test_catalan_laguerre_diagonal(self):
        x = generalized_laguerre(named_riordan("catalan_bell", 16), 5)
        assert all(x.entries.rows[n][n] == 1 for n in range(5))

    def test_duality_on_symmetric_base(self):
        assert rook_laguerre_duality(named_riordan("pascal", 24), 12)

    def test_duality_fails_off_symmetric_base(self):
        # the dual pairing compares d_{m, m-k} with d_{m, k}; the Catalan
        # Bell triangle is not row-symmetric, so the pairing breaks
        assert not rook_laguerre_duality(named_riordan("catalan_bell", 16), 6)
