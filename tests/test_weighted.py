"""Weighted Riordan classes: (c)-sequences, (C)-triangles, recursions, duality."""

import copy
import pickle
import random
from fractions import Fraction
from functools import cached_property

import pytest

from riordan import (
    C_transform,
    PrecisionError,
    RiordanPair,
    Triangle,
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
from riordan import group, series, weighted
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
        assert c.rows[-1] == (1, 1, 2, 6, 24, 120, 720)
        assert c.rows[3] == (1, 1, 2, 6)  # c_{n,k} = c_k

    def test_power_values(self):
        c = WeightSeq.power(2, 4)
        assert c.rows[-1] == (1, 2, 4, 8, 16)

    def test_rejects_bad_start(self):
        with pytest.raises(WeightError):
            WeightSeq([2, 1])

    def test_rejects_zero(self):
        with pytest.raises(WeightError):
            WeightSeq([1, 0, 1])
        with pytest.raises(WeightError):
            WeightSeq(["1", "1/0"])

    def test_power_rejects_zero_denominator_base(self):
        # the base goes through the same conversion as a list of values
        with pytest.raises(WeightError):
            WeightSeq.power("1/0", 3)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[1], [1]],
            [[1], [1, 2, 3]],
            [[1], [2, 1]],
            [[1], [1, 0]],
            [[1], [1, "1/0"]],
        ],
        ids=[
            "empty",
            "short-row",
            "long-row",
            "bad-start",
            "zero-entry",
            "zero-denominator",
        ],
    )
    def test_tri_rejects_bad_table(self, rows):
        with pytest.raises(WeightError):
            WeightTri(rows)

    def test_laguerre_triangle_weights(self):
        C = WeightTri.laguerre(4)
        # c_{n,k} = (-1)^k / (n)_k with (n)_0 = 1
        assert C.rows[3][0] == 1
        assert C.rows[3][1] == -F(1, 3)
        assert C.rows[4][2] == F(1, 12)
        assert C.rows[2][2] == F(1, 2)

    def test_from_seq_embedding(self):
        # c_{n,k} = c_k, so the triangle entry ratio c_{n,n}/c_{n,k} = c_n/c_k
        # reproduces the sequence-weighted transform
        ra = named_riordan("catalan_bell", 16)
        c = WeightSeq.factorial(12)
        C = WeightTri([c.rows[-1][: n + 1] for n in range(len(c))])
        assert C.rows == c.rows and C != c
        assert C.rho == c.rho
        # the recursions read a (c)-weight as its embedding c_{n,k} = c_k
        x = c_transform(ra, c, 12)
        y = C_transform(ra, C, 12)
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


# The formula c_transform replaced, kept as its oracle: rho(n, k) times the
# reduced entries of the vertical recursion's triangle.
ORACLE_WEIGHTS = {
    "factorial": WeightSeq.factorial,
    "power:2": lambda n: WeightSeq.power(2, n),
    "laguerre": WeightTri.laguerre,
    "signed-fractional": lambda n: WeightTri(
        [
            [1] + [F((-1) ** (i + k) * (k + 2), 2 * k + i + 1) for k in range(1, i + 1)]
            for i in range(n + 1)
        ]
    ),
}


class TestTransformOracle:
    @pytest.mark.parametrize("make", ORACLE_WEIGHTS.values(), ids=ORACLE_WEIGHTS.keys())
    def test_transform_is_rho_times_triangle(self, make):
        n = 24
        rng = random.Random(25)
        pairs = list(corpus(prec=n).values()) + [random_pair(rng, n) for _ in range(3)]
        w = make(n)
        for ra in pairs:
            for m in (1, 7, n):
                got = c_transform(ra, w, m).entries.rows
                want = ra.triangle(m).rows
                for i in range(m):
                    for k in range(i + 1):
                        assert got[i][k] == w.rho[i][k] * want[i][k], (m, i, k)

    def test_transform_shares_no_code_with_the_kernel(self, monkeypatch):
        """The transform stays on the vertical recursion, off the series kernel."""
        ra = named_riordan("catalan_bell", 16)
        weights = [WeightSeq.factorial(12), WeightTri.laguerre(12)]
        want = [c_transform(ra, w, 12).entries for w in weights]

        def kernel(*args):
            raise AssertionError("c_transform called the series kernel")

        for module in (series, group):
            for name in ("_kmul", "_to_ints"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, kernel)
        with pytest.raises(AssertionError, match="series kernel"):
            ra.triangle_closed(12)
        assert [c_transform(ra, w, 12).entries for w in weights] == want


class TestCopies:
    """Copies and pickles carry the fields; cached tables rebuild on first read."""

    @pytest.mark.parametrize(
        "weight", [WeightSeq.factorial(20), WeightTri.laguerre(20)], ids=["c", "C"]
    )
    def test_weight_state_is_its_rows(self, weight):
        before = pickle.dumps(weight)
        rho = weight.rho
        assert "rho" in vars(weight)
        assert len(pickle.dumps(weight)) == len(before)
        for clone in copy.copy(weight), copy.deepcopy(weight), pickle.loads(before):
            assert vars(clone).keys() == {"rows"}
            assert clone.rho == rho

    def test_transform_state_is_its_fields(self):
        x = c_transform(named_riordan("catalan_bell", 24), WeightSeq.factorial(20), 20)
        before = pickle.dumps(x)
        entries = [
            (horiz_recursion_C(x, n, k), vert_recursion_C(x, n, k))
            for n in range(1, 20)
            for k in range(1, n + 1)
        ]
        assert {"_d", "_d_rows", "_d_cols", "_az", "_f"} <= vars(x).keys()
        assert len(pickle.dumps(x)) == len(before)
        for clone in copy.copy(x), copy.deepcopy(x), pickle.loads(before):
            assert clone == x
            assert vars(clone).keys() == {"base", "weight", "entries"}
            assert vars(clone.weight).keys() <= {"rows", "rho"}
            assert [
                (horiz_recursion_C(clone, n, k), vert_recursion_C(clone, n, k))
                for n in range(1, 20)
                for k in range(1, n + 1)
            ] == entries


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
        # row n = x.n follows from row n-1 when the weight reaches index n
        x = generalized_rook(named_riordan("pascal", 16), 6)
        row6 = [720, 4320, 5400, 2400, 450, 36, 1]
        assert [horiz_recursion_C(x, 6, k) for k in range(7)] == row6
        assert [vert_recursion_C(x, 6, k) for k in range(1, 7)] == row6[1:]
        for n, k in [(7, 0), (7, 1), (7, 7), (9, 3)]:
            with pytest.raises(WeightError):
                horiz_recursion_C(x, n, k)
            with pytest.raises(WeightError):
                vert_recursion_C(x, n, k)
        # a weight that stops at index x.n - 1 leaves row x.n undefined
        short = c_transform(named_riordan("pascal", 16), WeightSeq.factorial(5), 6)
        assert horiz_recursion_C(short, 5, 2) == 600
        with pytest.raises(WeightError):
            horiz_recursion_C(short, 6, 2)
        with pytest.raises(WeightError):
            vert_recursion_C(short, 6, 2)
        # a weight shorter than the entries is rejected, never truncated to
        with pytest.raises(WeightError):
            WeightedTriangle(x.base, WeightSeq.factorial(3), x.entries)

    @pytest.mark.parametrize(
        "weight", [WeightSeq.factorial(12), WeightTri.laguerre(12)], ids=["c", "C"]
    )
    def test_recursions_read_the_entries(self, monkeypatch, weight):
        ra = named_riordan("catalan_bell", 16)
        x = c_transform(ra, weight, 12)
        for i, j in [(0, 0), (4, 2), (7, 7), (10, 3)]:
            rows = [list(row) for row in x.entries.rows]
            rows[i][j] += 1
            y = WeightedTriangle(ra, weight, Triangle(rows))
            n, k = i + 1, j + 1
            assert horiz_recursion_C(y, n, k) != horiz_recursion_C(x, n, k)
            assert vert_recursion_C(y, n, k) != vert_recursion_C(x, n, k)

        def raising(*args):
            raise RuntimeError("the recursions must not rebuild the triangle")

        x = c_transform(ra, weight, 12)
        monkeypatch.setattr(RiordanPair, "triangle", raising)
        monkeypatch.setattr(weighted, "c_transform", raising)
        monkeypatch.setattr(weighted, "C_transform", raising)
        for n in range(1, 12):
            for k in range(n + 1):
                assert horiz_recursion_C(x, n, k) == x.entries.entry(n, k), (n, k)
            for k in range(1, n + 1):
                assert vert_recursion_C(x, n, k) == x.entries.entry(n, k), (n, k)

    @pytest.mark.parametrize(
        "make, n",
        [
            (lambda: WeightSeq.factorial(12), 12),  # reaches row 12
            (lambda: WeightSeq.factorial(11), 12),  # stops at row 11
            (lambda: WeightTri.laguerre(12), 12),
        ],
        ids=["c", "c-short", "C"],
    )
    def test_rho_table_built_once(self, monkeypatch, make, n):
        """One rho table per weight, read by all its transforms and recursions."""
        weight = make()
        assert "rho" not in vars(weight)  # a fresh weight holds no table
        builds = []
        build = WeightTri.rho.func

        def counting(self):
            builds.append(self)
            return build(self)

        rho = cached_property(counting)
        rho.__set_name__(WeightTri, "rho")
        monkeypatch.setattr(WeightTri, "rho", rho)
        xs = [
            c_transform(named_riordan(name, 16), weight, n)
            for name in ("catalan_bell", "pascal")
        ]
        assert builds == [weight]  # the first transform builds it, the second reuses it
        top = min(len(weight), n + 1)
        for x in xs:
            for m in range(1, top):
                for k in range(m + 1):
                    horiz_recursion_C(x, m, k)
                for k in range(1, m + 1):
                    vert_recursion_C(x, m, k)
        assert builds == [weight]  # and no recursion builds it again
        table = vars(weight)["rho"]
        assert all(x.weight.rho is table for x in xs)
        assert table == tuple(
            tuple(row[i] / v for v in row) for i, row in enumerate(weight.rows)
        )
        # row n, when the weight reaches it, is the next row of the transform
        if top > n:
            y = c_transform(named_riordan("catalan_bell", 16), weight, n + 1)
            assert [horiz_recursion_C(xs[0], n, k) for k in range(n + 1)] == list(
                y.entries.rows[n]
            )

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

    def test_rejects_C_kind_with_c_rows(self):
        # a (C)-table equal to a (c)-weight's rows is still of kind "C"
        ra = named_riordan("pascal", 8)
        c = WeightSeq.factorial(4)
        x, y = c_transform(ra, c, 4), C_transform(ra, WeightTri(c.rows), 4)
        assert x.entries == y.entries
        for a, b in [(x, y), (y, x), (y, y)]:
            with pytest.raises(WeightError):
                c_group_mul(a, b)

    def test_rejects_mismatched_weights(self):
        ra = named_riordan("pascal", 8)
        a = c_transform(ra, WeightSeq.factorial(4), 4)
        b = c_transform(ra, WeightSeq.power(2, 4), 4)
        with pytest.raises(WeightError):
            c_group_mul(a, b)

    def test_rejects_mismatched_orders(self):
        ra = named_riordan("pascal", 8)
        c = WeightSeq.factorial(6)
        a, b = c_transform(ra, c, 4), c_transform(ra, c, 5)
        for x, y in [(a, b), (b, a)]:
            with pytest.raises(WeightError, match="mismatched orders"):
                c_group_mul(x, y)


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
