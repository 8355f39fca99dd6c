"""Riordan group: entries three ways, group law, A/Z machinery, subgroups."""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_series_inversion, rs_series_reversion
from sympy.polys.rings import ring

from riordan import (
    AZSequences,
    C_transform,
    PrecisionError,
    RiordanError,
    RiordanPair,
    Series,
    Triangle,
    WeightSeq,
    WeightTri,
    c_transform,
    factorization_check,
    raise_order,
    reconstruct_from_az,
)
from riordan import group, series
from riordan.catalog import named_riordan, pair_spec

from conftest import random_pairs, rationals, series_strategy

PASCAL_5 = Triangle([[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1]])


def a_sequence_by_solve(ra: RiordanPair, length: int) -> list[Fraction]:
    """The A-sequence from the linear system d_{n+1,k+1} = sum a_j d_{n,k+j}.

    Independent of the t/fbar closed form; used as its oracle.  The
    system from the rows of triangle(length + 2) is triangular in the a_j
    because the diagonal entries are nonzero.
    """
    tri = ra.triangle(length + 2)
    a: list[Fraction] = []
    # Take equations along the top diagonal band: the equation at
    # (n+1, k+1) = (j+1, 1) with row n = j introduces a_j with the
    # nonzero pivot d_{j,j}.
    for j in range(length):
        n, k = j + 1, 1
        rhs = tri.entry(n, k)
        s = sum((a[i] * tri.entry(n - 1, k - 1 + i) for i in range(j)), Fraction(0))
        pivot = tri.entry(n - 1, k - 1 + j)
        a.append((rhs - s) / pivot)
    return a


def test_g0_normalization_enforced():
    with pytest.raises(RiordanError):
        RiordanPair(Series.from_coeffs([2], 4), Series.t(4))
    with pytest.raises(RiordanError):
        RiordanPair(Series.one(4), Series.from_coeffs([0, 0, 1], 4))


class TestEntries:
    def test_closed_pascal(self, pascal):
        assert pascal.entry_closed(4, 2) == 6

    def test_closed_top_corner(self, ten_pairs):
        for ra in ten_pairs.values():
            assert ra.entry_closed(0, 0) == 1

    def test_closed_catalan(self, catalan_bell):
        assert catalan_bell.entry_closed(3, 1) == 5

    def test_vertical_pascal(self, pascal):
        # f = t/(1-t) has f_j = 1 for every j >= 1
        assert pascal.entry_vertical(3, 1) == 3

    def test_vertical_diagonal_is_f1_power(self):
        ra = RiordanPair(Series.one(12), Series.from_coeffs([0, Fraction(2, 3), 1], 12))
        for k in range(6):
            assert ra.entry_vertical(k, k) == Fraction(2, 3) ** k

    def test_nested_pascal_hand_expansion(self, pascal):
        assert pascal.entry_nested(2, 1) == 2  # f_1 g_1 + f_2 g_0

    def test_nested_column_zero_is_g(self, catalan_bell):
        for n in range(6):
            assert catalan_bell.entry_nested(n, 0) == catalan_bell.g[n]

    def test_out_of_range(self, pascal):
        with pytest.raises(RiordanError):
            pascal.entry_closed(2, 3)
        with pytest.raises(RiordanError):
            pascal.entry_closed(65, 0)

    def test_one_entry_builds_no_section(self, ten_pairs, monkeypatch):
        # entry_closed builds column k alone on the kernel and entry_vertical
        # reads the integer columns, so neither makes a Triangle
        n_max = 30
        pairs = [*ten_pairs.values(), *random_pairs(3, n_max, seed=38)]
        rng = random.Random(38)
        spots = [(n, rng.randint(0, n)) for n in rng.sample(range(n_max + 1), 12)]
        spots += [(0, 0), (n_max, 0), (n_max, n_max), (n_max, 1)]
        want = [[ra.triangle(n_max + 1).rows[n][k] for n, k in spots] for ra in pairs]

        def no_triangle(*args):
            raise AssertionError("an entry built a Triangle")

        monkeypatch.setattr(Triangle, "__init__", no_triangle)
        for ra, expected in zip(pairs, want):
            fresh = RiordanPair(ra.g, ra.f)
            assert [fresh.entry_vertical(n, k) for n, k in spots] == expected
            assert [fresh.entry_closed(n, k) for n, k in spots] == expected


class TestTriangle:
    def test_pascal(self, pascal):
        assert pascal.triangle(5) == PASCAL_5

    def test_identity_array(self):
        ra = named_riordan("identity", 8)
        assert ra.triangle(4) == Triangle.identity(4)

    def test_catalan_column_zero(self, catalan_bell):
        tri = catalan_bell.triangle(5)
        assert [tri.rows[i][0] for i in range(5)] == [1, 1, 2, 5, 14]


class TestTripleOracle:
    def test_closed_equals_vertical(self, ten_pairs):
        for name, ra in ten_pairs.items():
            assert ra.triangle(41) == ra.triangle_closed(41), name

    def test_nested_agrees(self, ten_pairs):
        for name, ra in ten_pairs.items():
            tri = ra.triangle(11)
            for n in range(11):
                for k in range(n + 1):
                    assert ra.entry_nested(n, k) == tri.rows[n][k], (name, n, k)


def vertical_values(cols, dens):
    return [[Fraction(x, d) for x in col] for col, d in zip(cols, dens)]


def memo_pairs():
    """Fresh pairs, rational ones among them, so that a larger build's
    denominators differ from a smaller one's."""
    return [named_riordan("catalan_bell", 30), *random_pairs(3, 30, seed=36)]


class TestVerticalMemo:
    """_vertical builds its columns once per pair, at the largest order asked
    so far, and hands out fresh slices of them."""

    @pytest.mark.parametrize("n", [1, 2, 17, 29])
    def test_smaller_order_slices_a_larger_build(self, n):
        for ra in memo_pairs():
            ra._vertical(31)
            cols, dens = ra._vertical(n)
            fresh_cols, fresh_dens = RiordanPair(ra.g, ra.f)._vertical(n)
            assert [len(c) for c in cols] == [n - k for k in range(n)]
            assert vertical_values(cols, dens) == vertical_values(fresh_cols, fresh_dens)
            # only the values are pinned: a slice may sit over a common multiple
            assert all(d % e == 0 for d, e in zip(dens, fresh_dens, strict=True))
            assert ra.triangle(n) == ra.triangle_closed(n)

    def test_larger_order_rebuilds(self):
        for ra in memo_pairs():
            for n in (5, 20, 31, 12):
                cols, dens = ra._vertical(n)
                fresh = RiordanPair(ra.g, ra.f)._vertical(n)
                assert vertical_values(cols, dens) == vertical_values(*fresh), n
                assert ra.triangle(n) == ra.triangle_closed(n), n
            assert len(vars(ra)["_vertical_cols"][1]) == 31

    def test_mutating_a_returned_list_changes_no_later_result(self):
        for ra in memo_pairs():
            want = ra.triangle_closed(20)
            cols, dens = ra._vertical(20)
            cols[0][0] += 1
            cols[3][2] = 0
            cols[19].clear()
            cols.pop()
            dens[1] = 7
            assert ra.triangle(20) == want
            assert ra.triangle(9) == ra.triangle_closed(9)

    def test_sections_and_transforms_share_one_recursion(self, monkeypatch):
        n = 24
        fac, lag = WeightSeq.factorial(n), WeightTri.laguerre(n)
        for ra in memo_pairs():
            oracle = RiordanPair(ra.g, ra.f)
            want = [
                oracle.triangle(n),
                c_transform(oracle, fac, n),
                C_transform(oracle, lag, n),
                oracle.triangle(n - 5),
            ]
            section = ra.triangle(n)
            fac.rho, lag.rho  # the weights' own tables are not the recursion

            def recursion(*args):
                raise AssertionError("the vertical recursion ran again")

            with monkeypatch.context() as m:
                m.setattr(group, "_cleared", recursion)
                got = [
                    ra.triangle(n),
                    c_transform(ra, fac, n),
                    C_transform(ra, lag, n),
                    ra.triangle(n - 5),
                ]
                entry = ra.entry_vertical(n - 1, 3)
                assert factorization_check(ra, n) is True
            assert got == want and got[0] == section
            assert entry == want[0].rows[n - 1][3]

    @pytest.mark.parametrize("n", [1, 2, 17, 31])
    def test_columns_sit_over_their_least_denominators(self, n):
        # with each column's content divided out, its denominator is the lcm
        # of its entries' reduced denominators, no larger
        for ra in memo_pairs()[1:]:
            cols, dens = RiordanPair(ra.g, ra.f)._vertical(n)
            for col, den in zip(cols, dens, strict=True):
                assert den == lcm(*(Fraction(x, den).denominator for x in col))
        if n > 1:
            assert any(d > 1 for d in dens)

    def test_copies_carry_no_memo(self):
        for ra in memo_pairs():
            fresh = RiordanPair(ra.g, ra.f)
            before = pickle.dumps(ra)
            ra.triangle(20)
            assert "_vertical_cols" in vars(ra)
            assert pickle.dumps(ra) == before
            assert ra == fresh and hash(ra) == hash(fresh)
            for clone in copy.copy(ra), copy.deepcopy(ra), pickle.loads(before):
                assert vars(clone).keys() == {"g", "f"}
                assert clone == ra and hash(clone) == hash(ra)
                assert clone.triangle(20) == ra.triangle(20)


class TestGroupLaw:
    def test_pascal_squared(self, pascal):
        sq = pascal * pascal
        assert sq.g.agrees_with(Series.geometric(40, 2))
        assert sq.f.agrees_with(Series.geometric(40, 2).shift_up().truncate(40))

    def test_identity_element(self, catalan_bell):
        e = RiordanPair.identity(64)
        assert (catalan_bell * e).agrees_with(catalan_bell)
        assert (e * catalan_bell).agrees_with(catalan_bell)

    def test_matrix_product_oracle(self, pascal, catalan_bell):
        n = 12
        left = (pascal * catalan_bell).triangle(n)
        assert left == pascal.triangle(n) @ catalan_bell.triangle(n)

    def test_pascal_inverse(self, pascal):
        inv = pascal.inverse()
        tri = inv.triangle(6)
        for n in range(6):
            for k in range(n + 1):
                from math import comb

                assert tri.rows[n][k] == (-1) ** (n - k) * comb(n, k)
        assert (pascal * inv).triangle(8) == Triangle.identity(8)

    def test_identity_self_inverse(self):
        e = RiordanPair.identity(16)
        assert e.inverse() == e

    def test_random_inverse_round_trip(self):
        e = RiordanPair.identity(40)
        for ra in random_pairs(10, prec=40):
            assert (ra * ra.inverse()).agrees_with(e)

    def test_group_axioms_at_finite_order(self, ten_pairs):
        n = 24
        a = ten_pairs["catalan_bell"]
        b = ten_pairs["random_a"]
        assert (a * b).triangle(n) == a.triangle(n) @ b.triangle(n)
        assert a.inverse().triangle(n) == a.triangle(n).inverse()


class TestFundamentalTheorem:
    def test_binomial_transform_of_ones(self, pascal):
        out = pascal.apply(Series.geometric(64))
        assert out.agrees_with(Series.geometric(64, 2))

    def test_identity_action(self):
        e = RiordanPair.identity(10)
        h = Series.from_coeffs([1, 5, Fraction(-1, 2)], 10)
        assert e.apply(h) == h

    def test_matrix_action_oracle(self, catalan_bell):
        n = 10
        h = Series.from_coeffs([1, 1, 2, 3, 5, 8], n - 1)
        out = catalan_bell.apply(h)
        expect = catalan_bell.triangle(n).apply(list(h.coeffs))
        assert list(out.coeffs[:n]) == expect


def extract_az_by_compositions(ra):
    """Independent oracle: A = (f/t)(fbar), Z = (g(fbar) - 1) / (fbar g(fbar)).

    Composes with fbar twice, where extract_az reads A and Z off the
    powers of t/f.
    """
    fbar = ra.f.comp_inverse()
    a = ra.f.shift_down().compose(fbar.truncate(fbar.prec - 1))
    gofbar = ra.g.compose(fbar)
    num = (gofbar - Series.one(gofbar.prec)).shift_down()
    den = (fbar * gofbar).shift_down()
    return AZSequences(a, num * den.reciprocal())


@st.composite
def mismatched_pairs(draw):
    """Pairs whose g and f have independent precisions 1..8."""
    g = draw(st.lists(rationals, min_size=1, max_size=8))
    f = draw(st.integers(min_value=1, max_value=8).flatmap(
        lambda p: series_strategy(p, min_order=1)
    ))
    return RiordanPair(Series([1] + g), f)


def assert_az_equal(ra, got=None):
    got = ra.extract_az() if got is None else got
    want = extract_az_by_compositions(ra)
    assert got.a == want.a and got.a.prec == want.a.prec
    assert got.z == want.z and got.z.prec == want.z.prec
    assert ra.f.shift_down() == got.a.compose(ra.f)  # f = t A(f)


def inverse_by_composition(ra):
    """Independent oracle: (1/g(fbar), fbar), composing g with fbar."""
    fbar = ra.f.comp_inverse()
    return RiordanPair(ra.g.compose(fbar).reciprocal(), fbar)


def assert_inverse_equal(ra, got=None):
    got = ra.inverse() if got is None else got
    want = inverse_by_composition(ra)
    assert got.g == want.g and got.g.prec == want.g.prec
    assert got.f == want.f and got.f.prec == want.f.prec


class TestInverse:
    def test_matches_composition(self, ten_pairs):
        for ra in ten_pairs.values():
            assert_inverse_equal(ra)

    @given(mismatched_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_composition_random(self, ra):
        assert_inverse_equal(ra)

    @pytest.mark.parametrize("gp, fp", [(3, 9), (9, 3)])
    def test_mismatched_precisions(self, gp, fp):
        g = Series([1] + [Fraction(j + 2, 3) for j in range(gp)])
        f = Series([0, Fraction(-2, 3)] + [Fraction(j, 2) for j in range(fp - 1)])
        ra = RiordanPair(g, f)
        assert_inverse_equal(ra)
        inv = ra.inverse()
        assert (inv.g.prec, inv.f.prec) == (min(gp, fp), fp)


class TestAZSequences:
    def test_matches_two_compositions(self, ten_pairs):
        for ra in ten_pairs.values():
            assert_az_equal(ra)

    @given(mismatched_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_two_compositions_random(self, ra):
        assert_az_equal(ra)

    @pytest.mark.parametrize("gp, fp", [(5, 3), (1, 4)])
    def test_mismatched_precisions(self, gp, fp):
        g = Series([1] + [Fraction(j + 2, 3) for j in range(gp)])
        f = Series([0, Fraction(-2, 3)] + [Fraction(j, 2) for j in range(fp - 1)])
        ra = RiordanPair(g, f)
        assert_az_equal(ra)
        az = ra.extract_az()
        assert (az.a.prec, az.z.prec) == (fp - 1, min(gp, fp) - 1)

    def test_g_precision_zero_raises(self):
        ra = RiordanPair(Series([1]), Series([0, 2, 1, 1]))
        with pytest.raises(PrecisionError):
            ra.extract_az()

    def test_pascal(self, pascal):
        az = pascal.extract_az()
        assert list(az.a.coeffs[:6]) == [1, 1, 0, 0, 0, 0]
        assert list(az.z.coeffs[:6]) == [1, 0, 0, 0, 0, 0]

    def test_identity(self):
        az = RiordanPair.identity(12).extract_az()
        assert list(az.a.coeffs) == [1] + [0] * (az.a.prec)
        assert az.z.order() is None

    def test_catalan_bell_all_ones(self, catalan_bell):
        az = catalan_bell.extract_az()
        assert list(az.a.coeffs[:10]) == [1] * 10
        assert list(az.z.coeffs[:10]) == [1] * 10

    def test_a_sequence_linear_system_oracle(self, ten_pairs):
        for name, ra in ten_pairs.items():
            az = ra.extract_az()
            solved = a_sequence_by_solve(ra, 12)
            assert solved == list(az.a.coeffs[:12]), name

    def test_reconstruct_pascal(self):
        az = AZSequences(Series.from_coeffs([1, 1], 3), Series.from_coeffs([1], 3))
        assert reconstruct_from_az(az, 5) == PASCAL_5

    def test_reconstruct_identity(self):
        az = AZSequences(Series.from_coeffs([1], 4), Series.from_coeffs([0], 4))
        assert reconstruct_from_az(az, 6) == Triangle.identity(6)

    def test_reconstruct_past_precision_raises(self):
        ra = named_riordan("catalan_bell", 6)
        az = ra.extract_az()
        assert az.a.prec == az.z.prec == 5
        assert reconstruct_from_az(az, 7) == ra.triangle(7)
        with pytest.raises(PrecisionError):
            reconstruct_from_az(az, 12)

    def test_round_trip(self, ten_pairs):
        for name, ra in ten_pairs.items():
            assert reconstruct_from_az(ra.extract_az(), 20) == ra.triangle(20), name

    def test_improper_a_sequence(self):
        with pytest.raises(RiordanError):
            AZSequences(Series([0, 1]), Series([1]))


# Precisions at the edges of the Lagrange blocks, k = ceil(sqrt(p)).
BLOCK_EDGES = (1, 2, 3, 4, 5, 9, 10, 11, 16, 17, 26, 37, 49, 50)


def lagrange_test_pairs(p):
    """catalan_bell and three random pairs with f_1 != +-1, at precision p."""
    rnd = [ra for ra in random_pairs(12, 50, seed=28) if abs(ra.f[1]) != 1][:3]
    pairs = [named_riordan("catalan_bell", 50), *rnd]
    return [RiordanPair(ra.g.truncate(p), ra.f.truncate(p)) for ra in pairs]


@pytest.mark.parametrize("p", BLOCK_EDGES)
def test_lagrange_makes_no_product_by_one(monkeypatch, p):
    """inverse, extract_az and comp_inverse never hand the constant 1 to _kmul.

    Only the calls under test run with the guard; the oracles, which
    multiply by 1 freely, run after it is removed.
    """
    kmul = series._kmul

    def no_one(a, b, n):
        for v in (a, b):
            assert not (v[0] == 1 and not any(v[1:])), "product by the constant 1"
        return kmul(a, b, n)

    for ra in lagrange_test_pairs(p):
        with monkeypatch.context() as m:
            m.setattr(series, "_kmul", no_one)
            inv, az, fbar = ra.inverse(), ra.extract_az(), ra.f.comp_inverse()
        assert_inverse_equal(ra, inv)
        assert_az_equal(ra, az)
        assert fbar == inv.f and ra.f.compose(fbar) == Series.t(p)


R, X, Y = ring("x,y", QQ)


def a_sequence_by_reversion(f):
    """A = t/fbar by sympy: the series reversion of f, then a series inversion.

    Shares no code with the Lagrange routines that extract_az reads A off.
    """
    p = f.prec
    fx = sum(
        (QQ(c.numerator, c.denominator) * X**i for i, c in enumerate(f.coeffs)), R.zero
    )
    fbar_over_t = sum(
        (c * X ** (m[1] - 1) for m, c in rs_series_reversion(fx, X, p + 1, Y).items()),
        R.zero,
    )
    a = [Fraction(0)] * p
    for m, c in rs_series_inversion(fbar_over_t, X, p).items():
        a[m[0]] = Fraction(int(c.numerator), int(c.denominator))
    return a


def a_oracle_bases(p):
    """Pairs whose f has f_1 not +-1 and precision p, with a g of precision
    below (from p = 2 on) and one above p."""
    rnd = [ra for ra in random_pairs(12, 60, seed=29) if abs(ra.f[1]) != 1][:2]
    for ra in [pair_spec("1,1/2;0,2/3,1", 60), *rnd]:
        f = ra.f.truncate(p)
        yield f, [RiordanPair(ra.g.truncate(gp), f) for gp in (max(1, p // 2), p + 3)]


@pytest.mark.parametrize("p", BLOCK_EDGES)
def test_a_sequence_matches_reversion_then_inversion(p):
    for f, pairs in a_oracle_bases(p):
        assert abs(f[1]) != 1
        want = a_sequence_by_reversion(f)
        for ra in pairs:
            a = ra.extract_az().a
            assert a.prec == p - 1
            assert list(a.coeffs) == want


@pytest.mark.parametrize("p, calls", [(32, 14), (48, 17)])
def test_extract_az_makes_no_more_products_than_inverse(monkeypatch, p, calls):
    """A is read off the powers of t/f that Z needs anyway, with no product
    of its own, so extract_az costs no more _kmul calls than inverse."""
    kmul, made = series._kmul, []

    def counting(a, b, n):
        made.append(n)
        return kmul(a, b, n)

    ra = named_riordan("catalan_bell", p)
    monkeypatch.setattr(series, "_kmul", counting)
    ra.extract_az()
    az_calls = len(made)
    made.clear()
    ra.inverse()
    assert az_calls == calls
    assert az_calls <= len(made)


KMUL_CALLS = {  # catalan_bell at n = 2, 24, 48
    "compose": (2, 8, 12),
    "pair_mul": (4, 13, 19),
    "triangle_closed": (0, 23, 47),
    "raise_order": (0, 22, 46),
    "factorization_check": (0, 22, 46),
}


@pytest.mark.parametrize("op", KMUL_CALLS)
def test_column_and_power_products_through_one_routine(monkeypatch, op):
    """_kmul calls per op.  Paterson-Stockmeyer compose makes about 2 sqrt(p);
    the column ops one per column of the section, n - 1, less each product
    with a one-coefficient factor, which is a scaling: f/t at n = 2 and the
    last column of raise_order (on (g, f)_(n-1)) and factorization_check."""
    kmul, made = series._kmul, []

    def counting(a, b, n):
        made.append(n)
        return kmul(a, b, n)

    monkeypatch.setattr(series, "_kmul", counting)
    for n, calls in zip((2, 24, 48), KMUL_CALLS[op]):
        ra = named_riordan("catalan_bell", n)
        section = ra.triangle(n - 1)
        made.clear()
        {
            "compose": lambda: ra.g.compose(ra.f),
            "pair_mul": lambda: ra * ra,
            "triangle_closed": lambda: ra.triangle_closed(n),
            "raise_order": lambda: raise_order(ra, section),
            "factorization_check": lambda: factorization_check(ra, n),
        }[op]()
        assert len(made) == calls, n


def test_inverse_and_az_hand_1_over_g_to_lagrange_as_integers(monkeypatch):
    """No reduced Fraction series is built for 1/g or K and cleared again."""

    def detour(*args):
        raise AssertionError("a Fraction detour")

    for ra in lagrange_test_pairs(17):
        with monkeypatch.context() as m:
            m.setattr(Series, "reciprocal", detour)
            m.setattr(series, "_from_ints", detour)
            m.setattr(group, "_from_ints", detour, raising=False)
            inv, az = ra.inverse(), ra.extract_az()
        assert_inverse_equal(ra, inv)
        assert_az_equal(ra, az)


def z_by_series_k(ra):
    """Z as K(fbar), with K = (1 - 1/g)/t built by Series operations."""
    g = ra.g
    k = (Series.one(g.prec) - g.reciprocal()).shift_down().truncate(ra.prec - 1)
    return k.compose(ra.f.comp_inverse())


class TestZOnIntegers:
    """extract_az builds K on integers; Z must equal K(fbar) from Series ops."""

    @staticmethod
    def pair(gp, fp):
        g = Series([1] + [Fraction((-1) ** j * (j % 5 + 1), j % 3 + 1) for j in range(gp)])
        f = Series([0, Fraction(-2, 3)] + [Fraction(j % 4 - 1, 3) for j in range(fp - 1)])
        return RiordanPair(g, f)

    def test_every_precision(self):
        for p in range(1, 51):
            z, want = self.pair(p, p).extract_az().z, z_by_series_k(self.pair(p, p))
            assert z == want and z.prec == want.prec == p - 1, p

    @pytest.mark.parametrize("gp, fp", [(1, 5), (5, 1), (3, 9), (9, 3), (50, 7), (7, 50)])
    def test_mismatched_precisions(self, gp, fp):
        ra = self.pair(gp, fp)
        z, want = ra.extract_az().z, z_by_series_k(ra)
        assert z == want and z.prec == want.prec == min(gp, fp) - 1


def test_pascal_identity_vertical():
    from math import comb

    for n in range(51):
        for k in range(1, n + 1):
            assert comb(n, k) == sum(comb(n - j, k - 1) for j in range(1, n - k + 2))


class TestSubgroups:
    def test_appell(self):
        ra = named_riordan("appell", 32, "geometric")
        assert "appell" in ra.subgroups()
        assert "lagrange" not in ra.subgroups()

    def test_catalan_bell_is_1_bell(self, catalan_bell):
        assert "1-bell" in catalan_bell.subgroups()

    def test_derivative_pair(self):
        # (f', f) for f = t/(1-t); tf'/f = 1/(1-t) differs from f' = 1/(1-t)^2,
        # so this pair is derivative but not hitting-time
        geo = Series.geometric(32)
        ra = RiordanPair((geo * geo).truncate(32), geo.shift_up().truncate(32))
        labels = ra.subgroups()
        assert "derivative" in labels
        assert "hitting-time" not in labels

    def test_pascal_is_hitting_time(self, pascal):
        # t f'/f = 1/(1-t) = g for f = t/(1-t)
        assert "hitting-time" in pascal.subgroups()

    def test_checkerboard(self, ten_pairs):
        assert "checkerboard" in ten_pairs["checkerboard"].subgroups()

    def test_precision_zero(self):
        ra = RiordanPair(Series([1]), Series([0, 2, 3]))
        assert ra.prec == 0
        assert ra.subgroups() == {"lagrange", "hitting-time", "checkerboard"}


class TestSemidirectSplit:
    def test_pascal(self, pascal):
        appell, lagrange = pascal.semidirect_split()
        assert appell.g == pascal.g and appell.f.agrees_with(Series.t(64))
        assert lagrange.f == pascal.f and lagrange.g.agrees_with(Series.one(64))
        assert (appell * lagrange).agrees_with(pascal)

    def test_identity(self):
        e = RiordanPair.identity(8)
        a, l = e.semidirect_split()
        assert a == e and l == e

    def test_factor_memberships(self, ten_pairs):
        for name, ra in ten_pairs.items():
            appell, lagrange = ra.semidirect_split()
            assert "appell" in appell.subgroups(), name
            assert "lagrange" in lagrange.subgroups(), name
            assert (appell * lagrange).agrees_with(ra), name

    def test_precision_zero(self):
        ra = RiordanPair(Series([1]), Series([0, 2, 3]))
        appell, lagrange = ra.semidirect_split()
        assert (appell * lagrange).agrees_with(ra)
