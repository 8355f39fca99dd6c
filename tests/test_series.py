"""Series arithmetic: spec examples, ring axioms, and inversion oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import (
    CompositionError,
    NoCompositionalInverseError,
    NotAUnitError,
    PrecisionError,
    Series,
    series,
)
from riordan.catalog import catalan_series, fuss_series
from riordan.series import _frac, _kmul, _powers, _to_ints

from conftest import series_strategy, unit_series


def S(*coeffs, prec=None):
    if prec is None:
        return Series([Fraction(c) for c in coeffs])
    return Series.from_coeffs([Fraction(c) for c in coeffs], prec)


class TestAdd:
    def test_cancellation(self):
        assert S(1, 1, prec=4) + S(1, -1, prec=4) == S(2, prec=4)

    def test_additive_identity(self):
        a = S(3, "1/2", -2)
        assert Series.zero(2) + a == a

    def test_hand_sum(self):
        assert S(1, 2, 3) + S(0, 1, 1) == S(1, 3, 4)

    def test_min_precision(self):
        assert (S(1, 1, 1, 1) + S(1, 1)).prec == 1


class TestMul:
    def test_catalan_square(self):
        c = catalan_series(4)
        sq = c * c
        # brute-force convolution of 1,1,2,5,14 with itself
        expect = [
            sum(c.coeffs[j] * c.coeffs[n - j] for j in range(n + 1))
            for n in range(5)
        ]
        assert list(sq.coeffs) == expect
        assert expect[:4] == [1, 2, 5, 14]

    def test_multiplicative_identity(self):
        a = S(2, -1, "1/3")
        assert a * Series.one(2) == a

    def test_geometric_reciprocal_product(self):
        one_minus_t = S(1, -1, prec=10)
        assert one_minus_t * Series.geometric(10) == Series.one(10)


class TestOrder:
    def test_order_zero(self):
        assert S(1, 1).order() == 0

    def test_order_two(self):
        assert S(0, 0, 1, 1).order() == 2

    def test_zero_series_marker(self):
        assert Series.zero(10).order() is None


class TestReciprocal:
    def test_geometric(self):
        assert S(1, -1, prec=12).reciprocal() == Series.geometric(12)

    def test_one(self):
        assert Series.one(5).reciprocal() == Series.one(5)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            Series.t(5).reciprocal()


class TestCompose:
    def test_pascal_row_sums(self):
        # 1/(1-t) at t/(1-t) is (1-t)/(1-2t); times 1/(1-t) gives 1/(1-2t)
        h = Series.geometric(12)
        f = Series.geometric(12).shift_up().truncate(12)
        assert (h * h.compose(f)).agrees_with(Series.geometric(12, 2))

    def test_identity_composition(self):
        h = S(1, 2, 3, 4)
        assert h.compose(Series.t(3)) == h

    def test_catalan_at_t_one_minus_t(self):
        c = catalan_series(16)
        f = S(0, 1, -1, prec=16)
        composed = c.compose(f)
        assert S(1, -1, prec=16) * composed == Series.one(16)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(CompositionError):
            S(1, 1).compose(S(1, 1))

    def test_no_product_that_is_zero_by_order(self, monkeypatch):
        # f = t^4 + t^5 at precision 9: f^2 = t^8 + 2 t^9 + ... is the one
        # product; f^3, f^4 and every Horner step by F = f^4 are zero by
        # order, and 1 + f + f^2 is the whole answer.
        made = []

        def counting(a, b, k):
            made.append(k)
            return _kmul(a, b, k)

        monkeypatch.setattr(series, "_kmul", counting)
        h, f = Series([1] * 10), Series([0, 0, 0, 0, 1, 1, 0, 0, 0, 0])
        assert h.compose(f) == Series([1, 0, 0, 0, 1, 1, 0, 0, 1, 2])
        assert len(made) == 1


class TestCompInverse:
    def test_mobius(self):
        f = Series.geometric(16).shift_up().truncate(16)  # t/(1-t)
        fbar = f.comp_inverse()
        # t/(1+t) has coefficients 0, 1, -1, 1, -1, ...
        assert list(fbar.coeffs[:5]) == [0, 1, -1, 1, -1]
        assert f.compose(fbar).agrees_with(Series.t(16))

    def test_identity(self):
        assert Series.t(8).comp_inverse() == Series.t(8)

    def test_catalan_bell_inverse(self):
        f = catalan_series(16).shift_up().truncate(16)  # t C(t)
        assert f.comp_inverse() == S(0, 1, -1, prec=16)  # t(1-t)

    def test_wrong_order_rejected(self):
        with pytest.raises(NoCompositionalInverseError):
            S(1, 1).comp_inverse()
        with pytest.raises(NoCompositionalInverseError):
            S(0, 0, 1, prec=5).comp_inverse()

    @pytest.mark.parametrize("c", [0, 5])
    def test_precision_zero_names_comp_inverse(self, c):
        # the order of a precision-0 series is unknown, whatever its constant
        with pytest.raises(PrecisionError, match="comp_inverse"):
            Series([c]).comp_inverse()


def test_zero_denominator_is_a_value_error():
    # malformed input, like the unparsable entry of Series(["x"])
    builds = [
        lambda: Series(["1/0"]),
        lambda: Series.from_coeffs(["1", "1/0"], 3),
        lambda: Series.geometric(3, "1/0"),
        lambda: Series([1]).scale("1/0"),
        lambda: Series(["x"]),
    ]
    for build in builds:
        with pytest.raises(ValueError):
            build()


def test_frac_is_the_reduced_fraction():
    # _frac writes Fraction's two slots itself, so a Python whose Fraction
    # stores anything else must fail here, not hand out broken entries
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    big = 3**200 * 2**70
    pairs = [(6, 4), (-6, 4), (6, -4), (-6, -4), (0, 5), (0, -5), (7, 1), (7, -1),
             (-7, -1), (1, 1), (big, 2**90 * 5), (-big - 1, big * 3), (big, -(2**64 + 1))]
    for n, d in pairs:
        x, want = _frac(n, d), Fraction(n, d)
        assert type(x) is Fraction
        assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
        assert x == want and hash(x) == hash(want) and repr(x) == repr(want)
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    for n in (0, 1, -big):
        with pytest.raises(ZeroDivisionError):
            _frac(n, 0)


class TestTruncate:
    def test_basic(self):
        assert S(1, 1, 1).truncate(1) == S(1, 1)

    def test_full_precision_is_identity(self):
        a = S(1, 2, 3)
        assert a.truncate(2) == a

    def test_shifted_geometric_truncation(self):
        g = Series.geometric(8)
        tail = (g - Series.one(8)).shift_down().truncate(2)
        assert tail == S(1, 1, 1)

    def test_insufficient_precision(self):
        with pytest.raises(PrecisionError):
            S(1, 1).truncate(5)


# -- randomized algebraic properties -----------------------------------------

@given(a=series_strategy(12), b=series_strategy(12), c=series_strategy(12))
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=unit_series(16))
@settings(max_examples=60)
def test_reciprocal_round_trip(a):
    assert a * a.reciprocal() == Series.one(16)


@given(h=series_strategy(10), f=series_strategy(10, min_order=1),
       g=series_strategy(10, min_order=1))
@settings(max_examples=40)
def test_composition_associativity(h, f, g):
    assert h.compose(f).compose(g) == h.compose(f.compose(g))


@given(f=series_strategy(24, min_order=1))
@settings(max_examples=25, deadline=None)
def test_comp_inverse_round_trip(f):
    fbar = f.comp_inverse()
    t = Series.t(24)
    assert f.compose(fbar) == t
    assert fbar.compose(f) == t


def lagrange_inversion(f: Series) -> Series:
    """Independent oracle: fbar_n = (1/n) [t^{n-1}] (t/f)^n."""
    p = f.prec
    t_over_f = f.shift_down().reciprocal()
    out = [Fraction(0)]
    power = Series.one(p - 1)
    for n in range(1, p + 1):
        power = power * t_over_f
        out.append(power[n - 1] / n)
    return Series(out)


@given(f=series_strategy(12, min_order=1))
@settings(max_examples=30)
def test_comp_inverse_matches_lagrange_inversion(f):
    assert f.comp_inverse() == lagrange_inversion(f)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fuss_functional_equation(m):
    fm = fuss_series(m, 40)
    power = Series.one(40)
    for _ in range(m):
        power = power * fm
    assert fm == Series.one(40) + power.shift_up().truncate(40)


def fraction_powers(x: list[Fraction], m: int, n: int) -> list[list[Fraction]]:
    """x^0..x^m to n coefficients, each the product of the one before and x,
    coefficient by coefficient on plain Fractions."""
    pows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for _ in range(m):
        prev = pows[-1]
        pows.append([sum(prev[i] * x[j - i] for i in range(j + 1)) for j in range(n)])
    return pows


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize(
    "x",
    [
        [3, 0, -2, 5, 0, 1, -7],
        ["-2/3", 0, "5/4", "-1/6", 0, "7/2", "1/9"],
    ],
    ids=["integer", "rational"],
)
def test_power_table_is_reduced_truncated_and_squares_even_powers(monkeypatch, x, n):
    """_powers(x, m, n) is x^0..x^m, each its first n coefficients as reduced
    (numerators, den), x^1 included; of its m - 1 products, the floor(m/2)
    for the even powers are squares, one operand passed twice."""
    x = [Fraction(c) for c in x]
    cleared = _to_ints(x)
    made = []

    def counting(a, b, k):
        made.append(a is b)
        return _kmul(a, b, k)

    monkeypatch.setattr(series, "_kmul", counting)
    for m in range(10):
        made.clear()
        table = _powers(cleared, m, n)
        assert len(made) == max(m - 1, 0), m
        assert sum(made) == m // 2, m
        assert len(table) == m + 1
        for j, ((nums, den), want) in enumerate(zip(table, fraction_powers(x, m, n))):
            assert len(nums) == n, (m, j)
            assert den > 0 and math.gcd(den, *nums) == 1, (m, j)
            assert [Fraction(c, den) for c in nums] == want, (m, j)
    a = cleared[0]
    assert _kmul(a, a, n) == _kmul(a, list(a), n)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 9])
def test_power_table_makes_no_product_that_is_zero_by_order(monkeypatch, order):
    """x^j has order j order(x): past n - 1 it is zero and no product is
    made for it, and the table is x^0..x^m all the same (order 9: x = 0)."""
    n = 9
    x = [Fraction(0)] * order + [Fraction(c, 3) for c in (2, -1, 5, 1, 0, 4, -2, 1, 7)]
    x = x[:n]
    made = []

    def counting(a, b, k):
        made.append(k)
        return _kmul(a, b, k)

    monkeypatch.setattr(series, "_kmul", counting)
    for m in range(10):
        made.clear()
        table = _powers(_to_ints(x), m, n)
        assert len(made) == sum(1 for j in range(2, m + 1) if j * order < n), m
        for j, ((nums, den), want) in enumerate(zip(table, fraction_powers(x, m, n))):
            assert [Fraction(c, den) for c in nums] == want, (m, j)
