"""The series kernel against oracles that share no code with it.

Each of ``Series.__mul__``, ``reciprocal``, ``compose``, ``comp_inverse``,
the Paterson-Stockmeyer routine ``_compose`` behind ``compose`` and the pair
product, and the Lagrange-Buermann routines ``_lagrange_powers`` and
``_lagrange_read`` behind ``comp_inverse`` is compared with a schoolbook
``Fraction`` computation written out below, one coefficient at a time, with
sympy's ``ring_series`` (``rs_series_inversion``, ``rs_subs``,
``rs_series_reversion``), or with both. ``_compose`` is also checked against
the Horner composition it replaced, kept below as ``horner_compose``; that
one runs on the same integer helpers, so the schoolbook sum stays the
independent check.
The one-pass reciprocal recurrence ``_krecip`` is checked against the
Newton iteration it replaced, kept below as ``newton_reciprocal``; Newton
builds 1/a from Kronecker products and shares no formula with it, whereas
the schoolbook ``recip`` solves the same recurrence over ``Fraction``.
``RiordanPair.triangle_closed``, the shifted integer chain g*(f/t)^k, is
checked the same way against the ``Series`` product chain it replaced,
kept below as ``product_chain``; the vertical recursion in
``test_triangle_oracle`` is its independent check.
Denominators up to 3 and t-coefficients other than +-1 make the kernel's
common denominators and content reduction do real work.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_series_inversion, rs_series_reversion, rs_subs
from sympy.polys.rings import ring

from riordan import PrecisionError, RiordanPair, Series, group
from riordan.catalog import named_riordan
from riordan.series import (
    _compose,
    _from_ints,
    _kmul,
    _krecip,
    _lagrange_powers,
    _lagrange_read,
    _reduce,
    _to_ints,
)

R, X, Y = ring("x,y", QQ)

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
nonzero = coeff.filter(lambda c: c != 0)
precs = st.integers(min_value=0, max_value=9)


# -- oracles ------------------------------------------------------------------

def conv(a, b, n):
    """First n coefficients of the product, by the convolution sum."""
    out = []
    for m in range(n):
        s = Fraction(0)
        for j in range(m + 1):
            if j < len(a) and m - j < len(b):
                s += a[j] * b[m - j]
        out.append(s)
    return out


def recip(a):
    """1/a from a * r = 1, solved for r_0, r_1, ... in turn."""
    r = [1 / a[0]]
    for m in range(1, len(a)):
        s = sum((a[j] * r[m - j] for j in range(1, m + 1)), Fraction(0))
        r.append(-s / a[0])
    return r


def newton_reciprocal(a, n):
    """(r, e) with r / e the first n coefficients of 1 / a; a[0] != 0.

    Newton iteration r <- r (2 - a r), which doubles the number of correct
    coefficients with two products per step.
    """
    r, e = [1], a[0]
    m = 1
    while m < n:
        m = min(2 * m, n)
        t = [-c for c in _kmul(a, r, m)]
        t[0] += 2 * e
        r, e = _reduce(_kmul(r, t, m), e * e)
    return r, e


def compose(h, f):
    """sum_n h_n f^n, with the powers of f built by convolution."""
    n = min(len(h), len(f))
    out = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for hn in h[:n]:
        out = [o + hn * c for o, c in zip(out, power)]
        power = conv(power, f, n)
    return out


def horner_compose(h, f):
    """h(f) by Horner in f on the integer kernel, one product per coefficient.

    Before the step that adds h_n, the accumulator is still to be
    multiplied by f n more times, so only the first p + 1 - n coefficients
    of f can reach the result.
    """
    p = min(h.prec, f.prec)
    c, dh = _to_ints(h.coeffs[: p + 1])
    fn, df = _to_ints(f.coeffs[: p + 1])
    acc, den = [c[p]], 1
    for n in range(p - 1, -1, -1):
        acc = _kmul(acc, fn, p + 1 - n)
        den *= df
        acc[0] += c[n] * den
        acc, den = _reduce(acc, den)
    return _from_ints(acc, den * dh)


def product_chain(pair, n):
    """Rows of the n x n section from the columns g, g*f, g*f^2, ...

    One full ``Series`` product per column, each n coefficients long.
    """
    col = pair.g.truncate(n - 1)
    f = pair.f.truncate(n - 1)
    cols = [col]
    for _ in range(1, n):
        col = col * f
        cols.append(col)
    return [[cols[k][i] for k in range(i + 1)] for i in range(n)]


def comp_inverse(f):
    """fbar from f(fbar(t)) = t, solved for fbar_1, fbar_2, ... in turn.

    With fbar known through t^(m-1), the t^m coefficient of f(fbar) is
    f_1 * fbar_m plus terms in the known coefficients.
    """
    n = len(f)
    fbar = [Fraction(0)] * n
    if n > 1:
        fbar[1] = 1 / f[1]
    for m in range(2, n):
        known = compose(f, fbar[:m] + [Fraction(0)] * (n - m))
        fbar[m] = -known[m] / f[1]
    return fbar


# -- sympy --------------------------------------------------------------------

def to_ring(coeffs, var):
    return sum(
        (QQ(c.numerator, c.denominator) * var**i for i, c in enumerate(coeffs)),
        R.zero,
    )


def from_ring(poly, var_index, n):
    out = [Fraction(0)] * n
    for monom, c in poly.items():
        assert sum(monom) == monom[var_index] < n
        out[monom[var_index]] = Fraction(int(c.numerator), int(c.denominator))
    return out


# -- strategies ---------------------------------------------------------------

@st.composite
def series(draw, prec=None, first=coeff):
    p = draw(precs) if prec is None else prec
    return [draw(first)] + draw(st.lists(coeff, min_size=p, max_size=p))


@st.composite
def order_one(draw):
    p = draw(st.integers(min_value=1, max_value=9))
    return [Fraction(0), draw(nonzero)] + draw(
        st.lists(coeff, min_size=p - 1, max_size=p - 1)
    )


no_constant = precs.flatmap(lambda p: series(prec=p, first=st.just(Fraction(0))))


def catalan_like(rng, n, den):
    """Unit series with mixed signs and denominators dividing den."""
    return [Fraction(1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n - 1)
    ]


# -- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(series(), series())
def test_mul(a, b):
    n = min(len(a), len(b))
    assert list((Series(a) * Series(b)).coeffs) == conv(a, b, n)


@settings(max_examples=60, deadline=None)
@given(series(first=nonzero))
def test_reciprocal(a):
    got = list(Series(a).reciprocal().coeffs)
    assert got == recip(a)
    assert got == from_ring(rs_series_inversion(to_ring(a, X), X, len(a)), 0, len(a))


@settings(max_examples=60, deadline=None)
@given(series(), no_constant)
def test_compose(h, f):
    n = min(len(h), len(f))
    got = list(Series(h).compose(Series(f)).coeffs)
    assert got == compose(h, f)
    assert got == from_ring(rs_subs(to_ring(h, X), {X: to_ring(f, X)}, X, n), 0, n)


@settings(max_examples=60, deadline=None)
@given(order_one())
def test_comp_inverse(f):
    n = len(f)
    got = list(Series(f).comp_inverse().coeffs)
    assert got == comp_inverse(f)
    assert got == from_ring(rs_series_reversion(to_ring(f, X), X, n, Y), 1, n)


@pytest.mark.parametrize("a0", [1, -1, 2, -3, 12])
def test_krecip_orders_1_to_50(a0):
    """The recurrence equals Newton's iteration at every n = 1 to 50.

    One input is integer with constant term a0; the other is cleared from
    coefficients with denominators up to 3 and constant term a0 / 2, so
    its cleared constant term is a0 / 2 times the common denominator.  Both
    have zeros at t^1, at every fourth power and in a run t^10..t^14.
    """
    rng = random.Random(300 + a0)
    zero = {1, *range(4, 50, 4), *range(10, 15)}
    ints = [a0] + [0 if i in zero else rng.randint(-9, 9) for i in range(1, 50)]
    fracs = [Fraction(a0, 2)] + [
        Fraction(0) if i in zero else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        for i in range(1, 50)
    ]
    for a in (ints, _to_ints(fracs)[0]):
        for n in range(1, 51):
            r, e = _krecip(a, n)
            want, d = newton_reciprocal(a, n)
            assert [Fraction(x, e) for x in r] == [Fraction(x, d) for x in want], n


def test_precision_zero_and_one():
    a = [Fraction(-2, 3)]
    assert list((Series(a) * Series(a)).coeffs) == [Fraction(4, 9)]
    assert list(Series(a).reciprocal().coeffs) == [Fraction(-3, 2)]
    assert list(Series(a).compose(Series([0])).coeffs) == a
    with pytest.raises(PrecisionError):  # order unknown: 1 or more
        Series([0]).comp_inverse()
    f = [Fraction(0), Fraction(-3, 2)]
    assert list(Series(f).comp_inverse().coeffs) == [0, Fraction(-2, 3)]
    assert list(Series([1, 5]).compose(Series(f)).coeffs) == [1, Fraction(-15, 2)]


@pytest.mark.parametrize("seed", [1, 2])
def test_precision_48(seed):
    rng = random.Random(seed)
    n = 49
    g = catalan_like(rng, n, 3)
    h = catalan_like(rng, n, 3)
    f = [Fraction(0), Fraction(rng.choice([-3, -2, 2, 3]), 3)] + catalan_like(
        rng, n - 2, 3
    )
    assert list((Series(g) * Series(h)).coeffs) == conv(g, h, n)
    assert list(Series(g).reciprocal().coeffs) == recip(g)
    assert list(Series(g).compose(Series(f)).coeffs) == compose(g, f)
    fbar = list(Series(f).comp_inverse().coeffs)
    assert fbar == from_ring(rs_series_reversion(to_ring(f, X), X, n, Y), 1, n)
    assert compose(f, fbar) == [0, 1] + [0] * (n - 2)


# comp_inverse runs on `_lagrange_powers` / `_lagrange_read`, which split
# n = kq + r with k = ceil(sqrt(p)); these precisions put p - 1 on a perfect
# square and on either side of one.
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 9, 10, 11, 16, 17, 26, 37, 49, 50])
def test_comp_inverse_block_edges(p):
    rng = random.Random(p)
    n = p + 1
    f = [Fraction(0), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]
    f += [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n - 2)]
    fbar = list(Series(f).comp_inverse().coeffs)
    assert fbar == from_ring(rs_series_reversion(to_ring(f, X), X, n, Y), 1, n)
    assert compose(f, fbar) == [0, 1] + [0] * (n - 2)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 9, 10, 11, 16, 17, 26, 37, 49, 50])
def test_lagrange_block_edges(p):
    """H(fbar) for H of precision below, at and above f's, off one power table.

    f of precision 1 with H of precision 0 gives a result of precision 0,
    as A = (f/t)(fbar) has.
    """
    rng = random.Random(100 + p)
    f = [Fraction(0), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]
    f += [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(p - 1)]
    hs = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(hp + 1)]
        for hp in (p - 1, p // 2, p, p + 3)
    ]
    powers = _lagrange_powers(Series(f), p)
    got = [_lagrange_read(powers, *_to_ints(h[: p + 1])) for h in hs]
    fbar = rs_series_reversion(to_ring(f, X), X, p + 1, Y)
    fbar = to_ring(from_ring(fbar, 1, p + 1), X)
    for h, out in zip(hs, got):
        n = min(len(h), p + 1)
        assert out.prec == n - 1
        want = from_ring(rs_subs(to_ring(h, X), {X: fbar}, X, n), 0, n)
        assert list(out.coeffs) == want


def rand_coeffs(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]


# _compose splits h into blocks of k = isqrt(p) + 1 coefficients, and k
# steps up at each perfect square; these are the Lagrange precisions above,
# on and next to squares.
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 9, 10, 11, 16, 17, 26, 37, 49, 50])
@pytest.mark.parametrize("order", [1, 2, None], ids=["order1", "order2", "zero"])
def test_compose_block_edges(p, order):
    """H(f) for H of precision below, at and above f's, in one call.

    f has order 1, order 2, or is zero to its precision.  Each result has
    precision min(H.prec, f.prec) and equals the Horner composition and
    the schoolbook sum of powers, which for f = 0 is the constant h_0.
    """
    rng = random.Random(200 + p)
    f = [Fraction(0)] * (p + 1)
    if order is not None and order <= p:
        f[order] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        f[order + 1 :] = rand_coeffs(rng, p - order)
    hs = [rand_coeffs(rng, hp + 1) for hp in (p - 1, p // 2, p, p + 3)]
    got = _compose(Series(f), [Series(h) for h in hs])
    assert len(got) == len(hs)
    for h, out in zip(hs, got):
        n = min(len(h), p + 1)
        assert out.prec == n - 1
        want = horner_compose(Series(h), Series(f))
        assert out == want and out.prec == want.prec
        school = compose(h, f) if order else h[:1] + [Fraction(0)] * (n - 1)
        assert list(out.coeffs) == school


@settings(max_examples=60, deadline=None)
@given(st.lists(series(), min_size=1, max_size=3), no_constant)
def test_compose_shared_f(hs, f):
    got = _compose(Series(f), [Series(h) for h in hs])
    for h, out in zip(hs, got):
        assert list(out.coeffs) == compose(h, f)
        assert out == Series(h).compose(Series(f))


def test_pair_product_composes_once(monkeypatch):
    """a * b gives g2(f1) and f2(f1) from one _compose call, sharing f1's powers."""
    calls = []

    def counting(f, hs):
        calls.append(len(hs))
        return _compose(f, hs)

    monkeypatch.setattr(group, "_compose", counting)
    a, b = named_riordan("catalan_bell", 20), named_riordan("pascal", 24)
    got = a * b
    assert calls == [2]
    want = RiordanPair(a.g * horner_compose(b.g, a.f), horner_compose(b.f, a.f))
    assert got == want


def test_triangle_closed_orders_1_to_50():
    """The shifted chain equals the product chain at every order 1 to 50.

    f_1 is not +-1 and every coefficient may have a denominator, so each
    column's denominator and its content reduction do real work.
    """
    rng = random.Random(7)
    g = catalan_like(rng, 50, 3)
    f = [Fraction(0), Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([2, 3]))]
    f += rand_coeffs(rng, 48)
    pair = RiordanPair(Series(g), Series(f))
    for n in range(1, 51):
        assert [list(r) for r in pair.triangle_closed(n).rows] == product_chain(
            pair, n
        ), n


@pytest.mark.parametrize("n", [1, 2])
def test_triangle_closed_edges(n):
    """n = 1 reads no f/t at all; n = 2 one coefficient, at precision 1."""
    pair = RiordanPair(Series([1, Fraction(-5, 3)]), Series([0, Fraction(2, 3)]))
    want = [[Fraction(1)], [Fraction(-5, 3), Fraction(2, 3)]][:n]
    assert product_chain(pair, n) == want
    assert [list(r) for r in pair.triangle_closed(n).rows] == want
