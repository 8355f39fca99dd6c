"""The truncation property of every public series and pair operation.

For an input x of precision p and 0 <= r <= p, op(x.truncate(r)) must
either agree with op(x) on every coefficient both results carry, or raise
a SeriesError; it must never return a different value.  Operations with
two arguments truncate each argument in turn; a pair is truncated by
truncating both g and f.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import AZSequences, QuasiRiordan, RiordanPair, Series, SeriesError, Triangle

# st.fractions builds a fresh strategy per draw, which dominates the run
# time here; a numerator over a small denominator draws much faster.
nonzero = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1), st.integers(1, 4))
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def _series(head: tuple, first, prec: int):
    """Series of precision prec: the fixed head, then first, then free."""
    tail = st.lists(rationals, min_size=prec - len(head), max_size=prec - len(head))
    return st.tuples(first, tail).map(lambda t: Series(head + (t[0],) + tuple(t[1])))


def _pairs(cls, prec: int):
    """(g, f) with g(0) = 1 and f of order exactly 1, as both pair classes need."""
    g = _series((Fraction(1),), rationals, prec)
    return st.builds(cls, g, _series((Fraction(0),), nonzero, prec))


STRATEGIES = {
    "series": lambda p: _series((), rationals, p),
    "unit": lambda p: _series((), nonzero, p),
    "order1": lambda p: _series((Fraction(0),), nonzero, p),
    "pair": lambda p: _pairs(RiordanPair, p),
    "quasi": lambda p: _pairs(QuasiRiordan, p),
}

# name -> (argument kinds, op(r, *args)); r only sets a triangle's order.
OPS = {
    "series-add": (("series", "series"), lambda r, a, b: a + b),
    "series-sub": (("series", "series"), lambda r, a, b: a - b),
    "series-mul": (("series", "series"), lambda r, a, b: a * b),
    "series-reciprocal": (("unit",), lambda r, a: a.reciprocal()),
    "series-compose": (("series", "order1"), lambda r, a, f: a.compose(f)),
    "series-comp_inverse": (("order1",), lambda r, f: f.comp_inverse()),
    "series-derivative": (("series",), lambda r, a: a.derivative()),
    "pair-mul": (("pair", "pair"), lambda r, a, b: a * b),
    "pair-inverse": (("pair",), lambda r, a: a.inverse()),
    "pair-apply": (("pair", "series"), lambda r, a, h: a.apply(h)),
    "pair-extract_az": (("pair",), lambda r, a: a.extract_az()),
    "pair-triangle": (("pair",), lambda r, a: a.triangle(r + 1)),
    "quasi-mul": (("quasi", "quasi"), lambda r, a, b: a * b),
    "quasi-inverse": (("quasi",), lambda r, a: a.inverse()),
    "quasi-apply": (("quasi", "series"), lambda r, a, h: a.apply(h)),
    "quasi-matrix": (("quasi",), lambda r, a: a.matrix(r + 1)),
}

CASES = [(name, i) for name, (kinds, _) in OPS.items() for i in range(len(kinds))]


def _truncate(x, r: int):
    if isinstance(x, Series):
        return x.truncate(r)
    return type(x)(x.g.truncate(r), x.f.truncate(r))


def _agree(got, full) -> bool:
    if isinstance(got, Triangle):
        return got == full
    if isinstance(got, AZSequences):
        return got.a.agrees_with(full.a) and got.z.agrees_with(full.z)
    return type(got) is type(full) and got.agrees_with(full)


@pytest.mark.parametrize("name, which", CASES, ids=[f"{n}-arg{i}" for n, i in CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncation_agrees_or_raises(name, which, data):
    kinds, op = OPS[name]
    # p >= 2 so that every op is defined on the full inputs: a quasi
    # product at precision 1 leaves f f / t with precision 0
    p = data.draw(st.integers(2, 10), label="p")
    args = [data.draw(STRATEGIES[kind](p), label=kind) for kind in kinds]
    r = data.draw(st.integers(0, p), label="r")
    full = op(r, *args)
    try:
        # building the truncated pair is part of the op: at r = 0, f has
        # no order-1 coefficient left and the constructor must refuse it
        cut = [_truncate(a, r) if i == which else a for i, a in enumerate(args)]
        got = op(r, *cut)
    except SeriesError:
        return
    assert _agree(got, full), (r, got, full)
