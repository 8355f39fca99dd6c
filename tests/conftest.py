import random
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from riordan import RiordanPair, Series
from riordan.catalog import corpus, named_riordan, random_pair
from riordan.harness import builtin_suite

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def series_strategy(prec: int, min_order: int = 0):
    """Random series; min_order=1 forces a unit t-coefficient."""
    if min_order == 0:
        return st.lists(rationals, min_size=prec + 1, max_size=prec + 1).map(Series)
    nonzero = rationals.filter(lambda x: x != 0)
    return st.tuples(
        nonzero, st.lists(rationals, min_size=prec - 1, max_size=prec - 1)
    ).map(lambda t: Series([Fraction(0), t[0]] + t[1]))


def unit_series(prec: int):
    nonzero = rationals.filter(lambda x: x != 0)
    return st.tuples(
        nonzero, st.lists(rationals, min_size=prec, max_size=prec)
    ).map(lambda t: Series([t[0]] + t[1]))


@pytest.fixture
def int_digits():
    """Sets the interpreter's int-string limit for one test, then restores it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def pascal():
    return named_riordan("pascal", 64)


@pytest.fixture(scope="session")
def catalan_bell():
    return named_riordan("catalan_bell", 64)


@pytest.fixture(scope="session")
def ten_pairs():
    return corpus(prec=48)


@pytest.fixture(scope="session")
def builtin_reports():
    """The builtin suite's reports, computed once per test session."""
    return tuple(builtin_suite())


def random_pairs(count: int, prec: int, seed: int = 7) -> list[RiordanPair]:
    rng = random.Random(seed)
    return [random_pair(rng, prec) for _ in range(count)]
