"""The suite's cleared routes against the plain Fraction routes they replaced.

``harness._convolution``, the rook and Laguerre vertical routes and the
weighted recursions ``horiz_recursion_C`` and ``vert_recursion_C`` run on
integer numerators over one denominator per vector.  Each is compared
here, at every (n, k), with the Fraction loop it replaced, written out
below one term at a time.  The weighted oracles recompute rho from the
weight's rows and d from the entries, so they share no cached input with
the code under test.  The Fuss and Catalan columns
all have denominator 1; random tables, pairs and weights with denominators
up to 7 make the clearing do real work.
"""

import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import (
    AZSequences,
    PrecisionError,
    Series,
    WeightSeq,
    WeightTri,
    WeightedTriangle,
    c_transform,
    harness,
    horiz_recursion_C,
    reconstruct_from_az,
    series,
    vert_recursion_C,
)
from riordan.catalog import (
    catalan_power_coeff,
    fuss_power_coeff,
    laguerre_entry,
    named_riordan,
    random_pair,
    rook_entry,
)

entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
nonzero = entry.filter(lambda x: x != 0)


# -- oracles ------------------------------------------------------------------

def convolution(coeff):
    """sum_j coeff(j, 1) coeff(n-j-k, k), one Fraction product at a time."""
    coeff = cache(coeff)
    return lambda n, k: sum(
        (coeff(j, 1) * coeff(n - j - k, k) for j in range(n - k + 1)), Fraction(0)
    )


def _rho_d(x, n):
    """rho(i, j) = c_{i,i} / c_{i,j} for rows i <= n, and d = xhat / rho."""
    rho = [[row[i] / v for v in row] for i, row in enumerate(x.weight.rows[: n + 1])]
    d = [[v / r for v, r in zip(*pair)] for pair in zip(x.entries.rows, rho)]
    return rho, d


def horiz(x, n, k):
    """rho(n, k) times the A/Z step on row n-1 of d, A and Z indexed as series."""
    rho, d = _rho_d(x, n)
    az = x.base.extract_az()
    if k == 0:
        s = sum((az.z[j] * v for j, v in enumerate(d[n - 1])), Fraction(0))
    else:
        s = sum((az.a[j] * v for j, v in enumerate(d[n - 1][k - 1 :])), Fraction(0))
    return rho[n][k] * s


def vert(x, n, k):
    """rho(n, k) times sum_{j=1}^{n-k+1} f_j d_{n-j,k-1}, f indexed as a series."""
    rho, d = _rho_d(x, n)
    f = x.base.f
    s = sum((f[j] * d[n - j][k - 1] for j in range(1, n - k + 2)), Fraction(0))
    return rho[n][k] * s


def assert_recursions_match(x, last):
    """Both recursions against the oracles at every (n, k) with 1 <= n <= last."""
    for n in range(1, last + 1):
        for k in range(n + 1):
            assert horiz_recursion_C(x, n, k) == horiz(x, n, k), (n, k)
        for k in range(1, n + 1):
            assert vert_recursion_C(x, n, k) == vert(x, n, k), (n, k)


# -- convolution rows ---------------------------------------------------------

@pytest.mark.parametrize(
    "coeff, n_max, k_min",
    [(lambda n, k, m=m: fuss_power_coeff(m, n, k), 25, 1) for m in range(1, 6)]
    + [(catalan_power_coeff, 40, 0)],
    ids=[f"fuss-m{m}" for m in range(1, 6)] + ["catalan"],
)
def test_convolution_matches_oracle_on_suite_rows(coeff, n_max, k_min):
    _, route = harness._convolution("S", coeff, n_max)
    oracle = convolution(coeff)
    for n in range(n_max + 1):
        for k in range(k_min, n + 1):
            assert route(n, k) == oracle(n, k), (n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n_max: st.tuples(
        st.just(n_max),
        st.lists(
            st.lists(entry, min_size=n_max + 2, max_size=n_max + 2),
            min_size=n_max + 2,
            max_size=n_max + 2,
        ),
    )
))
def test_convolution_matches_oracle_on_random_tables(case):
    n_max, table = case  # table[k][n] stands for [t^n] S^k
    coeff = lambda n, k: table[k][n]  # noqa: E731
    _, route = harness._convolution("S", coeff, n_max)
    oracle = convolution(coeff)
    for n in range(n_max + 1):
        for k in range(n + 1):
            assert route(n, k) == oracle(n, k), (n, k)


def test_convolution_rows_use_no_series_kernel(monkeypatch):
    def raising(*args):
        raise RuntimeError("the convolution route must not use the series kernel")

    monkeypatch.setattr(series, "_kmul", raising)
    monkeypatch.setattr(series, "_to_ints", raising)
    rows = [row for row in harness._rows() if "convolution" in row[0]]
    assert len(rows) == 6
    assert all(harness._check(*row).status == "verified" for row in rows)


# -- rook and Laguerre vertical rows ------------------------------------------

def test_rook_and_laguerre_vertical_routes_match_oracle():
    # the Laguerre entries have factorial denominators, so the clearing works
    routes = {row[0]: row[2][1] for row in harness._closed_form_rows()}
    rook, lag = routes["rook-vertical"], routes["laguerre-vertical"]
    for n in range(1, 31):
        for k in range(1, n + 1):
            js = range(1, n - k + 2)
            assert rook(n, k) == sum(
                (Fraction(math.perm(n, j), k) * rook_entry(n - j, k - 1) for j in js),
                Fraction(0),
            ), (n, k)
            assert lag(n, k) == sum(
                (
                    Fraction((-1) ** (j - 1) * math.factorial(n - k - j + 1))
                    * laguerre_entry(n - j, k - 1)
                    for j in js
                ),
                Fraction(0),
            ) / math.factorial(n - k), (n, k)


# -- weighted recursions ------------------------------------------------------

@pytest.mark.parametrize(
    "name, param", [("pascal", None), ("catalan_bell", None), ("fuss_bell", "3")]
)
@pytest.mark.parametrize(
    "weight",
    [WeightSeq.factorial(20), WeightSeq.power(2, 20), WeightTri.laguerre(20)],
    ids=["factorial", "power2", "laguerre"],
)
def test_recursions_match_oracle_on_suite_rows(name, param, weight):
    x = c_transform(named_riordan(name, 22, param), weight, 21)
    assert_recursions_match(x, 20)


def weights(size):
    """(c)- and (C)-weights of `size` rows, nonzero entries up to denominator 7."""
    seq = st.lists(nonzero, min_size=size - 1, max_size=size - 1).map(
        lambda cs: WeightSeq([1, *cs])
    )
    rows = [
        st.lists(nonzero, min_size=i, max_size=i).map(lambda cs: [1, *cs])
        for i in range(size)
    ]
    return st.one_of(seq, st.tuples(*rows).map(WeightTri))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.booleans())),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_recursions_match_oracle_on_random_pairs_and_weights(shape, seed, data):
    n, reach = shape  # reach: the weight has row n, so row n is recursed on too
    ra = random_pair(random.Random(seed), n + 1)
    w = data.draw(weights(n + reach))
    x = c_transform(ra, w, n)
    assert_recursions_match(x, n - 1 + reach)


def test_cleared_inputs_are_built_on_first_use():
    x = c_transform(named_riordan("catalan_bell", 12), WeightSeq.factorial(10), 10)
    lazy = ("_d_rows", "_d_cols", "_az", "_f")
    assert not any(name in vars(x) for name in lazy)
    horiz_recursion_C(x, 3, 1)
    assert {"_d_rows", "_az"} <= vars(x).keys()
    assert not {"_d_cols", "_f"} & vars(x).keys()


def test_cleared_az_past_precision_raises():
    # A and Z of catalan_bell at precision 6 reach index 5: row 7 of the
    # recursion needs index 6, in column 0 (Z) and column 1 (A) alike
    x = c_transform(named_riordan("catalan_bell", 11), WeightSeq.factorial(11), 12)
    short = WeightedTriangle(named_riordan("catalan_bell", 6), x.weight, x.entries)
    assert [horiz_recursion_C(short, 6, k) for k in range(7)] == list(x.entries.rows[6])
    for k in (0, 1):
        with pytest.raises(PrecisionError):
            horiz_recursion_C(short, 7, k)


def test_cleared_f_past_precision_raises():
    # f of pascal at precision 11 reaches index 11; entry (12, 1) needs f_12
    x = c_transform(named_riordan("pascal", 11), WeightSeq.factorial(12), 12)
    assert vert_recursion_C(x, 12, 2) == vert(x, 12, 2)
    with pytest.raises(PrecisionError):
        vert_recursion_C(x, 12, 1)


@pytest.mark.parametrize("short", ["a", "z"])
def test_reconstruct_reads_no_cleared_coefficient_past_precision(short):
    # Pascal's A = 1 + t and Z = 1; order n reads both up to index n - 2
    a, z = Series.from_coeffs([1, 1], 9), Series.from_coeffs([1], 9)
    cut = {"a": a, "z": z}[short].truncate(4)
    az = AZSequences(cut, z) if short == "a" else AZSequences(a, cut)
    assert reconstruct_from_az(az, 6) == named_riordan("pascal", 8).triangle(6)
    with pytest.raises(PrecisionError):
        reconstruct_from_az(az, 7)
