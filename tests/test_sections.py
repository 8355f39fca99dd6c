"""A section's integer columns, and the sections the library builds itself.

``Triangle._cleared_columns`` holds column k of a section, from the
diagonal down, as integer numerators over one denominator.
``RiordanPair.triangle`` seeds it with the vertical recursion's columns;
any other section builds it on first read.  ``@`` reads its right
factor's columns there, and ``factorization_check`` those of
``triangle(n)``.  The rows the library builds from Fractions skip the
per-entry checks of ``Triangle(rows)`` (``Triangle._unchecked``), so each
such build is checked here for its row lengths, entry types and lowest
terms, as are the series the kernel hands out.  Copies
and pickles carry the rows alone.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_pairs
from riordan import (
    QuasiRiordan,
    RiordanPair,
    Triangle,
    WeightSeq,
    WeightTri,
    c_group_inverse,
    c_group_mul,
    c_transform,
    direct_sum_one,
    factorization_check,
    lower_order,
    matrices,
    raise_order,
    reconstruct_from_az,
    series,
)
from riordan.catalog import corpus, named_riordan, pair_spec
from riordan.matrices import _cleared, _columns


def values(cols):
    return [[Fraction(x, d) for x in c] for c, d in cols]


def pairs(prec):
    return [*corpus(prec=prec).values(), *random_pairs(3, prec, seed=40)]


# -- the cache against the plain clear ----------------------------------------

def test_seeded_columns_equal_the_plain_clear():
    for ra in pairs(24):
        for n in (1, 2, 24):
            t = ra.triangle(n)
            assert "_cleared_columns" in vars(t)
            assert values(t._cleared_columns) == values(map(_cleared, _columns(t.rows)))
            assert all(d > 0 for _, d in t._cleared_columns)


def test_columns_below_the_build_order_keep_their_values():
    # built at 24 first, order 12 slices the memo: a column's denominator
    # may then be a multiple of its least one, but its values are the same
    seen_multiple = False
    for ra in pairs(24):
        ra.triangle(24)
        t = ra.triangle(12)
        least = list(map(_cleared, _columns(t.rows)))
        assert values(t._cleared_columns) == values(least)
        for (_, d), (_, e) in zip(t._cleared_columns, least):
            assert d % e == 0
            seen_multiple |= d != e
    assert seen_multiple, "no column sat over a multiple of its least denominator"


def test_unseeded_columns_are_built_on_first_read():
    t = named_riordan("catalan_bell", 16).triangle(16)
    plain = Triangle(t.rows)
    assert "_cleared_columns" not in vars(plain)
    assert plain._cleared_columns == list(map(_cleared, _columns(t.rows)))
    assert "_cleared_columns" in vars(plain)


@pytest.mark.parametrize("n", [1, 2, 9, 20])
def test_seeded_and_unseeded_sections_give_the_same_results(n):
    for ra in pairs(20):
        t = ra.triangle(n)
        plain = Triangle(t.rows)
        assert t == plain
        assert (t @ t).rows == (plain @ plain).rows == (t @ plain).rows
        assert factorization_check(ra, n) is True


def test_readers_mutate_nothing_and_triangle_hands_out_fresh_lists():
    for ra in pairs(20):
        t = ra.triangle(20)
        cols = t._cleared_columns
        lists = [c for c, _ in cols]
        before = copy.deepcopy(cols)
        t @ t
        factorization_check(ra, 20)
        again = ra.triangle(20)
        assert t._cleared_columns is cols
        assert cols == before == again._cleared_columns
        assert all(a is b for a, b in zip(lists, (c for c, _ in cols)))
        # no memo above _vertical: a second section owns its own lists
        assert again._cleared_columns is not cols
        assert all(a is not b for a, (b, _) in zip(lists, again._cleared_columns))
        lists[-1].append(0)
        assert ra.triangle(20)._cleared_columns == before


def test_matmul_on_a_seeded_factor_calls_no_kernel(monkeypatch):
    t = named_riordan("catalan_bell", 16).triangle(16)
    plain = Triangle(t.rows)
    want = plain @ plain

    def kernel(*args):
        raise AssertionError("@ called the series kernel")

    for name in ("_kmul", "_to_ints", "_reduce", "_from_ints", "_krecip"):
        monkeypatch.setattr(series, name, kernel)
        if hasattr(matrices, name):
            monkeypatch.setattr(matrices, name, kernel)
    assert t @ t == want


def test_order_transforms_read_no_cached_columns(monkeypatch):
    ra = random_pairs(1, 12, seed=4)[0]
    section = ra.triangle(9)
    raised, lowered = raise_order(ra, section), lower_order(ra, section)

    def cache(self):
        raise AssertionError("an order transform read the column cache")

    # a property outranks the seeded entry in the section's __dict__
    monkeypatch.setattr(Triangle, "_cleared_columns", property(cache))
    for t in (section, Triangle(section.rows)):
        assert raise_order(ra, t) == raised
        assert lower_order(ra, t) == lowered


# -- copies and pickles -------------------------------------------------------

def test_state_is_the_rows():
    t = named_riordan("catalan_bell", 24).triangle(20)
    plain = Triangle(t.rows)
    assert "_cleared_columns" in vars(t)
    assert pickle.dumps(t) == pickle.dumps(plain)
    for clone in copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)):
        assert clone == t
        assert vars(clone).keys() == {"rows"}
        assert clone._cleared_columns == plain._cleared_columns


def test_a_transform_pickles_without_its_entries_columns():
    x = c_transform(named_riordan("catalan_bell", 24), WeightSeq.factorial(20), 20)
    before = pickle.dumps(x)
    c_group_mul(x, x)
    assert "_cleared_columns" in vars(x.entries)
    assert len(pickle.dumps(x)) == len(before)
    # a shallow copy shares x.entries; a deep one and a pickle do not
    for clone in copy.deepcopy(x), pickle.loads(pickle.dumps(x)):
        assert clone == x
        assert vars(clone.entries).keys() == {"rows"}


# -- the unchecked builds -----------------------------------------------------

BASES = {"rational": "1,1/2;0,2/3,1", "catalan_bell": "catalan_bell"}


def sections(ra: RiordanPair, n: int) -> dict[str, Triangle]:
    t = ra.triangle(n)
    fac, lag = WeightSeq.factorial(n), WeightTri.laguerre(n)
    x = c_transform(ra, fac, n)
    return {
        "triangle": t,
        "triangle_closed": ra.triangle_closed(n),
        "@": t @ t,
        "@ unseeded": Triangle(t.rows) @ Triangle(t.rows),
        "inverse": t.inverse(),
        "c_transform": x.entries,
        "C_transform": c_transform(ra, lag, n).entries,
        "c_group_mul": c_group_mul(x, x).entries,
        "c_group_inverse": c_group_inverse(x).entries,
        "raise_order": raise_order(ra, ra.triangle(n - 1)),
        "lower_order": lower_order(ra, ra.triangle(n + 1)),
        "QuasiRiordan.matrix": QuasiRiordan.of_pair(ra).matrix(n),
        "reconstruct_from_az": reconstruct_from_az(ra.extract_az(), n),
        "direct_sum_one": direct_sum_one(ra.triangle(n - 1)),
        "identity": Triangle.identity(n),
    }


def in_lowest_terms(x) -> bool:
    return (
        type(x) is Fraction
        and x.denominator > 0
        and gcd(x.numerator, x.denominator) == 1
        and x == Fraction(x.numerator, x.denominator)
    )


@pytest.mark.parametrize("spec", BASES.values(), ids=BASES.keys())
def test_library_builds_hold_rows_of_fractions(spec):
    ra = pair_spec(spec, 16)
    for n in (2, 12):
        for op, t in sections(ra, n).items():
            assert type(t.rows) is tuple, op
            assert len(t.rows) == n, op
            for i, row in enumerate(t.rows):
                assert type(row) is tuple and len(row) == i + 1, (op, i)
                assert all(map(in_lowest_terms, row)), (op, i)


def test_library_series_are_in_lowest_terms():
    a, b = pair_spec(BASES["rational"], 16), named_riordan("catalan_bell", 16)
    ab, ba, inv, az = a * b, b * a, a.inverse(), a.extract_az()
    built = {
        "a * b": (ab.g, ab.f),
        "b * a": (ba.g, ba.f),
        "Series *": (a.g * a.f,),
        "inverse": (inv.g, inv.f),
        "apply": (a.apply(a.g),),
        "extract_az": (az.a, az.z),
        "reciprocal": (a.g.reciprocal(),),
    }
    for op, out in built.items():
        for s in out:
            assert all(map(in_lowest_terms, s.coeffs)), op


def test_the_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="row 1 must have 2 entries"):
        Triangle([[1], [1]])
    with pytest.raises(ValueError, match="float"):
        Triangle([[1], [0.5, 1]])
    with pytest.raises(ValueError, match="empty"):
        Triangle([])
