"""Value semantics shared by the library's immutable types.

Series, sections, weights and pairs are values: they cannot be changed
after construction, and two of them are equal, hash equal and interchange
as dict keys exactly when their class and contents agree.  A copy, a deep
copy or a pickle round trip gives an equal value of the same class.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from riordan import QuasiRiordan, Series, Triangle, WeightSeq, WeightTri
from riordan.catalog import named_riordan

ROWS = [[1], [1, 2], [1, Fraction(1, 3), 4]]


def rho_read(w):
    w.rho  # builds and keeps the weight's rho table
    return w


# (constructor, the attributes it exposes).  Reading a weight's rho, as the
# setattr loop does on b, must change neither its equality nor its hash.
VALUES = {
    "Series": (lambda: Series([1, Fraction(1, 2), 3]), ("coeffs",)),
    "Triangle": (lambda: Triangle(ROWS), ("rows",)),
    "WeightSeq": (lambda: WeightSeq([1, 2, Fraction(1, 6)]), ("rows", "rho")),
    "WeightTri": (lambda: WeightTri(ROWS), ("rows", "rho")),
    "WeightSeq-rho-read": (
        lambda: rho_read(WeightSeq([1, 2, Fraction(1, 6)])),
        ("rows", "rho"),
    ),
    "WeightTri-rho-read": (lambda: rho_read(WeightTri(ROWS)), ("rows", "rho")),
    "RiordanPair": (lambda: named_riordan("pascal", 6), ("g", "f")),
    "QuasiRiordan": (
        lambda: QuasiRiordan.of_pair(named_riordan("catalan_bell", 6)),
        ("g", "f"),
    ),
}


@pytest.mark.parametrize("make, fields", VALUES.values(), ids=VALUES.keys())
def test_value_semantics(make, fields):
    a, b = make(), make()
    assert a is not b
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name, None))
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert len(table) == 1
    assert table[a] == "second"
    for clone in copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)):
        for v in a, b:  # b's rho, for a weight, has been read
            c = clone(v)
            assert type(c) is type(v)
            assert c == v
            assert hash(c) == hash(v)


def test_equality_needs_the_same_class():
    assert Triangle(ROWS) != WeightTri(ROWS)
    assert WeightTri(ROWS) != Triangle(ROWS)
    # a (c)-weight is the (C)-table c_{n,k} = c_k, but the kinds stay apart
    assert WeightSeq([1, 2]) != WeightTri([[1], [1, 2]])
    assert WeightTri([[1], [1, 2]]) != WeightSeq([1, 2])
