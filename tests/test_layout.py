"""The one column layout of a finite section, against loops written out here.

Column k of an n x n section holds its n - k entries from the diagonal
down.  ``matrices._columns`` reads the columns off the rows and
``Triangle._from_columns`` builds the rows from them; each is checked
against a double loop, and the two against each other.  The vertical
recursion returns its integer columns in the same layout.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import Triangle
from riordan.catalog import corpus
from riordan.matrices import _columns

entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
sparse = st.one_of(st.just(Fraction(0)), entry)
orders = st.integers(min_value=1, max_value=12)


@st.composite
def triangles(draw):
    n = draw(orders)
    return Triangle([[draw(sparse) for _ in range(i + 1)] for i in range(n)])


@st.composite
def column_lists(draw):
    n = draw(orders)
    return [[draw(sparse) for _ in range(n - k)] for k in range(n)]


# -- oracles ------------------------------------------------------------------

def columns(tri):
    """Column k of tri, entries (k, k), (k + 1, k), ..., (n - 1, k)."""
    cols = []
    for k in range(tri.n):
        col = []
        for i in range(k, tri.n):
            col.append(tri.entry(i, k))
        cols.append(col)
    return cols


def rows(cols):
    """Row i of the section whose column k, from the diagonal down, is cols[k]."""
    out = []
    for i in range(len(cols)):
        row = []
        for k in range(i + 1):
            row.append(cols[k][i - k])
        out.append(row)
    return out


# -- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(triangles())
def test_columns_against_the_loop(tri):
    assert _columns(tri.rows) == columns(tri)
    assert Triangle._from_columns(_columns(tri.rows)) == tri


@settings(max_examples=60, deadline=None)
@given(column_lists())
def test_from_columns_against_the_loop(cols):
    tri = Triangle._from_columns(cols)
    assert [list(r) for r in tri.rows] == rows(cols)
    assert _columns(tri.rows) == cols


def test_vertical_columns_start_at_the_diagonal():
    for name, ra in corpus(prec=32).items():
        for n in (1, 2, 24):
            cols, dens = ra._vertical(n)
            assert [len(c) for c in cols] == [n - k for k in range(n)], (name, n)
            got = [[Fraction(x, d) for x in c] for c, d in zip(cols, dens)]
            assert got == columns(ra.triangle_closed(n)), (name, n)
