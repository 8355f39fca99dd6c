"""Quasi-Riordan group: layout, action, group law, factorization, normality,
and the order transforms against the quasi matrix products they stand for."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import (
    QuasiRiordan,
    RiordanError,
    RiordanPair,
    Series,
    Triangle,
    direct_sum_one,
    factorization_check,
    group,
    lower_order,
    matrices,
    raise_order,
)
from riordan.catalog import corpus, named_riordan, random_pair

from conftest import random_pairs


def random_quasi(rng: random.Random, prec: int) -> QuasiRiordan:
    ra = random_pair(rng, prec)
    return QuasiRiordan(ra.g, ra.f)


@pytest.fixture(scope="module")
def pascal_quasi():
    ra = named_riordan("pascal", 32)
    return QuasiRiordan.of_pair(ra)


def quasi_matrix(q, n):
    """The n x n section entry by entry: column 0 is g, entry (i, j) is f_(i-j+1)."""
    rows = []
    for i in range(n):
        row = [q.g[i]]
        for j in range(1, i + 1):
            row.append(q.f[i - j + 1])
        rows.append(row)
    return Triangle(rows)


class TestMatrixLayout:
    def test_against_the_entrywise_definition(self, monkeypatch):
        sections = {}
        for name, ra in corpus(prec=32).items():
            q = QuasiRiordan.of_pair(ra)
            for n in (1, 2, 24):
                sections[name, n] = q, quasi_matrix(q, n)

        def getitem(*args):
            raise AssertionError("matrix read a coefficient through Series.__getitem__")

        monkeypatch.setattr(Series, "__getitem__", getitem)
        for (name, n), (q, want) in sections.items():
            assert q.matrix(n) == want, (name, n)

    def test_pascal_columns(self, pascal_quasi):
        m = pascal_quasi.matrix(4)
        # column 0 is g = 1/(1-t); column j >= 1 holds t^{j-1} f for f = t/(1-t)
        assert [m.entry(i, 0) for i in range(4)] == [1, 1, 1, 1]
        assert [m.entry(i, 1) for i in range(4)] == [0, 1, 1, 1]
        assert [m.entry(i, 2) for i in range(4)] == [0, 0, 1, 1]
        assert [m.entry(i, 3) for i in range(4)] == [0, 0, 0, 1]

    def test_identity_matrix(self):
        q = QuasiRiordan.identity(16)
        for n in (1, 4, 9):
            assert q.matrix(n) == Triangle.identity(n)

    def test_appell_type(self):
        # [g, tg] is the Appell array (g, t)
        g = Series.geometric(16)
        q = QuasiRiordan(g, g.shift_up().truncate(16))
        appell = RiordanPair(g, Series.t(16))
        assert q.matrix(10) == appell.triangle(10)

    def test_equality_needs_the_same_class(self):
        # [g, f] and (g, f) are different arrays built from the same data
        ra = named_riordan("pascal", 8)
        q = QuasiRiordan.of_pair(ra)
        assert q == QuasiRiordan(ra.g, ra.f)
        assert q != ra and ra != q


class TestAction:
    def test_identity_action(self):
        u = Series.from_coeffs([2, 1, Fraction(1, 3)], 12)
        assert QuasiRiordan.identity(12).apply(u).agrees_with(u)

    def test_appell_action_is_multiplication(self):
        g = Series.geometric(12)
        q = QuasiRiordan(g, g.shift_up().truncate(12))
        u = Series.from_coeffs([3, 0, 1, 5], 12)
        assert q.apply(u) == (g * u).truncate(11)

    def test_matrix_action_oracle(self, pascal_quasi):
        n = 10
        u = Series.from_coeffs([1, 4, 9, 16, 25], n - 1)
        out = pascal_quasi.apply(u)
        expect = pascal_quasi.matrix(n).apply(list(u.coeffs))
        assert list(out.coeffs) == expect[: out.prec + 1]


class TestGroupLaw:
    def test_identity_element(self):
        rng = random.Random(3)
        q = random_quasi(rng, 20)
        e = QuasiRiordan.identity(20)
        assert (e * q).agrees_with(q)
        assert (q * e).agrees_with(q)

    def test_appell_subgroup_closure(self):
        # [g, tg][d, td] = [gd, tgd]
        g = Series.geometric(20)
        d = Series.from_coeffs([1, 2, 3], 20)
        left = QuasiRiordan(g, g.shift_up().truncate(20)) * QuasiRiordan(
            d, d.shift_up().truncate(20)
        )
        gd = g * d
        assert left.g.agrees_with(gd)
        assert left.f.agrees_with(gd.shift_up().truncate(gd.prec))

    def test_matrix_product_oracle(self):
        rng = random.Random(11)
        n = 16
        for _ in range(4):
            q1 = random_quasi(rng, 20)
            q2 = random_quasi(rng, 20)
            assert (q1 * q2).matrix(n) == q1.matrix(n) @ q2.matrix(n)

    def test_example_explicit_inverse(self):
        # [1/(1-t), t/(1-t)]^-1 = [1-t, t(1-t)], the Appell array (1-t, t)
        geo = Series.geometric(16)
        q = QuasiRiordan(geo, geo.shift_up().truncate(16))
        inv = q.inverse()
        assert list(inv.g.coeffs[:4]) == [1, -1, 0, 0]
        assert list(inv.f.coeffs[:5]) == [0, 1, -1, 0, 0]

    def test_identity_self_inverse(self):
        e = QuasiRiordan.identity(12)
        assert e.inverse().agrees_with(e)

    def test_random_inverse_round_trip(self):
        rng = random.Random(23)
        e = QuasiRiordan.identity(40)
        for _ in range(10):
            q = random_quasi(rng, 40)
            assert (q * q.inverse()).agrees_with(e)
            assert (q.inverse() * q).agrees_with(e)

    def test_products_take_only_their_own_class(self):
        # the Riordan law on a quasi pair, or the quasi law on a Riordan
        # pair, is another group's product: refused, not applied
        a = named_riordan("catalan_bell", 8)
        q = QuasiRiordan.of_pair(a)
        t = a.triangle(4)
        for product in (lambda: a * q, lambda: q * a, lambda: a * 3, lambda: q * 3,
                        lambda: t @ 3):
            with pytest.raises(TypeError, match="unsupported operand"):
                product()

    def test_associativity(self):
        rng = random.Random(5)
        for _ in range(5):
            q1, q2, q3 = (random_quasi(rng, 24) for _ in range(3))
            left = (q1 * q2) * q3
            right = q1 * (q2 * q3)
            assert left.agrees_with(right)
            n = 12
            assert left.matrix(n) == q1.matrix(n) @ q2.matrix(n) @ q3.matrix(n)


class TestRiordanIff:
    def test_bell_type_is_riordan(self):
        rng = random.Random(9)
        for _ in range(5):
            g = random_pair(rng, 20).g
            q = QuasiRiordan(g, g.shift_up().truncate(20))
            assert q.matrix(12) == RiordanPair(g, Series.t(20)).triangle(12)

    def test_non_bell_fails_column_law(self):
        # if [g, f] were Riordan its column 1 forces F = f/g, and then
        # column 2 would be g F^2 = f^2/g instead of the actual t f
        g = Series.geometric(20)
        f = Series.from_coeffs([0, 1, 1], 20)  # t + t^2 != t g
        col2_quasi = f.shift_up()
        col2_riordan = f * f * g.reciprocal()
        assert not col2_quasi.agrees_with(col2_riordan)


class TestConjugation:
    def test_second_component_fixed(self):
        rng = random.Random(17)
        for _ in range(10):
            q = random_quasi(rng, 24)
            by = random_quasi(rng, 24)
            conj = q.conjugate_by(by)
            assert conj.f.agrees_with(q.f)

    def test_conjugate_by_identity(self):
        rng = random.Random(2)
        q = random_quasi(rng, 16)
        conj = q.conjugate_by(QuasiRiordan.identity(16))
        assert conj.agrees_with(q)

    def test_appell_normality(self):
        # conjugates of [g, t] stay of the form [*, t]
        rng = random.Random(31)
        t = Series.t(24)
        for _ in range(5):
            g = random_pair(rng, 24).g
            by = random_quasi(rng, 24)
            conj = QuasiRiordan(g, t).conjugate_by(by)
            assert conj.f.agrees_with(t)


class TestDirectSum:
    def test_one_plus_identity(self):
        assert direct_sum_one(Triangle.identity(1)) == Triangle.identity(2)

    def test_block_placement(self, pascal_quasi):
        tri = named_riordan("pascal", 8).triangle(3)
        m = direct_sum_one(tri)
        assert m.entry(0, 0) == 1
        assert all(m.entry(0, j) == 0 for j in range(1, 4))
        assert all(m.entry(i, 0) == 0 for i in range(1, 4))
        for i in range(3):
            for j in range(i + 1):
                assert m.entry(i + 1, j + 1) == tri.rows[i][j]


class TestFactorization:
    def test_pascal(self):
        assert factorization_check(named_riordan("pascal", 32), 6)

    def test_identity_any_order(self):
        e = named_riordan("identity", 32)
        for n in (1, 2, 7, 20):
            assert factorization_check(e, n)

    def test_catalan_bell(self):
        assert factorization_check(named_riordan("catalan_bell", 32), 10)

    def test_corpus_at_24(self):
        for name, ra in corpus(prec=32).items():
            assert factorization_check(ra, 24), name

    def test_perturbed_triangle_fails(self, monkeypatch):
        ra = named_riordan("pascal", 16)
        n = 8
        assert factorization_check(ra, n) is True
        vertical = RiordanPair._vertical
        # (row, column): column 0 and the corner of the last row are read by
        # no product, so only the check against g and the last comparison
        # can see them
        for i, k in ((n - 1, 0), (4, 2), (n - 1, n - 1)):

            def perturbed(self, n, i=i, k=k):
                cols, dens = vertical(self, n)
                cols[k][i - k] += 1
                return cols, dens

            monkeypatch.setattr(RiordanPair, "_vertical", perturbed)
            assert factorization_check(ra, n) is False, (i, k)


# -- order transforms ---------------------------------------------------------

entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
sparse = st.one_of(st.just(Fraction(0)), entry)
nonzero = entry.filter(lambda x: x != 0)


@st.composite
def pair_and_triangle(draw, min_n=1):
    """(ra, tri): a random pair with f_1 != +-1 and a random n x n triangle.

    The pair has precision n, enough to raise tri to order n + 1.
    """
    n = draw(st.integers(min_value=min_n, max_value=10))
    g = [Fraction(1)] + draw(st.lists(sparse, min_size=n, max_size=n))
    f1 = draw(nonzero.filter(lambda x: abs(x) != 1))
    f = [Fraction(0), f1] + draw(st.lists(sparse, min_size=n - 1, max_size=n - 1))
    rows = [[draw(sparse) for _ in range(i + 1)] for i in range(n)]
    return RiordanPair(Series(g), Series(f)), Triangle(rows)


def raised_oracle(ra, tri):
    """[g, f]_m ([1] (+) tri), m = tri.n + 1, as the literal matrix product."""
    return QuasiRiordan.of_pair(ra).matrix(tri.n + 1) @ direct_sum_one(tri)


def lowered_oracle(ra, tri):
    """The lower block of [g, f]_m^-1 tri, m = tri.n, as the literal product."""
    full = QuasiRiordan.of_pair(ra).inverse().matrix(tri.n) @ tri
    return Triangle([row[1:] for row in full.rows[1:]])


class TestOrderTransforms:
    @settings(max_examples=60, deadline=None)
    @given(pair_and_triangle())
    def test_raise_then_lower_round_trip(self, pair):
        ra, tri = pair
        raised = raise_order(ra, tri)
        assert raised == raised_oracle(ra, tri)
        assert lower_order(ra, raised) == tri

    @settings(max_examples=60, deadline=None)
    @given(pair_and_triangle(min_n=2))
    def test_lower_against_the_inverse_product(self, pair):
        ra, tri = pair
        assert lower_order(ra, tri) == lowered_oracle(ra, tri)

    def test_lower_then_raise_on_sections(self):
        pairs = [named_riordan("catalan_bell", 20), *random_pairs(3, 20, seed=26)]
        for ra in pairs:
            for n in (2, 5, 13, 21):
                section = ra.triangle(n)
                lowered = lower_order(ra, section)
                assert lowered == ra.triangle(n - 1)
                assert raise_order(ra, lowered) == section

    def test_repeated_raise_is_a_fourth_route(self, ten_pairs):
        # 23 raises of [1]: a product of quasi matrices, against the
        # vertical recursion and the closed form
        for name, ra in ten_pairs.items():
            tri = Triangle([[1]])
            for _ in range(23):
                tri = raise_order(ra, tri)
            assert tri == ra.triangle(24), name
            assert tri == ra.triangle_closed(24), name

    def test_transforms_share_no_code_with_the_recursion(self, monkeypatch):
        ra = random_pairs(1, 12, seed=4)[0]
        section = ra.triangle(9)

        def recursion(*args):
            raise AssertionError("an order transform called the vertical recursion")

        monkeypatch.setattr(RiordanPair, "triangle", recursion)
        monkeypatch.setattr(RiordanPair, "_vertical", recursion)
        for module in (matrices, group):
            monkeypatch.setattr(module, "_cleared", recursion)
        assert lower_order(ra, section).n == 8
        assert raise_order(ra, section).n == 10

    def test_lower_order_builds_no_series_reciprocal(self, monkeypatch):
        """t/f comes from the kernel's integer reciprocal, not a Fraction series."""
        pairs = [named_riordan("catalan_bell", 20), *random_pairs(3, 20, seed=26)]
        cases = [(ra, ra.triangle(n), ra.triangle(n - 1)) for ra in pairs for n in (2, 5, 21)]

        def detour(*args):
            raise AssertionError("lower_order built a Series reciprocal")

        monkeypatch.setattr(Series, "reciprocal", detour)
        for ra, section, want in cases:
            assert lower_order(ra, section) == want

    def test_check_builds_no_matrix(self, monkeypatch):
        def generic(*args):
            raise AssertionError("factorization_check built or multiplied a matrix")

        monkeypatch.setattr(QuasiRiordan, "matrix", generic)
        monkeypatch.setattr(Triangle, "__matmul__", generic)
        monkeypatch.setattr(matrices, "direct_sum_one", generic)
        for name, ra in corpus(prec=32).items():
            assert factorization_check(ra, 24) is True, name

    def test_raise_past_precision(self):
        ra = named_riordan("pascal", 5)
        assert raise_order(ra, ra.triangle(5)).n == 6
        with pytest.raises(RiordanError, match=r"^order 7 needs precision 6, have 5$"):
            raise_order(ra, Triangle.identity(6))

    def test_lower_order_one(self):
        ra = named_riordan("pascal", 5)
        with pytest.raises(
            RiordanError,
            match=r"^cannot lower an order-1 triangle: there is no order 0$",
        ):
            lower_order(ra, Triangle([[1]]))
