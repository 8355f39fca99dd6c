"""Catalan/Fuss-Catalan numbers, rook and Laguerre triangles, named registry."""

import math
from fractions import Fraction

import pytest

from riordan import RiordanPair, Series
from riordan.catalog import (
    CatalogError,
    binomial,
    catalan_power_coeff,
    catalan_series,
    catalog_names,
    corpus,
    fuss_catalan,
    fuss_series,
    laguerre_entry,
    named_riordan,
    named_series,
    pair_spec,
    remainder_entry,
    rook_entry,
    series_spec,
    weight_spec,
)

F = Fraction


class TestBinomial:
    def test_small(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1
        assert binomial(4, 7) == 0

    def test_negative_top(self):
        # binom(-1, k) = (-1)^k
        assert [binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]
        assert binomial(-2, 2) == 3



class TestCatalanFuss:
    def test_catalan_numbers(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429]
        assert [catalan_power_coeff(n, 1) for n in range(8)] == catalan

    def test_ternary_numbers(self):
        # Fuss-Catalan m=3, r=1
        assert [fuss_catalan(3, n, 1) for n in range(6)] == [1, 1, 3, 12, 55, 273]
        assert fuss_catalan(3, 6, 1) == 1428

    def test_catalan_power_coeff(self):
        # [t^n] C^k with C the Catalan series
        assert catalan_power_coeff(2, 3) == 9
        assert catalan_power_coeff(0, 0) == 1
        assert catalan_power_coeff(3, 0) == 0
        for n, k in (-1, 1), (1, -1):
            with pytest.raises(ValueError):
                catalan_power_coeff(n, k)

    def test_fuss_m2_is_catalan(self):
        # 1 + t F^2 = F is the Catalan functional equation
        for n in range(10):
            assert fuss_catalan(2, n, 1) == math.comb(2 * n, n) // (n + 1)

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            fuss_catalan(2, 0, 0)

    def test_catalan_series_functional_equation(self):
        c = catalan_series(24)
        t = Series.t(24)
        one = Series.one(24)
        assert (c - one).agrees_with((t * c * c).truncate(24))

    def test_fuss_series_functional_equation(self):
        for m in (2, 3, 4):
            f = fuss_series(m, 20)
            t = Series.t(20)
            one = Series.one(20)
            power = Series.one(20)
            for _ in range(m):
                power = power * f
            assert f.agrees_with(one + (t * power).truncate(20))

    def test_fuss_series_coefficients(self):
        f = fuss_series(3, 8)
        assert list(f.coeffs[:6]) == [1, 1, 3, 12, 55, 273]


class TestRookAndFriends:
    def test_rook_values(self):
        assert rook_entry(3, 1) == 18
        assert rook_entry(4, 2) == 72
        assert rook_entry(5, 2) == 600
        assert rook_entry(5, 4) == 25
        assert rook_entry(0, 0) == 1

    def test_remainder_values(self):
        assert remainder_entry(2, 1) == 14
        assert remainder_entry(3, 1) == 78
        assert remainder_entry(4, 2) == 528
        assert remainder_entry(0, 0) == 0
        assert remainder_entry(4, 4) == 24
        assert remainder_entry(3, 4) == 1  # superdiagonal is all 1s

    def test_laguerre_values(self):
        assert laguerre_entry(4, 1) == F(-2, 3)
        assert laguerre_entry(5, 2) == F(-5, 3)
        assert laguerre_entry(3, 3) == 1

    def test_rook_remainder_consistency(self):
        # r_{n+1,k} = r_{n,k} + E_{n,k} for 0 <= k <= n+1
        for n in range(12):
            for k in range(n + 1):
                assert rook_entry(n + 1, k) == rook_entry(n, k) + remainder_entry(n, k)
            # k = n + 1: the old row has no entry there, the remainder column is 1
            assert rook_entry(n + 1, n + 1) == remainder_entry(n, n + 1) == 1

    def test_rook_binomial_squares(self):
        # r_{n,k} = k! binom(n,k)^2 restated as (n!/k!) binom(n,k)
        import math

        for n in range(30):
            for k in range(n + 1):
                b = binomial(n, k)
                assert rook_entry(n, k) == math.factorial(n - k) * b * b

    def test_closed_forms_match_their_written_formulas(self):
        """Each closed form is one Fraction of an integer expression; here
        each is the Fraction product its docstring writes."""
        import math

        def falling(top, n):  # binomial(top, n) for any integer top
            return Fraction(math.prod(top - i for i in range(n)), math.factorial(n))

        for m in range(1, 6):
            for r in range(-3, 6):
                for n in range(16):
                    if m * n + r == 0:
                        with pytest.raises(ValueError):
                            fuss_catalan(m, n, r)
                        continue
                    want = Fraction(r, m * n + r) * falling(m * n + r, n)
                    got = fuss_catalan(m, n, r)
                    assert type(got) is Fraction and got == want, (m, n, r)
        for n in range(16):
            for k in range(n + 2):
                got = remainder_entry(n, k)
                if k == n + 1:
                    assert type(got) is Fraction and got == 1
                    continue
                want = (
                    Fraction(n * n + n + k, n - k + 1)
                    * math.factorial(n - k)
                    * math.comb(n, k) ** 2
                )
                assert type(got) is Fraction and got == want, (n, k)
                rook = Fraction(math.factorial(n), math.factorial(k)) * math.comb(n, k)
                assert type(rook_entry(n, k)) is Fraction and rook_entry(n, k) == rook

    def test_classical_duality(self):
        # r_{n,n-k} = (-1)^{n-k} n! L_{n,k}
        import math

        for n in range(10):
            for k in range(n + 1):
                lhs = rook_entry(n, n - k)
                rhs = (-1) ** (n - k) * math.factorial(n) * laguerre_entry(n, k)
                assert lhs == rhs, (n, k)


class TestRegistry:
    def test_names_listing(self):
        names = catalog_names()
        assert "pascal" in names["pairs"]
        assert "catalan" in names["series"]
        for group in names.values():
            assert group == sorted(group)

    def test_every_listed_name_builds(self):
        samples = {"fuss": "fuss:4", "power": "power:2"}  # names that need one
        build = {"pairs": pair_spec, "series": series_spec, "weights": weight_spec}
        for kind, names in catalog_names().items():
            for name in names:
                assert build[kind](samples.get(name, name), 6) is not None, name

    def test_pair_spec_forms(self):
        assert pair_spec("1;0,1", 6) == RiordanPair.identity(6)
        assert pair_spec("geometric; 0,1,1,1,1,1,1", 6) == named_riordan("pascal", 6)
        assert pair_spec("fuss_bell", 6) == pair_spec("fuss_bell:3", 6)

    def test_named_series_values(self):
        assert list(named_series("catalan", 6).coeffs) == [1, 1, 2, 5, 14, 42, 132]
        assert list(named_series("ternary", 5).coeffs[:5]) == [1, 1, 3, 12, 55]
        assert list(named_series("geometric", 3, "3").coeffs) == [1, 3, 9, 27]

    def test_named_riordan_fuss_column(self):
        ra = named_riordan("fuss_bell", 16, "3")
        tri = ra.triangle(6)
        assert [tri.entry(i, 0) for i in range(6)] == [1, 1, 3, 12, 55, 273]

    def test_named_riordan_nested_series_spec(self):
        assert named_riordan("appell", 8, "fuss:3").g == fuss_series(3, 8)
        lagrange = named_riordan("lagrange", 8, "geometric:2")
        assert lagrange.f == Series.geometric(8, 2).shift_up().truncate(8)
        assert named_riordan("appell", 8) == named_riordan("appell", 8, "geometric")

    def test_named_riordan_pascal(self):
        tri = named_riordan("pascal", 8).triangle(5)
        assert list(tri.rows[4]) == [1, 4, 6, 4, 1]

    def test_unknown_names_raise(self):
        with pytest.raises(CatalogError):
            named_series("nope", 8)
        with pytest.raises(CatalogError):
            named_riordan("nope", 8)

    def test_messages_cut_long_text(self):
        # at most 60 characters of the input, then its full length
        with pytest.raises(CatalogError, match=r": 'x{60}'$"):
            named_riordan("x" * 60, 8)
        with pytest.raises(CatalogError, match=r": 'x{60}'\.\.\. \(61 characters\)$"):
            named_riordan("x" * 61, 8)

    def test_corpus_shapes(self):
        pairs = corpus(prec=16)
        assert len(pairs) == 10
        for name, ra in pairs.items():
            assert isinstance(ra, RiordanPair), name
            assert ra.g.coeffs[0] == 1
            assert ra.f.order() == 1
