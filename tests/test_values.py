"""Value semantics shared by the library's immutable types.

Series, sections, weights and pairs are values: they cannot be changed
after construction, and two of them are equal, hash equal and interchange
as dict keys exactly when their class and contents agree.  A copy, a deep
copy or a pickle round trip gives an equal value of the same class.
Every number given to them passes one rule: a float is refused, a
decimal string is exact, and a literal whose value has more digits than
the interpreter's int-string limit is refused, however it is written.
"""

import copy
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riordan import QuasiRiordan, Series, Triangle, WeightError, WeightSeq, WeightTri
from riordan.catalog import named_riordan
from riordan.series import _DigitLimitError, _rat

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


# Each way a number gets in: where it lands, and what a bad one raises.
EXACT_INPUT = {
    "Series": (lambda x: Series([x]).coeffs[0], ValueError),
    "Series.from_coeffs": (lambda x: Series.from_coeffs([x], 2)[0], ValueError),
    "Series.geometric": (lambda x: Series.geometric(2, x)[1], ValueError),
    "Series.scale": (lambda x: Series([1]).scale(x)[0], ValueError),
    "Triangle": (lambda x: Triangle([[1], [1, x]]).rows[1][1], ValueError),
    "Triangle.apply": (lambda x: Triangle([[1]]).apply([x])[0], ValueError),
    "WeightTri": (lambda x: WeightTri([[1], [1, x]]).rows[1][1], WeightError),
    "WeightSeq": (lambda x: WeightSeq([1, x]).rows[1][1], WeightError),
    "WeightSeq.power": (lambda x: WeightSeq.power(x, 2).rows[1][1], WeightError),
}


@pytest.mark.parametrize("build, error", EXACT_INPUT.values(), ids=EXACT_INPUT.keys())
def test_float_refused_and_decimal_string_exact(build, error):
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(error, match="float 0.1 is not exact"):
        build(0.1)
    assert build("0.1") == Fraction(1, 10)
    assert build("-3/4") == Fraction(-3, 4)
    assert build("2/4") == Fraction(1, 2)


# An exponent at the end of a literal, as Fraction's parser reads it.
EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def assert_reads_like_fraction(text):
    """_rat(text) equals Fraction(text), or both refuse it (_rat by ValueError).

    Fraction builds any exponent, so a short literal such as "1e99999" gives
    it a value with more digits than int() reads; _rat refuses that value.
    Fraction(text) builds 10^|e| even for a zero mantissa ("0e811111" takes
    a fifth of a second), so the exponent is read first: the mantissa is
    Fraction(text) with the exponent's digits replaced by 0, a zero mantissa
    must read as 0, and a value whose numerator or denominator is sure to
    pass the limit must be refused.  Fraction(text) is called only on the
    rest, where |e| is at most the limit plus the mantissa's digits.
    """
    limit = sys.get_int_max_str_digits()
    m = EXPONENT.search(text)
    if m:
        e = int(m[1]) * (-1 if "-" in m[0] else 1)
        try:
            q = Fraction(text[: m.start(1)] + "0" + text[m.end(1) :])
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError):
                _rat(text)
            return
        if q == 0:
            assert _rat(text) == 0
            return
        # q 10^e: numerator >= 10^e / den, or denominator >= 10^-e / |num|
        sure = len(str(q.denominator)) if e > 0 else len(str(abs(q.numerator)))
        if limit and abs(e) >= limit + sure:
            with pytest.raises(ValueError):
                _rat(text)
            return
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            _rat(text)
    else:
        if limit and max(abs(want.numerator), want.denominator) >= 10**limit:
            with pytest.raises(ValueError):
                _rat(text)
            return
        got = _rat(text)
        assert type(got) is Fraction
        assert got == want


# Next to canonical str(Fraction) output: a sign, space, underscore or
# non-ASCII digit that int() would take, and a signed or empty denominator.
NEAR_CANONICAL = (
    "", "-", "-0", "+3", " 3", "3 ", "1_0", "\u0663", "-\u0663/4",
    "3/", "/3", "1/-4", "1/+4", "1/ 4", "-3/4", "2/4", "1/0", "0/0", "0.5", "1e1",
)


@pytest.mark.parametrize("text", NEAR_CANONICAL)
def test_near_canonical_strings_read_as_fraction_reads_them(text):
    assert_reads_like_fraction(text)


# Strings over the characters Fraction's parser gives a meaning to, a space
# and a non-ASCII digit, and the canonical strings that str(Fraction) writes.
LITERALS = st.one_of(
    st.text(alphabet="0123456789-+/.e_ \u0663", max_size=8), st.fractions().map(str)
)


@given(LITERALS)
def test_strings_read_as_fraction_reads_them(text):
    assert_reads_like_fraction(text)


# Exponents whose power of ten Fraction(text) takes from a fifth of a
# second ("0e811111") to seconds ("0e9999999") to build.
@pytest.mark.parametrize(
    "text", ["0e811111", "-0.0e-9999999", "69e99661", "1_0e+9_999_999", "2.5e-9999999"]
)
def test_long_exponents_read_as_fraction_reads_them(text):
    assert_reads_like_fraction(text)


def exponent_and_digit_forms(e):
    """(exponent literal, the same value as str(Fraction) writes it) pairs."""
    texts = (f"1e{e}", f"-25e{e - 1}", f"1e-{e}", f"2.5e-{e}", f"4e-{e}", f"5e-{e}")
    texts += ("0." + "0" * (e - 1) + "1", f"0e{e}", f"0.0e-{e}")
    return [(text, str(Fraction(text))) for text in texts]


@pytest.mark.parametrize("limit", [640, 1000])
def test_exponent_and_digit_forms_share_the_int_string_limit(int_digits, limit):
    """On both sides of the limit, a value is read or refused alike in either
    form: 10^e has e + 1 digits, and 4e-e reduces to 1 / (25 10^(e-2))."""
    cases = [
        pair for e in range(limit - 2, limit + 3) for pair in exponent_and_digit_forms(e)
    ]
    int_digits(limit)
    read = []
    for exp_form, digit_form in cases:
        try:
            want = _rat(digit_form)
        except ValueError:
            with pytest.raises(ValueError):
                _rat(exp_form)
        else:
            assert _rat(exp_form) == want
            read.append(exp_form)
    assert f"1e{limit - 1}" in read and f"1e{limit}" not in read
    assert f"1e-{limit - 1}" in read and f"1e-{limit}" not in read
    assert f"4e-{limit}" in read and f"4e-{limit + 1}" not in read
    assert f"0e{limit + 2}" in read


def test_no_int_string_limit_reads_every_exponent(int_digits):
    int_digits(0)
    assert _rat("3e5000") == 3 * 10**5000
    assert _rat("-1e-5000") == Fraction(-1, 10**5000)


def test_exponent_literal_past_the_limit_is_refused():
    with pytest.raises(ValueError, match="past"):
        _rat("1e99999")
    with pytest.raises(ValueError, match="past"):
        _rat("-1.5e-99999")
    assert _rat("0e99999") == _rat("-0.0e-99999") == 0


@pytest.mark.parametrize("text", ["+1/" + "9" * 5000, " 1/" + "9" * 5000, "1_0/" + "9" * 5000])
def test_ratio_literal_past_the_limit_is_refused_as_one(text):
    """A ratio that Fraction's parser reads is sized before it is built, so
    the refusal names the limit, as for the digits-only form."""
    with pytest.raises(_DigitLimitError, match="past the int-string limit"):
        _rat(text)
    assert _rat(text.replace("9" * 5000, "9" * sys.get_int_max_str_digits())) > 0
