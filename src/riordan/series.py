"""Truncated formal power series over the exact rationals.

A ``Series`` holds coefficients 0..prec and nothing above: reading past prec
raises PrecisionError, and binary operations return the smaller precision, so
no identity can pass by silent zero-extension.  Every number given in passes
``_rat``: an int, a Fraction or a string is exact, a float is refused, and a
number with more digits than ``sys.get_int_max_str_digits()`` is a ValueError
that names the limit.  The integer kernel below serves ``group`` and
``quasi``; every public coefficient is exactly what rational arithmetic gives.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction, str]


class SeriesError(Exception):
    """Base class for series-domain errors."""


class NotAUnitError(SeriesError):
    """Reciprocal requested of a series with zero constant term."""


class CompositionError(SeriesError):
    """Composition h(f) requested with f(0) != 0."""


class NoCompositionalInverseError(SeriesError):
    """Compositional inverse requested of a series whose order is not 1."""


class PrecisionError(SeriesError):
    """An operation would need a coefficient beyond the trusted precision."""


class _DigitLimitError(ValueError):
    """A number int() refuses: more digits than sys.get_int_max_str_digits()."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"number past the int-string limit of {limit} digits")


# Fraction's decimal literal: sign, digits, optional fraction and exponent,
# with digit groups joined by underscores from Python 3.11 on.
_D = r"\d+(?:_\d+)*" if sys.version_info >= (3, 11) else r"\d+"
_DECIMAL = re.compile(
    rf"\s*([-+]?)(?=\d|\.\d)(\d*|{_D})(?:\.(\d*|{_D}))?(?:[eE]([-+]?{_D}))?\s*"
)


def _rat(x: Rat) -> Fraction:
    """x as an exact Fraction; a float, a binary approximation, is refused."""
    # Fraction() of a Fraction rebuilds it through an ABC check.
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"float {x!r} is not exact; give an int, Fraction or string")
    try:
        if type(x) is not str:
            return Fraction(x)
        if x.isascii():
            # str(Fraction)'s -?digits[/digits] are read with int(), not
            # Fraction's regex.
            num, slash, den = x.partition("/")
            if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                try:  # only digits: int() refuses them past the int-string limit
                    return Fraction(int(num), int(den)) if slash else Fraction(int(num))
                except ValueError:
                    raise _DigitLimitError() from None
        m = _DECIMAL.fullmatch(x)
        return _decimal(m) if m else Fraction(_sized(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def _frac(n: int, d: int) -> Fraction:
    """n / d as a reduced Fraction, for entries the library computes: the two
    slot writes of ``Fraction._from_coprime_ints``, without ``Fraction()``'s
    type dispatch.  d = 0 raises ZeroDivisionError."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    x = object.__new__(Fraction)
    x._numerator, x._denominator = n // g, d // g
    return x


def _sized(text: str) -> str:
    """text, refused if a run of digits is longer than int() reads, so that a
    number too long is refused as one, not as malformed."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    runs = re.findall(r"\d+", text.replace("_", "")) if limit else ()
    if any(len(run) > limit for run in runs):
        raise _DigitLimitError()
    return text


def _decimal(m: re.Match) -> Fraction:
    """A decimal literal, refused before it is built if its value's numerator
    or denominator would have more digits than int() reads."""
    sign, num, frac, exp = (g.replace("_", "") for g in m.groups(""))
    try:  # only digits, as in _rat
        man, e = int(num + frac or "0"), int(exp or "0") - len(frac)  # ±man 10^e
    except ValueError:
        raise _DigitLimitError() from None
    if not man:
        return Fraction(0)
    # Python before 3.10.7 has neither the limit nor its getter
    digits, limit = len(str(man)), getattr(sys, "get_int_max_str_digits", int)()
    # man 10^e has digits + e digits; man / 10^-e a denominator >= 10^-e / man.
    if not limit or (digits + e <= limit if e >= 0 else -e - digits < limit):
        q = Fraction(man * 10**e) if e >= 0 else Fraction(man, 10**-e)
        if not limit or -e < limit or q.denominator < 10**limit:
            return -q if sign == "-" else q
    raise _DigitLimitError()


# -- integer kernel -----------------------------------------------------------

_Cleared = tuple[list[int], int]  # integer numerators over one denominator


def _to_ints(coeffs: Sequence[Fraction]) -> _Cleared:
    """Integer numerators over the lcm of the denominators."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _from_ints(nums: Iterable[int], den: int) -> "Series":
    """The series with coefficients c / den, each a reduced Fraction."""
    return Series([_frac(c, den) for c in nums])


def _reduce(nums: list[int], den: int) -> _Cleared:
    """Divide the numerators and the denominator by their common content."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [c // g for c in nums], den // g


def _kmul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of the product of two integer vectors, by
    Kronecker substitution; ``a is b`` squares.

    Each coefficient is a sum of at most n terms, so it fits in a slot of
    bits(a) + bits(b) + log2(n) bits, plus one for the sign and one to spare.
    """
    square = a is b
    a, b = a[:n], b[:n]
    bits = max(c.bit_length() for c in a)
    width = 2 * bits if square else bits + max(c.bit_length() for c in b)
    width += n.bit_length() + 2
    nbytes = (width + 7) // 8
    half = 1 << (8 * nbytes - 1)
    bias = half.to_bytes(nbytes, "little")

    def pack(v: Sequence[int]) -> int:
        slots = b"".join((c + half).to_bytes(nbytes, "little") for c in v)
        return int.from_bytes(slots, "little") - int.from_bytes(bias * len(v), "little")

    x = pack(a)
    z = x * (x if square else pack(b)) + int.from_bytes(bias * n, "little")
    raw = (z & ((1 << (8 * nbytes * n)) - 1)).to_bytes(nbytes * n, "little")
    return [
        int.from_bytes(raw[i : i + nbytes], "little") - half
        for i in range(0, len(raw), nbytes)
    ]


def _krecip(coeffs: Sequence[Fraction], n: int) -> _Cleared:
    """1 / x for x the first n of coeffs, x_0 != 0, as reduced (numerators, den).

    With x = a / d: B_m = b_m a_0^(m+1) has B_0 = 1 and B_m =
    -sum_(i=1..m) a_i a_0^(i-1) B_(m-i), and 1 / x = d B / a_0^n.
    """
    a, d = _to_ints(coeffs[:n])
    pw = list(accumulate(repeat(a[0], n - 1), mul, initial=1))  # a_0^0..a_0^(n-1)
    c = list(map(mul, a[1:n], pw))
    b = [1]
    for _ in range(1, n):
        b.append(-sum(map(mul, c, reversed(b))))
    return _reduce([d * x * y for x, y in zip(b, reversed(pw))], pw[-1] * a[0])


def _times(x: _Cleared, y: _Cleared, n: int) -> _Cleared:
    """The first n coefficients of x y as reduced (numerators, den); a
    constant factor only scales the other."""
    for c, v in ((x, y), (y, x)):
        if not any(c[0][1:]):
            return _reduce([c[0][0] * a for a in v[0][:n]], c[1] * v[1])
    return _reduce(_kmul(x[0], y[0], n), x[1] * y[1])


def _powers(x: _Cleared, m: int, n: int) -> list[_Cleared]:
    """x^0..x^m, the first n coefficients of each as reduced (numerators,
    den); a power zero by order takes no product."""
    one = ([1] + [0] * (n - 1), 1)
    order = next((i for i, c in enumerate(x[0][:n]) if c), n)
    zero = ([0] * n, 1)
    pows = [one, _times(one, x, n)]
    for j in range(2, m + 1):
        pows.append(_times(pows[j // 2], pows[j - j // 2], n) if j * order < n else zero)
    return pows[: m + 1]


@dataclass(frozen=True)
class Series:
    """An immutable truncated power series: coefficients 0..prec."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rat]):
        object.__setattr__(self, "coeffs", tuple(_rat(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Rat], prec: int) -> "Series":
        """Series from an explicit coefficient list, zero-padded to prec: the
        list is a polynomial, so the padding zeros are trusted coefficients."""
        cs = [_rat(c) for c in coeffs]
        if len(cs) > prec + 1:
            raise PrecisionError(
                f"{len(cs)} coefficients given but precision is {prec}"
            )
        cs.extend([Fraction(0)] * (prec + 1 - len(cs)))
        return cls(cs)

    @classmethod
    def zero(cls, prec: int) -> "Series":
        return cls.from_coeffs([], prec)

    @classmethod
    def one(cls, prec: int) -> "Series":
        return cls.from_coeffs([1], prec)

    @classmethod
    def t(cls, prec: int) -> "Series":
        return cls.from_coeffs([0, 1], prec)

    @classmethod
    def geometric(cls, prec: int, ratio: Rat = 1) -> "Series":
        """1/(1 - ratio*t) = sum_n ratio^n t^n."""
        r = _rat(ratio)
        return cls([r ** n for n in range(prec + 1)])

    # -- basic accessors ------------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.prec:
            raise PrecisionError(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]

    def order(self) -> int | None:
        """Index of the first nonzero coefficient, or None (not prec + 1) for a
        series that is zero up to its precision."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def agrees_with(self, other: "Series") -> bool:
        """Exact coefficient equality up to the shared precision."""
        p = min(self.prec, other.prec)
        return self.coeffs[: p + 1] == other.coeffs[: p + 1]

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.prec > 7 else ""
        return f"Series([{shown}{tail}]; prec={self.prec})"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        p = min(self.prec, other.prec)
        return Series(
            [self.coeffs[n] + other.coeffs[n] for n in range(p + 1)]
        )

    def __sub__(self, other: "Series") -> "Series":
        p = min(self.prec, other.prec)
        return Series(
            [self.coeffs[n] - other.coeffs[n] for n in range(p + 1)]
        )

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        p = min(self.prec, other.prec)
        a, da = _to_ints(self.coeffs[: p + 1])
        b, db = _to_ints(other.coeffs[: p + 1])
        return _from_ints(_kmul(a, b, p + 1), da * db)

    def scale(self, c: Rat) -> "Series":
        c = _rat(c)
        return Series([c * x for x in self.coeffs])

    def truncate(self, r: int) -> "Series":
        """The r-th truncation: coefficients 0..r, precision r."""
        if not 0 <= r <= self.prec:
            raise PrecisionError(
                f"truncation at {r} outside available precision {self.prec}"
            )
        return Series(self.coeffs[: r + 1])

    def shift_down(self) -> "Series":
        """Divide by t.  Requires a zero constant term; precision drops by 1."""
        if self.coeffs[0] != 0:
            raise SeriesError("cannot divide by t: nonzero constant term")
        if self.prec == 0:
            raise PrecisionError("cannot shift down a precision-0 series")
        return Series(self.coeffs[1:])

    def shift_up(self) -> "Series":
        """Multiply by t; every known coefficient stays known, so prec + 1."""
        return Series((Fraction(0),) + self.coeffs)

    def derivative(self) -> "Series":
        if self.prec == 0:
            raise PrecisionError("cannot differentiate a precision-0 series")
        return Series([n * self.coeffs[n] for n in range(1, self.prec + 1)])

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; requires order 0."""
        if self.coeffs[0] == 0:
            raise NotAUnitError("not a unit: constant term is zero")
        return _from_ints(*_krecip(self.coeffs, self.prec + 1))

    def compose(self, f: "Series") -> "Series":
        """self(f(t)), requires f(0) = 0: the one-series case of ``_compose``."""
        return _compose(f, [self])[0]

    def comp_inverse(self) -> "Series":
        """Compositional inverse fbar with fbar(f) = f(fbar) = t, by Lagrange
        inversion; requires order exactly 1."""
        return _lagrange_read(_lagrange_powers(self, self.prec), [0, 1] + [0] * (self.prec - 1), 1)


def _compose(f: Series, hs: Sequence[Series]) -> list[Series]:
    """[H(f) for H in hs], f(0) = 0, each at precision min(H.prec, f.prec).

    Paterson-Stockmeyer: H(f) = sum_j B_j F^j by Horner in F = f^k, with
    k = isqrt(p) + 1 and each block B_j = sum_r h_(kj+r) f^r an integer
    combination of f^0..f^(k-1), which every H shares.
    """
    if f.coeffs[0] != 0:
        raise CompositionError("composition undefined: f(0) != 0")
    precs = [min(h.prec, f.prec) for h in hs]
    p = max(precs, default=0)
    k = math.isqrt(p) + 1
    *pows, (big, dbig) = _powers(_to_ints(f.coeffs[: p + 1]), k, p + 1)
    dcol = math.lcm(*(d for _, d in pows))
    # cols[i][r]: [t^i] f^r over dcol
    cols = list(zip(*([x * (dcol // d) for x in v] for v, d in pows)))
    order = next((i for i, c in enumerate(big) if c), p + 1)  # of F
    out = []
    for h, q in zip(hs, precs):
        c, dh = _to_ints(h.coeffs[: q + 1])
        top = q // order  # at most q // k, as order(F) >= k
        acc, scale = [0] * (q + 1 - k * top), 1
        for j in range(top, -1, -1):
            if j < top:  # acc = sum_(i>j) B_i F^(i-j), over dcol scale
                acc, scale = _kmul(acc, big, q + 1 - k * j), scale * dbig
            block = [scale * x for x in c[k * j : k * j + k]]
            acc = [a + sum(map(mul, block, col)) for a, col in zip(acc, cols)]
        out.append(_from_ints(acc, dcol * scale * dh))
    return out


def _lagrange_powers(f: Series, p: int) -> tuple[list, list]:
    """(baby, giant), u^0..u^k and u^0, u^k, ..., u^(k(p//k)) for u = t/f and
    k = ceil(sqrt(p)), so u^(kj + r) is baby[r] giant[j] (Brent & Kung 1978);
    each is (numerators, den), p coefficients long."""
    if f.prec < 1:
        raise PrecisionError("comp_inverse: order unknown at precision 0")
    if f.order() != 1:
        raise NoCompositionalInverseError("no compositional inverse: order is not 1")
    k = math.isqrt(p - 1) + 1
    baby = _powers(_krecip(f.coeffs[1 : p + 1], p), k, p)  # powers of t/f
    return baby, _powers(baby[k], p // k, p)


def _lagrange_read(powers: tuple[list, list], nums: list[int], den: int) -> Series:
    """H(fbar) at precision q, H = nums / den of precision q <= p, off
    ``_lagrange_powers``: [t^n] H(fbar) = (1/n) [t^(n-1)] H' u^n."""
    baby, giant = powers
    k, q = len(baby) - 1, len(nums) - 1
    dh = ([n * nums[n] for n in range(1, q + 1)], den)  # H', length q
    # n = kj + r reads H' u^(kj) only below t^(k(j+1)).
    js = range(q // k + 1 if q else 0)
    hg = [_times(dh, giant[j], min(q, k * j + k)) for j in js]
    coeffs = [_frac(nums[0], den)]
    for n in range(1, q + 1):
        (x, dx), (y, dy) = baby[n % k], hg[n // k]
        dot = sum(map(mul, x[:n], reversed(y[:n])))
        coeffs.append(_frac(dot, n * dx * dy))
    return Series(coeffs)

