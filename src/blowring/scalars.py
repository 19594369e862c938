"""Exact Gaussian-rational scalars: a + b*i with rational a, b and i^2 = -1."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RatLike = Union[int, Fraction]


class GaussianRational:
    """An element of Q(i), stored as the integer triple (a + b*i)/d. Immutable, exact.

    The triple is kept reduced: d > 0 and gcd(a, b, d) == 1, so zero is
    (0, 0, 1) and equal values have equal triples. The fields are private to
    this module; ``re`` and ``im`` are read-only and return Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, id_ = re.denominator, im.denominator
        # the lcm of two reduced denominators leaves gcd(a, b, d) == 1
        d = rd if rd == id_ else rd * id_ // gcd(rd, id_)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GaussianRational | RatLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other: "GaussianRational | RatLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other: "GaussianRational | RatLike") -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: "GaussianRational | RatLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: "GaussianRational | RatLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        d2 = other._d
        return _reduced(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2), self._d * n)

    def __rtruediv__(self, other: "GaussianRational | RatLike") -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "GaussianRational":
        return power(self if n >= 0 else self.inverse(), abs(n), ONE)

    # -- structure --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            if isinstance(other, (int, Fraction)):
                other = GaussianRational(other)
            elif not isinstance(other, GaussianRational):
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

    def is_rational(self) -> bool:
        return self._b == 0

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return _frac_str(re)
        if re == 0:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"({_frac_str(re)}{sign}{_imag_str(abs(im)).lstrip('+')})"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d from a triple that is already reduced."""
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for d > 0, reduced to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _triple(a // g, b // g, d // g)
    return _triple(a, b, d)


def _coerce(value) -> "GaussianRational | None":
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{_frac_str(q)}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gauss(re: RatLike = 0, im: RatLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from ``one``.

    It makes popcount(n) + bit_length(n) - 1 products: no square above the
    top bit of n.
    """
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result
