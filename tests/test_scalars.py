from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from blowring.scalars import I, ONE, ZERO, gauss

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(gauss, rationals, rationals)


def test_i_squares_to_minus_one():
    assert I * I == gauss(-1)


def test_division_and_inverse():
    x = gauss(Fraction(3, 4), Fraction(-2, 5))
    assert x * x.inverse() == ONE
    assert (x / x) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_negative_powers():
    x = gauss(0, 2)
    assert x ** -2 == (x * x).inverse()
    assert x ** 0 == ONE


def test_str_forms():
    assert str(gauss(3)) == "3"
    assert str(gauss(0, 1)) == "i"
    assert str(gauss(0, -1)) == "-i"
    assert str(gauss(1, 2)) == "(1+2i)"
    assert str(gauss(Fraction(1, 2))) == "1/2"


@settings(max_examples=60, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    if b:
        assert (a / b) * b == a


# -- the integer triple against a reference model ---------------------------
#
# The reference is the public view of a value, a (re, im) pair of Fractions;
# every operation must agree with it, and every result must hold the
# canonical triple (d > 0, gcd(a, b, d) == 1, zero as (0, 0, 1)).

nonzero_dens = st.integers(-12, 12).filter(bool)
wide_rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-60, 60), nonzero_dens),
)
pairs = st.tuples(wide_rationals, wide_rationals)
exponents = st.integers(-4, 4)


def _canonical(x):
    a, b, d = x._a, x._b, x._d
    return type(a) is type(b) is type(d) is int and d > 0 and gcd(a, b, d) == 1


def _ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _ref(p):
    return (Fraction(p[0]), Fraction(p[1]))


def _ref_inverse(p):
    p = _ref(p)
    n = p[0] * p[0] + p[1] * p[1]
    return (p[0] / n, -p[1] / n)


def _ref_pow(p, n):
    if n < 0:
        p, n = _ref_inverse(p), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_str(re, im):
    def frac(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    def imag(q):
        return {1: "i", -1: "-i"}.get(q, f"{frac(q)}i")

    if im == 0:
        return frac(re)
    if re == 0:
        return imag(im)
    return f"({frac(re)}{'+' if im > 0 else '-'}{imag(abs(im))})"


def _agrees(x, ref):
    re, im = _ref(ref)
    return _canonical(x) and (x.re, x.im) == (re, im) and x == gauss(re, im)


@pytest.mark.parametrize(
    "value, triple",
    [
        (gauss(Fraction(2, -4), Fraction(1, 6)), (-3, 1, 6)),
        (gauss(Fraction(0, -5), Fraction(0, 7)), (0, 0, 1)),
        (gauss(Fraction(3, 9), Fraction(-4, 6)), (1, -2, 3)),
        (gauss(6, -4), (6, -4, 1)),
        (gauss(True, False), (1, 0, 1)),
        (gauss(1, 2) - gauss(1, 2), (0, 0, 1)),
        (gauss(Fraction(1, 2), Fraction(1, 2)) * gauss(1, -1), (1, 0, 1)),
        (gauss(2, 2).inverse(), (1, -1, 4)),
    ],
)
def test_stored_triples(value, triple):
    assert (value._a, value._b, value._d) == triple
    assert _canonical(value)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_arithmetic_agrees_with_fraction_pairs(p, q):
    x, y = gauss(*p), gauss(*q)
    assert _canonical(x) and _canonical(y)
    assert _agrees(x + y, (p[0] + q[0], p[1] + q[1]))
    assert _agrees(x - y, (p[0] - q[0], p[1] - q[1]))
    assert _agrees(-x, (-p[0], -p[1]))
    assert _agrees(x * y, _ref_mul(p, q))
    assert (x == y) == (_ref(p) == _ref(q))
    assert bool(x) == bool(p[0] or p[1])
    assert x.is_rational() == (p[1] == 0)
    if q[0] or q[1]:
        assert _agrees(y.inverse(), _ref_inverse(q))
        assert _agrees(x / y, _ref_mul(p, _ref_inverse(q)))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(max_examples=150, deadline=None)
@given(pairs, wide_rationals)
def test_mixed_operands_agree(p, r):
    """int and Fraction operands on either side, and == against them."""
    x = gauss(*p)
    assert _agrees(x + r, (p[0] + r, p[1]))
    assert _agrees(r + x, (p[0] + r, p[1]))
    assert _agrees(x - r, (p[0] - r, p[1]))
    assert _agrees(r - x, (r - p[0], -p[1]))
    assert _agrees(x * r, (p[0] * r, p[1] * r))
    assert _agrees(r * x, (p[0] * r, p[1] * r))
    assert (x == r) == (p[1] == 0 and p[0] == r)
    if r:
        assert _agrees(x / r, _ref_mul(p, _ref_inverse((r, 0))))
    if p[0] or p[1]:
        assert _agrees(r / x, _ref_mul((r, 0), _ref_inverse(p)))


@settings(max_examples=150, deadline=None)
@given(pairs, exponents)
def test_powers_agree(p, n):
    x = gauss(*p)
    if n < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x ** n
    else:
        assert _agrees(x ** n, _ref_pow(p, n))


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_hash_text_and_parts_agree(p):
    re, im = _ref(p)
    x = gauss(*p)
    assert (x.re, x.im) == (re, im)
    assert hash(x) == hash((re, im))
    assert str(x) == _ref_str(re, im)
    assert repr(x) == f"GaussianRational({re!r}, {im!r})"


def test_value_is_read_only():
    x = gauss(1, 2)
    for name in ("re", "im", "value"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
