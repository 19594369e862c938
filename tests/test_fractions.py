"""RingFraction arithmetic against plain cross-multiplied (num, den) pairs.

The reference keeps a fraction as a pair of Laurent polynomials and never
takes a shortcut: a + c/d is (a*d + c*b, b*d), and two pairs are equal when
a*d - c*b is the zero polynomial.
"""

import pytest
from hypothesis import given, settings, strategies as st

from blowring.fractions import RingFraction
from blowring.poly import LaurentPoly
from blowring.scalars import gauss

from conftest import record_realignments

NAMES = ("x", "y", "z")

coeffs = st.builds(
    gauss,
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
)


@st.composite
def polys(draw, min_terms=0, max_terms=3):
    """A Laurent polynomial over a random ordered subset of x, y, z."""
    names = tuple(draw(st.permutations(NAMES))[: draw(st.integers(1, 3))])
    exps = st.tuples(*[st.integers(-2, 2)] * len(names))
    terms = draw(st.dictionaries(exps, coeffs.filter(bool), min_size=min_terms, max_size=max_terms))
    return LaurentPoly(names, terms)


@st.composite
def nonzero_polys(draw):
    p = draw(polys())
    return p if p.terms else LaurentPoly.const(draw(st.integers(1, 5)), p.vars)


@st.composite
def monomials(draw):
    names = tuple(draw(st.permutations(NAMES)))
    exps = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    coeff = draw(coeffs)
    return LaurentPoly(names, {exps: coeff if coeff else gauss(1)})


@st.composite
def operand_pairs(draw):
    """Two (num, den) pairs whose denominators are equal, units, monomials or general."""
    kind = draw(st.sampled_from(["equal", "equal-reordered", "unit", "monomial", "general"]))
    n1, n2 = draw(polys()), draw(polys())
    if kind.startswith("equal"):
        d1 = draw(nonzero_polys())
        d2 = d1
        if kind == "equal-reordered":
            # the same polynomial over a longer, reversed variable list
            d2 = d1.with_vars(tuple(reversed(NAMES)))
    elif kind == "unit":
        d1 = LaurentPoly.const(draw(coeffs.filter(bool)), draw(polys()).vars)
        d2 = LaurentPoly.const(1)
    elif kind == "monomial":
        d1, d2 = draw(monomials()), draw(nonzero_polys())
    else:
        # not monomials, which the constructor clears
        d1, d2 = draw(polys(min_terms=2)), draw(polys(min_terms=2))
    return (n1, d1), (n2, d2)


def _same(fraction, pair) -> bool:
    """fraction == num/den, by cross-multiplication of polynomials."""
    num, den = pair
    return (fraction.num * den - num * fraction.den).is_zero()


def _ref_add(p, q):
    return (p[0] * q[1] + q[0] * p[1], p[1] * q[1])


def _ref_sub(p, q):
    return (p[0] * q[1] - q[0] * p[1], p[1] * q[1])


def _ref_mul(p, q):
    return (p[0] * q[0], p[1] * q[1])


@settings(max_examples=100, deadline=None)
@given(operand_pairs())
def test_field_operations_agree_with_pairs(pairs):
    p, q = pairs
    x, y = RingFraction(*p), RingFraction(*q)
    assert _same(x + y, _ref_add(p, q))
    assert _same(x - y, _ref_sub(p, q))
    assert _same(y - x, _ref_sub(q, p))
    assert _same(x * y, _ref_mul(p, q))
    assert _same(-x, (-p[0], p[1]))
    if q[0].terms:
        assert _same(x / y, (p[0] * q[1], p[1] * q[0]))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == _ref_sub(p, q)[0].is_zero()
    assert (x - y).is_zero() == (x == y)
    assert x == RingFraction(*p) and x - x == 0


@settings(max_examples=60, deadline=None)
@given(operand_pairs(), st.integers(-2, 3))
def test_powers_agree_with_pairs(pairs, n):
    (num, den), _ = pairs
    x = RingFraction(num, den)
    if n < 0 and not num.terms:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    ref = (num**n, den**n) if n >= 0 else (den ** (-n), num ** (-n))
    assert _same(x**n, ref)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(-3, 3))
def test_mixed_operands_agree_with_pairs(num, poly, k):
    x = RingFraction(num, LaurentPoly.var("x") - 2)
    one = LaurentPoly.const(1)
    p = (x.num, x.den)
    assert _same(x + poly, _ref_add(p, (poly, one)))
    assert _same(x - k, _ref_sub(p, (LaurentPoly.const(k), one)))
    assert _same(k - x, _ref_sub((LaurentPoly.const(k), one), p))
    assert (x == poly) == _ref_sub(p, (poly, one))[0].is_zero()
    # a polynomial on the left falls through to the fraction's reflected operators
    assert _same(poly + x, _ref_add((poly, one), p))
    assert _same(poly - x, _ref_sub((poly, one), p))
    assert _same(poly * x, _ref_mul((poly, one), p))
    assert (poly == x) == (x == poly)


def test_unequal_denominators_of_one_size_cross_multiply():
    x, y, z = LaurentPoly.gens("x y z")
    a, b = RingFraction(x, z + 1), RingFraction(y, y + 1)
    assert _same(a + b, (x * (y + 1) + y * (z + 1), (z + 1) * (y + 1)))
    assert _same(a - b, (x * (y + 1) - y * (z + 1), (z + 1) * (y + 1)))
    assert a != RingFraction(x, y + 1)


def test_zero_denominators_raise():
    num = LaurentPoly.var("x")
    with pytest.raises(ZeroDivisionError):
        RingFraction(num, LaurentPoly.zero(("x",)))
    with pytest.raises(ZeroDivisionError):
        RingFraction(num) / RingFraction(LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        RingFraction(LaurentPoly.zero(("x",))) ** -1


def test_equal_denominators_multiply_no_polynomials(monkeypatch):
    """A sum, difference or comparison over one denominator keeps it."""
    x, y, z = LaurentPoly.gens("x y z")
    a = RingFraction(x + y**2, z - z**-1 + y)
    # the same denominator over a reordered variable list
    b = RingFraction(x * y - 3, (y + z - z**-1).with_vars(("z", "y", "x")))
    calls = []
    original = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counting)
    total, diff, same = a + b, a - b, a == b
    assert calls == []
    assert total.den is a.den and diff.den is a.den and same is False
    monkeypatch.undo()
    assert _same(total, (x + y**2 + x * y - 3, a.den))
    assert _same(diff, (x + y**2 - x * y + 3, a.den))


def test_powers_stay_over_their_variables(monkeypatch):
    y = LaurentPoly.var("y").with_vars(("y", "z", "T"))
    f = RingFraction(y + y**-1)
    calls = record_realignments(monkeypatch)
    cube, one = f**3, f**0
    assert calls == []
    assert cube.num.vars == one.num.vars == ("y", "z", "T")
    assert one == 1
