import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from blowring.fractions import RingFraction
from blowring.poly import LaurentPoly, PolyParseError, format_poly, parse_poly
from blowring.scalars import gauss

from conftest import random_laurent, random_point, sz_agree

y, z = LaurentPoly.gens("y z")


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (y + y**-1) * (y - y**-1) == y**2 - y**-2

    def test_multiplicative_identity(self):
        f = parse_poly("(1+2i)*y^2*z^-1 + 3")
        assert f * LaurentPoly.const(1) == f

    def test_binomial_expansion(self):
        assert (z + z**-1) ** 2 == z**2 + 2 + z**-2

    def test_variable_alignment_by_name_union(self):
        f = LaurentPoly.var("y") + 1
        g = LaurentPoly.var("z") - 1
        assert (f + g).support_vars() == ("y", "z")

    def test_monomial_inverse(self):
        m = parse_poly("2i*y^3*z^-1")
        assert m * m.monomial_inverse() == LaurentPoly.const(1)
        with pytest.raises(ValueError):
            (y + z).monomial_inverse()


class TestCalculus:
    def test_derivative_on_laurent_terms(self):
        assert (y**-1).derivative("y") == -(y**-2)
        assert (y**3 + 2 * y).derivative("y") == 3 * y**2 + 2

    def test_log_derivative(self):
        f = y**3 - 5 * y**-2 + 7
        assert f.log_derivative("y") == 3 * y**3 + 10 * y**-2

    def test_substitute_monomials_signs(self):
        f = y**2 + y
        image = {"y": (gauss(-1), {"y": 1})}
        assert f.substitute_monomials(image) == y**2 - y


class TestTextForms:
    def test_canonical_interface_example(self):
        text = "(1+2i)*y^2*z^-1 + 3"
        assert format_poly(parse_poly(text)) == text

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_laurent(rng, ("y", "z"))
            assert parse_poly(format_poly(f)) == f

    def test_json_bit_exact(self):
        f = parse_poly("1/2*y - 3/4i*z^-2 + (2-5i)")
        data = json.loads(json.dumps(f.to_json()))
        assert LaurentPoly.from_json(data) == f
        assert f.to_json()["terms"][0]["c"] == [1, 2, 0, 1]

    def test_parse_errors(self):
        with pytest.raises(PolyParseError):
            parse_poly("y +* z")
        with pytest.raises(PolyParseError):
            parse_poly("y^i")


exps = st.integers(min_value=-4, max_value=4)
coeffs = st.builds(
    gauss,
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5).map(
    lambda terms: LaurentPoly(("y", "z"), terms)
)


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == LaurentPoly.zero()


@settings(max_examples=25, deadline=None)
@given(polys, polys)
def test_schwartz_zippel_screen(f, g):
    """A symbolically-accepted identity also holds at 20 random points."""
    lhs = (f + g) * (f - g)
    rhs = f * f - g * g
    assert lhs == rhs
    assert sz_agree(lhs, rhs, ("y", "z"), rounds=20)


def test_symbolic_numeric_disagreement_is_caught():
    assert not sz_agree(y + 1, y, ("y",), rounds=20)


def test_evaluate_exact():
    f = parse_poly("y^2*z^-1 + 1/2")
    point = {"y": gauss(2), "z": gauss(0, 1)}
    # 4 / i + 1/2 = -4i + 1/2
    assert f.evaluate(point) == gauss(1, -8) / 2


def test_scaled_primitive():
    f = parse_poly("1/2*y + 1/2*y^-1")
    unit, prim = f.scaled_primitive()
    assert prim == y + y**-1
    assert f == prim * unit
    g = parse_poly("-2*y - 4")
    unit, prim = g.scaled_primitive()
    assert prim == y + 2


@pytest.mark.parametrize(
    "base",
    [gauss(1, 2), y + z**-1, RingFraction(y + 1, z - 1)],
    ids=["GaussianRational", "LaurentPoly", "RingFraction"],
)
@pytest.mark.parametrize("n", range(1, 10))
def test_power_squares_only_below_the_top_bit(monkeypatch, base, n):
    """Square-and-multiply makes popcount(n) + bit_length(n) - 1 products, no more."""
    cls = type(base)
    expected = base
    for _ in range(n - 1):
        expected = expected * base
    products = 0
    mul = cls.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counting_mul)
    assert base**n == expected
    assert products == bin(n).count("1") + n.bit_length() - 1
