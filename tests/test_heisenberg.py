import random

import pytest
from hypothesis import given, settings, strategies as st

from blowring.fractions import RingFraction
from blowring.heisenberg import VARS, HeisenbergElement, commutes_at_q1, poisson_from_q, torus_monomial
from blowring.poisson import torus_chart
from blowring.poly import LaurentPoly
from blowring.rootdata import sl2
from blowring.scalars import ZERO, gauss

from conftest import random_gaussian

DATUM = sl2()
ALPHA = (2,)  # weight coordinates of the root
ALPHACH = (1,)  # coweight coordinates of the coroot


def basis(q=0, lam=(0,), mu=(0,), coeff=1):
    return HeisenbergElement.basis(q_power=q, coweight=lam, weight=mu, coeff=coeff)


class TestMultiplicationRule:
    def test_pairing_twist(self):
        # (q^0, 1, e^alpha)(q^0, e^alphach, 1) lands in q^<alpha, alphach> = q^2
        got = basis(mu=ALPHA) * basis(lam=ALPHACH)
        assert got == basis(q=2, lam=ALPHACH, mu=ALPHA)

    def test_identity(self):
        e = basis(q=1, lam=(2,), mu=(-1,), coeff=gauss(3, 1))
        assert HeisenbergElement.one() * e == e
        assert e * HeisenbergElement.one() == e

    def test_no_twist_in_reverse_order(self):
        got = basis(lam=ALPHACH) * basis(mu=ALPHA)
        assert got == basis(lam=ALPHACH, mu=ALPHA)

    def test_foreign_variable(self):
        with pytest.raises(ValueError, match="not in target list"):
            HeisenbergElement(LaurentPoly.var("y"))
        with pytest.raises(ValueError, match="length mismatch"):
            HeisenbergElement.basis(coweight=(1, 0))

    def test_text_form(self):
        assert str(basis(q=2, lam=ALPHACH, mu=ALPHA)) == "q^2*t*z^2"
        assert str(basis(lam=ALPHACH, mu=ALPHA, coeff=-3)) == "-3*t*z^2"
        assert str(HeisenbergElement(LaurentPoly.zero())) == "0"


def random_element(rng, max_terms=3):
    e = HeisenbergElement(LaurentPoly.zero())
    for _ in range(rng.randint(1, max_terms)):
        e = e + HeisenbergElement.basis(
            q_power=rng.randint(-2, 2),
            coweight=(rng.randint(-2, 2),),
            weight=(rng.randint(-2, 2),),
            coeff=random_gaussian(rng, span=4),
        )
    return e


class TestAlgebraLaws:
    def test_associativity_random(self):
        rng = random.Random(17)
        for _ in range(60):
            u, v, w = (random_element(rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_commutators_vanish_at_q1(self):
        rng = random.Random(23)
        for _ in range(40):
            u, v = (random_element(rng) for _ in range(2))
            assert commutes_at_q1(u, v)

    def test_distributivity(self):
        rng = random.Random(29)
        u, v, w = (random_element(rng) for _ in range(3))
        assert u * (v + w) == u * v + u * w


class TestPoissonLimit:
    def test_root_pairing_bracket(self):
        # {e^alphach, e^alpha} = -<alpha, alphach> * monomial = -2 t z^2
        u = basis(lam=ALPHACH)
        v = basis(mu=ALPHA)
        got = poisson_from_q(u, v)
        t, zz = torus_monomial(ALPHACH, (0,)), torus_monomial((0,), ALPHA)
        assert got == (t * zz) * -2

    def test_antisymmetry(self):
        rng = random.Random(31)
        u = random_element(rng)
        assert poisson_from_q(u, u).is_zero()
        v = random_element(rng)
        assert poisson_from_q(u, v) == -poisson_from_q(v, u)

    def test_matches_chart_bracket(self):
        rng = random.Random(37)
        chart = torus_chart()
        for _ in range(10):
            lam1, mu1 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
            lam2, mu2 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
            u = HeisenbergElement.basis(coweight=lam1, weight=mu1)
            v = HeisenbergElement.basis(coweight=lam2, weight=mu2)
            derived = poisson_from_q(u, v)
            expected = chart.bracket(
                torus_monomial(lam1, mu1), torus_monomial(lam2, mu2)
            )
            assert RingFraction.of(derived) == expected

    def test_monomial_formula(self):
        # on monomials the bracket is (<mu1, lam2> - <mu2, lam1>) * product
        u = HeisenbergElement.basis(coweight=(2,), weight=(1,))
        v = HeisenbergElement.basis(coweight=(-1,), weight=(3,))
        coeff = DATUM.pairing((1,), (-1,)) - DATUM.pairing((3,), (2,))
        assert poisson_from_q(u, v) == torus_monomial((1,), (4,)) * coeff

    def test_jacobi_on_monomials(self):
        rng = random.Random(41)
        chart = torus_chart()
        for _ in range(20):
            monos = [
                torus_monomial((rng.randint(-2, 2),), (rng.randint(-2, 2),))
                for _ in range(3)
            ]
            assert chart.jacobi_sum(*monos).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
)
def test_single_generator_commutator_exponent(a1, b1, a2, b2):
    """The q-twist between pure basis elements is exactly the lattice pairing."""
    u = HeisenbergElement.basis(coweight=(a1,), weight=(b1,))
    v = HeisenbergElement.basis(coweight=(a2,), weight=(b2,))
    prod = u * v
    (exps,) = prod.poly.terms
    assert exps == (b1 * a2, a1 + a2, b1 + b2)


def dict_rule_product(u, v):
    """The twisted product on (n, lam, mu) term dicts, written out term by term."""
    terms = {}
    for (n1, lam1, mu1), c1 in u.items():
        for (n2, lam2, mu2), c2 in v.items():
            key = (n1 + n2 + DATUM.pairing((mu1,), (lam2,)), lam1 + lam2, mu1 + mu2)
            terms[key] = terms.get(key, ZERO) + c1 * c2
    return {k: c for k, c in terms.items() if c}


exponent = st.integers(-3, 3)
term_dicts = st.dictionaries(
    st.tuples(exponent, exponent, exponent),
    st.builds(gauss, st.integers(-4, 4), st.integers(-2, 2)),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(term_dicts, term_dicts)
def test_product_matches_the_term_dict_rule(u, v):
    got = HeisenbergElement(LaurentPoly(VARS, u)) * HeisenbergElement(LaurentPoly(VARS, v))
    assert got.poly.terms == dict_rule_product(u, v)
