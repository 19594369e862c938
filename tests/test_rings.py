"""The subalgebra oracle's memoized rewrite, and the bases a saturated ring reuses.

``SubalgebraOracle.rewrite`` sums memoized normal forms of monomials; the
reference reduces the whole encoded element by the oracle's basis in one go
(``Elimination.certificate``). Normal forms modulo a Gröbner basis are unique
and linear, so the two must agree on members and non-members alike.

A rank-1 blow-up's ring is presented by its relation wall*T - n alone:
by lemma 1 of ``blowring.blowup`` saturating it at the wall adds nothing.
So its reduced basis equals that of the saturation, and building a blow-up,
or a ``blowup:<flavor>`` control, and deciding a first membership run
Buchberger once and build no elimination ideal.

``PresentedRing.split`` moves negative powers of non-units from the
numerator and the denominator across, as one monomial.
"""

import pytest
from hypothesis import given, settings, strategies as st

import blowring.groebner as groebner
from blowring.blowup import FLAVORS, build_blowup, membership
from blowring.centralizer import model
from blowring.fractions import RingFraction
from blowring.kring import KRing
from blowring.poly import LaurentPoly, parse_poly
from blowring.rings import PresentedRing
from blowring.rootdata import sl2
from blowring.scalars import gauss
from blowring.verify import CONTROLS


@pytest.fixture(scope="module")
def oracles(blowups):
    """The S <-> GG identification oracle and the K-ring's blow-up oracle, with their generators."""
    m, B = model("S"), blowups["GG"]
    certs = [membership(m.parametrization.images[c], B).certificate for c in m.coords]
    K = KRing()
    kcerts = K.generator_certificates()
    return {
        "S <-> GG": (B.ring.subalgebra_oracle(certs, m.coords), certs),
        "kring": (K._blowup_oracle(), [kcerts[c] for c in K.model.coords]),
    }


coefficients = st.builds(gauss, st.integers(-3, 3), st.integers(-2, 2))
tag_monomials = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2)
perturbations = st.sampled_from(["0", "T", "y", "z^-1", "y*z", "y^-1*T", "z^2"])


@st.composite
def elements(draw, gens):
    """A polynomial in the generators, plus a Laurent monomial that may leave the subalgebra."""
    terms = draw(st.dictionaries(tag_monomials, coefficients, min_size=1, max_size=3))
    f = LaurentPoly.const(0)
    for exps, c in terms.items():
        term = LaurentPoly.const(c)
        for g, e in zip(gens, exps):
            term = term * g**e
        f = f + term
    return f + draw(coefficients) * parse_poly(draw(perturbations))


@pytest.mark.parametrize("name", ["S <-> GG", "kring"])
class TestMemoizedRewrite:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_direct_certificate(self, oracles, name, data):
        oracle, gens = oracles[name]
        f = data.draw(elements(gens))
        assert oracle.rewrite(f) == oracle.ideal.certificate(oracle.ring._encode(f))

    def test_generators_rewrite_to_their_tags(self, oracles, name):
        oracle, gens = oracles[name]
        for tag, g in zip(oracle.tags, gens):
            assert oracle.rewrite(g) == LaurentPoly.var(tag).with_vars(oracle.tags)
        assert not oracle.contains(parse_poly("T"))

    def test_a_repeated_rewrite_reduces_nothing(self, oracles, name, monkeypatch):
        oracle, gens = oracles[name]
        f = sum(gens, LaurentPoly.const(0)) ** 3 + parse_poly("y*T")
        first = oracle.rewrite(f)
        calls = []
        inner = groebner.normal_form
        monkeypatch.setattr(groebner, "normal_form", lambda *a, **k: calls.append(1) or inner(*a, **k))
        assert oracle.rewrite(f) == first
        assert calls == []

    def test_foreign_variable_rejected(self, oracles, name):
        with pytest.raises(ValueError, match="not in target list"):
            oracles[name][0].rewrite(parse_poly("q + y"))


def test_rewrite_sum_is_bounded_by_the_term_cap():
    # each memoized monomial normal form has one term; their sum has ten
    oracle = PresentedRing((), ("x",)).subalgebra_oracle([parse_poly("x")], ["s"])
    f = sum((parse_poly("x") ** k for k in range(10)), LaurentPoly.const(0))
    assert len(oracle.rewrite(f).terms) == 10
    with groebner.term_budget(9), pytest.raises(groebner.ResourceLimitError, match="rewrite"):
        oracle.rewrite(f)
    with groebner.term_budget(10):
        assert len(oracle.rewrite(f).terms) == 10


def _refuse(*args, **kwargs):
    raise AssertionError("an elimination ideal was built")


def _blowup(name):
    flavor = name.removeprefix("blowup:")
    B = build_blowup(sl2(), flavor)
    return B if name == flavor else CONTROLS[name][1](B)


BLOWUP_NAMES = [*FLAVORS, *(f"blowup:{flavor}" for flavor in FLAVORS)]


@pytest.mark.parametrize("name", BLOWUP_NAMES)
def test_build_and_first_membership_build_no_basis(name, monkeypatch):
    calls = []
    inner = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *a, **k: calls.append(1) or inner(*a, **k))
    monkeypatch.setattr(groebner.Elimination, "__init__", _refuse)
    B = _blowup(name)
    res = membership(RingFraction(B.numerators[0], B.walls[0]), B)
    assert res.member == (name in FLAVORS)
    assert len(calls) == 0  # the relation is checked as a generator, not reduced by a basis


# the relation ideal is its own saturation, so its basis is the saturation's
@pytest.mark.parametrize("name", BLOWUP_NAMES)
def test_relation_ideal_is_its_own_saturation(name):
    B = _blowup(name)
    ideal = B.ring.ideal
    assert ideal.groebner() == ideal.saturate(B.ring._encode(B.wall_product)).groebner()


def test_split_clears_a_non_unit_the_numerator_does_not_name():
    """The clearing monomial is built over the numerator's variables and then the denominator's,
    so a negative power of a non-unit in the denominator alone still moves across."""
    ring = PresentedRing(["y"], ["x"])
    x, y = LaurentPoly.gens("x y")
    num, den = ring.split(RingFraction(y, x**-1 + 1))
    assert (num, den) == (x * y, x + 1)
    assert num.vars == ("y", "x")
