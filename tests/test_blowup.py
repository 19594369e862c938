import sys
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from blowring.blowup import (
    FLAVORS,
    BlowupError,
    build_blowup,
    denis_check,
    discriminant,
    factor_wall_denominator,
    membership,
    unit_comparison,
    wall_adic_form,
)
from blowring.fractions import RingFraction
from blowring.poisson import standard_chart
from blowring.poly import LaurentPoly, parse_poly
from blowring.rings import PresentedRing
from blowring.verify import CONTROLS

from conftest import sz_agree

y, z, x, u, t = LaurentPoly.gens("y z x u t")


class TestConstruction:
    def test_gG_presentation(self, blowups):
        # C[y^+-, x, (y^2-1)/x] presented by T x = y^2 - 1
        B = blowups["gG"]
        assert B.ring.laurent_vars == ("y",)
        assert set(B.ring.poly_vars) == {"x", "T"}
        assert B.numerators[0] == y**2 - 1
        assert B.walls[0] == x
        assert B.ring.nf(LaurentPoly.var("T") * x - (y**2 - 1)).is_zero()

    def test_GG_presentation(self, blowups):
        B = blowups["GG"]
        assert B.numerators[0] == y**2 - 1
        assert B.walls[0] == z**2 - 1

    def test_gg_presentation(self, blowups):
        # C[u, x, u/x]
        B = blowups["gg"]
        assert B.numerators[0] == u
        assert B.walls[0] == x

    def test_GGv_presentation(self, blowups):
        B = blowups["GGv"]
        assert B.numerators[0] == t - 1
        assert B.walls[0] == z**2 - 1

    def test_defining_fraction_membership(self, blowups):
        for flavor, B in blowups.items():
            res = membership(RingFraction(B.numerators[0], B.walls[0]), B)
            assert res.member, flavor
            assert B.ring.nf(res.certificate - LaurentPoly.var("T")).is_zero(), flavor

    def test_weyl_preserves_relation_ideal(self, blowups):
        for flavor, B in blowups.items():
            rel = LaurentPoly.var("T") * B.walls[0] - B.numerators[0]
            (w,) = B.weyl.generators
            assert B.ring.nf(w(rel)).is_zero(), flavor

    def test_domain_spot_check(self, blowups):
        # no zero divisors among products of the coordinate generators
        for flavor, B in blowups.items():
            gens = [LaurentPoly.var(v) for v in B.first_vars + B.second_vars + B.gen_names]
            for f in gens:
                for g in gens:
                    assert not B.ring.nf(f * g).is_zero(), (flavor, f, g)

    def test_unknown_flavor(self, sl2_datum):
        with pytest.raises(BlowupError):
            build_blowup(sl2_datum, "XX")


def _in_wall_adic_form(B, p) -> bool:
    """Whether every T^j coefficient of p, j >= 1, has its degrees in the wall's variable s in
    [lo, hi) over a torus base and in [0, hi) over a Lie base, lo and hi the wall's lowest and
    highest degrees in s: the window of lemma 3, read off the wall alone."""
    (s,), (T,), wall = B.second_vars, B.gen_names, B.wall_product
    degrees = [e[wall.vars.index(s)] for e in wall.terms]
    start = min(degrees) if s in B.ring.laurent_vars else 0
    p = p.with_vars(tuple(sorted(set(p.vars) | {s, T})))
    si, ti = p.vars.index(s), p.vars.index(T)
    return all(start <= e[si] < max(degrees) for e in p.terms if e[ti])


def _same_element(B, certificate, want) -> bool:
    """A certificate against the division engine's: the same element of B, and in the reduced
    wall-adic form, which is unique (lemma 3), so this pins it as a text comparison would."""
    if want is None:
        return certificate is None
    return B.ring.equal(certificate, want) and _in_wall_adic_form(B, certificate)


class TestMembership:
    def test_generator_certificate(self, blowups):
        res = membership(RingFraction(y**2 - 1, z**2 - 1), blowups["GG"])
        assert res.member and res.certificate == LaurentPoly.var("T")

    def test_invariant_presentation_agrees(self, blowups):
        # (y-y^-1)/(z-z^-1) = (z/y) * (y^2-1)/(z^2-1): same subring
        B = blowups["GG"]
        frac = RingFraction(y - y**-1, z - z**-1)
        res = membership(frac, B)
        assert res.member
        # the certificate equals (z/y) T in the quotient
        assert B.ring.equal(res.certificate, z * y**-1 * LaurentPoly.var("T"))
        # and (z/y) T is the fraction, with T = (y^2-1)/(z^2-1)
        assert frac == RingFraction(z * y**-1 * (y**2 - 1), z**2 - 1)

    def test_non_member(self, blowups):
        res = membership(RingFraction(LaurentPoly.const(1), z**2 - 1), blowups["GG"])
        assert not res.member

    def test_membership_closed_under_arithmetic(self, blowups):
        B = blowups["GG"]
        f = RingFraction(y**2 - 1, z**2 - 1)
        g = RingFraction(y - y**-1, z - z**-1)
        for combo in (f + g, f * g):
            assert membership(combo, B).member

    def test_wall_factorization(self):
        k, unit = factor_wall_denominator((z**2 - 1) ** 2 * z**-3 * 5, z**2 - 1, ("z",))
        assert k == 2 and unit == 5 * z**-3
        with pytest.raises(BlowupError):
            factor_wall_denominator(z**2 - 2, z**2 - 1, ("z",))
        with pytest.raises(BlowupError):  # a unit wall divides out for ever
            factor_wall_denominator(z**2 + 1, z, ("z",))
        with pytest.raises(BlowupError):  # the wall's powers are dense in one variable
            factor_wall_denominator(y * z - 1, y * z - 1, ("y", "z"))

    def test_wall_in_a_non_invertible_variable(self):
        # x is no unit, so (x^2 + 1)/x = x + x^-1 is no division in the ring:
        # factoring must stop there rather than divide by x for ever
        with pytest.raises(BlowupError):
            factor_wall_denominator(x**2 + 1, x, ())
        assert factor_wall_denominator(3 * x**2, x, ()) == (2, 3)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("j, k", [(0, 1), (1, 2), (2, 3), (2, 2)])
    def test_wall_factors_cancel_to_the_same_certificate(self, blowups, flavor, j, k):
        B = blowups[flavor]
        wall = B.wall_product
        for g in (B.numerators[0], LaurentPoly.const(1)):
            res = membership(RingFraction(wall**j * g, wall**k), B)
            want = B.ring.divide(wall**j * g, wall, power=k)
            assert res.member is (want is not None)
            assert _same_element(B, res.certificate, want)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize(
        "i, j, k", [(0, 1, 1), (0, 1, 2), (0, 2, 2), (1, 1, 2), (0, 2, 3), (1, 2, 3), (0, 3, 3), (0, 2, 1), (1, 3, 2)]
    )
    def test_numerator_factors_cancel_to_the_same_certificate(self, blowups, flavor, i, j, k):
        B = blowups[flavor]
        wall, n = B.wall_product, B.numerators[0]
        res = membership(RingFraction(wall**i * n**j, wall**k), B)
        want = B.ring.divide(wall**i * n**j, wall, power=k)
        assert res.member is (want is not None)
        assert _same_element(B, res.certificate, want)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_numerator_cancellation_needs_the_relation(self, blowups, flavor):
        B = blowups[flavor]
        wall, n = B.wall_product, B.numerators[0]
        assert not membership(RingFraction(LaurentPoly.const(1), wall), B).member
        # the control keeps B.numerators but perturbs the relation T*wall = n
        bad = CONTROLS[f"blowup:{flavor}"][1](B)
        assert bad.numerators == B.numerators
        assert not membership(RingFraction(n, wall), bad).member
        for j, k in ((1, 2), (2, 2)):
            res = membership(RingFraction(n**j, wall**k), bad)
            assert _same_element(bad, res.certificate, bad.ring.divide(n**j, wall, power=k))

    def test_numerator_wall_factor_cancels_to_T(self, blowups):
        res = membership(RingFraction((y**2 - 1) * (z**2 - 1), (z**2 - 1) ** 2), blowups["GG"])
        assert res.member and str(res.certificate) == "T"

    def test_invalid_denominator_rejected(self, blowups):
        with pytest.raises(BlowupError):
            membership(RingFraction(LaurentPoly.const(1), y**2 - 1), blowups["GG"])

    def test_named_invariant_fractions_are_members(self, blowups):
        # the W-invariant subalgebra contains everything named for GG rank 1:
        # y + y^-1, z + z^-1 and the invariant wall ratio itself
        B = blowups["GG"]
        named = [
            RingFraction(y + y**-1),
            RingFraction(z + z**-1),
            RingFraction(y - y**-1, z - z**-1),
        ]
        (w,) = B.weyl.generators
        for frac in named:
            assert RingFraction(w(frac.num), w(frac.den)) == frac
            assert membership(frac, B).member


def _relation_numerator(B):
    """n = wall*T - relation, read from the ring as membership reads it."""
    (relation,) = B.ring.relations
    return B.wall_product * LaurentPoly.var(B.gen_names[0]) - relation


@pytest.fixture(scope="module")
def controlled(blowups):
    """Each blow-up under its negative control."""
    return {flavor: CONTROLS[f"blowup:{flavor}"][1](B) for flavor, B in blowups.items()}


class TestDigits:
    """membership decides by n-adic digits; the division engine is the reference."""

    @pytest.mark.parametrize("control", [False, True], ids=["ring", "control"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_digits_agree_with_the_division_engine(self, blowups, controlled, flavor, control, data):
        B = (controlled if control else blowups)[flavor]
        (f,), (s,), units = B.first_vars, B.second_vars, B.ring.laurent_vars
        exps = lambda v: st.integers(-1 if v in units else 0, 2)

        def small():
            terms = st.tuples(exps(f), exps(s), st.integers(-2, 2))
            drawn = data.draw(st.lists(terms, max_size=2))
            return sum((c * LaurentPoly.monomial(1, {f: a, s: b}) for a, b, c in drawn), LaurentPoly.zero())

        k = data.draw(st.integers(0, 6))
        n, wall = _relation_numerator(B), B.wall_product
        # a member of I^k for I = (n, wall); I is proper, so a constant c != 0 breaks that for k > 0
        p = sum((n**j * wall ** (k - j) * small() for j in range(k + 1)), LaurentPoly.zero())
        if data.draw(st.booleans()):
            p = p + small() + data.draw(st.integers(0, 2))
        res = membership(RingFraction(p, wall**k), B)
        want = B.ring.divide(p, wall, power=k)
        event(f"member={res.member}")
        assert res.member is (want is not None)
        assert _same_element(B, res.certificate, want)

    def test_slowest_stream_bracket_agrees_with_the_division_engine(self, blowups):
        # a GGv bracket of two products of wall fractions, over wall^14
        B = blowups["GGv"]
        gens = B.invariant_gens
        br = standard_chart(B).bracket(gens[3] * gens[3], gens[2] * gens[3])
        num, den = B.ring.split(br)
        k, unit = factor_wall_denominator(den, B.wall_product, B.ring.laurent_vars)
        assert k == 14
        res = membership(br, B)
        want = B.ring.divide(num * unit.monomial_inverse(), B.wall_product, power=k)
        assert res.member and want is not None
        assert _same_element(B, res.certificate, want)

    @pytest.mark.parametrize("flavor", ["gg", "gG"])
    def test_a_negative_power_of_the_wall_variable_is_no_member(self, blowups, flavor):
        # the wall x is no unit: a digit x^j*c over x^k (j < k) divides in k[x^(+-)] to
        # c*x^(j-k), which is no ring element, and the decision must stop there
        B = blowups[flavor]
        wall, n = B.wall_product, B.numerators[0]
        for p, k in ((LaurentPoly.const(1), 1), (wall + 1, 2), (wall**3 * 2 + n, 5), (n * (wall**2 + wall), 4)):
            res = membership(RingFraction(p, wall**k), B)
            assert not res.member and res.certificate is None, (p, k)
            assert B.ring.divide(p, wall, power=k) is None, (p, k)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_numerators_with_T(self, blowups, flavor):
        B = blowups[flavor]
        wall, n, T = B.wall_product, B.numerators[0], LaurentPoly.var("T")
        for p, k in ((T, 1), (T * wall - n, 2), (T**2 * n, 1), (T * n + wall, 1), (T**2 - T, 3)):
            res = membership(RingFraction(p, wall**k), B)
            want = B.ring.divide(p, wall, power=k)
            assert res.member is (want is not None), (p, k)
            assert _same_element(B, res.certificate, want), (p, k)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_relation_outside_the_digit_form_raises(self, blowups, flavor):
        B = blowups[flavor]
        (f,), (s,), units = B.first_vars, B.second_vars, B.ring.laurent_vars
        T, wall, n = LaurentPoly.var("T"), B.wall_product, B.numerators[0]
        bad_numerators = [
            n + LaurentPoly.var(s),  # a second-factor variable in n
            LaurentPoly.var(f) if f in units else LaurentPoly.const(1),  # a unit n
            n * 2,  # not monic
        ]
        if f in units:
            bad_numerators.append(n * LaurentPoly.var(f))  # f divides n
        for bad_n in bad_numerators:
            ring = PresentedRing(B.ring.laurent_vars, B.ring.poly_vars, [T * wall - bad_n])
            with pytest.raises(BlowupError):
                membership(RingFraction(n, wall), replace(B, ring=ring))

    def test_relation_must_vanish_in_the_ring(self, blowups):
        B = blowups["GG"]
        # the relation is recorded, but the ideal is that of the ring without it
        ring = PresentedRing(B.ring.laurent_vars, B.ring.poly_vars, B.ring.relations)
        ring.ideal = PresentedRing(B.ring.laurent_vars, B.ring.poly_vars).ideal
        with pytest.raises(BlowupError):
            membership(RingFraction(B.numerators[0], B.walls[0]), replace(B, ring=ring))

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_control_reads_its_own_relation(self, sl2_datum, flavor):
        # a blow-up of its own, so that its context is certainly built before the control's
        B = build_blowup(sl2_datum, flavor)
        ratio = RingFraction(B.numerators[0], B.walls[0])
        assert str(membership(ratio, B).certificate) == "T"
        bad = CONTROLS[f"blowup:{flavor}"][1](B)
        assert not membership(ratio, bad).member
        assert membership(ratio, B).member


@pytest.mark.parametrize("control", [False, True], ids=["ring", "control"])
@pytest.mark.parametrize("flavor", FLAVORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wall_adic_form_is_a_normal_form(blowups, controlled, flavor, control, data):
    """The wall-adic form against the Gröbner engine: it is constant on cosets of the
    relation, equal to its input in B, and reduced."""
    B = (controlled if control else blowups)[flavor]
    (f,), (s,), (T,), units = B.first_vars, B.second_vars, B.gen_names, B.ring.laurent_vars
    exps = lambda v: st.integers(-2 if v in units else 0, 3)

    def draw():
        terms = st.tuples(exps(f), exps(s), st.integers(0, 3), st.integers(-3, 3))
        drawn = data.draw(st.lists(terms, max_size=4))
        return sum((c * LaurentPoly.monomial(1, {f: a, s: b, T: j}) for a, b, j, c in drawn), LaurentPoly.zero())

    (relation,) = B.ring.relations
    p, h = draw(), draw()
    form = wall_adic_form(p, B)
    assert str(wall_adic_form(p + h * relation, B)) == str(form)
    assert B.ring.equal(form, p) and _in_wall_adic_form(B, form)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_wall_adic_form_refuses_a_negative_power_of_a_non_unit(blowups, flavor):
    B = blowups[flavor]
    for v in B.ring.poly_vars:
        with pytest.raises(BlowupError):
            wall_adic_form(LaurentPoly.var(v) ** -1 + 1, B)


@pytest.mark.parametrize("control", [False, True], ids=["ring", "control"])
def test_membership_uses_no_division_engine(blowups, controlled, monkeypatch, control):
    """Membership on a fresh copy of every flavor, and of its control, with the generic
    division and normal-form paths disabled: the first call checks the relation from the
    presentation, and certificates come in the wall-adic form (lemma 3)."""
    from blowring import groebner

    def refuse(*args, **kwargs):
        raise AssertionError("membership reached the division engine")

    def fresh(B, relations):
        return PresentedRing(B.ring.laurent_vars, B.ring.poly_vars, relations)

    rings = [replace(B, ring=fresh(B, B.ring.relations)) for B in (controlled if control else blowups).values()]
    engine = {name: getattr(groebner, name) for name in ("laurent_exact_divide", "buchberger", "normal_form")}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("blowring"):
            for name, function in engine.items():  # every module that imported it by name
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(PresentedRing, "divide", refuse)
    monkeypatch.setattr(PresentedRing, "nf", refuse)
    for B in rings:
        wall, n = B.wall_product, B.numerators[0]
        chart = standard_chart(B)
        fracs = [RingFraction(n, wall), RingFraction(n**2 + wall, wall**3), RingFraction(LaurentPoly.const(1), wall)]
        fracs += [chart.bracket(f, g) for f, g in combinations(B.invariant_gens, 2)]
        for frac in fracs:
            membership(frac, B)
        # an ideal that contains the relation but is built from twice it is refused
        doubled = fresh(B, B.ring.relations)
        doubled.ideal = fresh(B, [B.ring.relations[0] * 2]).ideal
        with pytest.raises(BlowupError):
            membership(RingFraction(n, wall), replace(B, ring=doubled))


class TestLaurentCertificates:
    """Certificates and normal forms come back in the ring's own variables."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_results_use_ring_variables(self, blowups, flavor):
        B = blowups[flavor]
        own = set(B.ring.laurent_vars + B.ring.poly_vars)
        chart = standard_chart(B)
        fracs = [RingFraction(B.numerators[0], B.walls[0])]
        fracs += [chart.bracket(f, g) for f, g in combinations(B.invariant_gens, 2)]
        for frac in fracs:
            if frac.is_zero():
                continue
            res = membership(frac, B)
            assert res.member, str(frac)
            assert set(res.certificate.support_vars()) <= own, str(res.certificate)
        units = LaurentPoly.const(1)
        for v in B.ring.laurent_vars:
            units = units * LaurentPoly.var(v) ** -1
        normal = B.ring.nf(units * (B.numerators[0] + 1))
        quotient = B.ring.divide(units * B.numerators[0], B.walls[0])
        for p in (normal, quotient):
            assert set(p.support_vars()) <= own, str(p)
        assert B.ring.equal(quotient, units * LaurentPoly.var(B.gen_names[0]))


class TestDenis:
    def test_square_character_passes(self, sl2_datum):
        assert denis_check(parse_poly("z^2"), sl2_datum, "GGv")

    def test_sign_failure(self, sl2_datum):
        assert not denis_check(parse_poly("z"), sl2_datum, "GGv")

    def test_scalar_failure(self, sl2_datum):
        assert not denis_check(parse_poly("2*z^2"), sl2_datum, "GGv")

    def test_group_group_condition(self, sl2_datum):
        # alpha(f) = f^2 restricted to the wall: any +-1 scalar passes
        assert denis_check(parse_poly("z"), sl2_datum, "GG")
        assert not denis_check(parse_poly("2*z"), sl2_datum, "GG")

    def test_lie_fiber_vacuous(self, sl2_datum):
        assert denis_check(parse_poly("z^5"), sl2_datum, "Gg")
        assert denis_check(parse_poly("x"), sl2_datum, "gg")

    def test_non_unit_rejected(self, sl2_datum):
        with pytest.raises(BlowupError):
            denis_check(parse_poly("z + 1"), sl2_datum, "GGv")

    @pytest.mark.parametrize("flavor", ["gG", "GG", "GGv"])
    def test_constant_is_judged_by_its_scalar(self, sl2_datum, flavor):
        # the trivial character: only its scalar can fail
        assert denis_check(parse_poly("1"), sl2_datum, flavor)
        assert not denis_check(parse_poly("2"), sl2_datum, flavor)

    @pytest.mark.parametrize("flavor", ["gG", "GG", "GGv"])
    def test_foreign_variable_raises(self, sl2_datum, flavor):
        s = "x" if flavor == "gG" else "z"
        for text in ("y^2", f"{s}^2*y", "w", "z^2" if flavor == "gG" else "x^2"):
            with pytest.raises(BlowupError, match="second-factor variable"):
                denis_check(parse_poly(text), sl2_datum, flavor)

    @pytest.mark.parametrize("flavor", ["gg", "Gg"])
    def test_lie_fiber_takes_anything(self, sl2_datum, flavor):
        for text in ("1", "2", "y^2", "z^2*y", "z + 1"):
            assert denis_check(parse_poly(text), sl2_datum, flavor)


class TestDiscriminant:
    def test_group_base(self, sl2_datum):
        disc = discriminant(sl2_datum, "GG")
        assert disc == (z**2 - 1) * (z**-2 - 1)

    def test_lie_base(self, sl2_datum):
        assert discriminant(sl2_datum, "gG") == -(x**2)

    def test_w_invariance(self, blowups):
        for flavor, B in blowups.items():
            disc = discriminant(B.datum, flavor)
            (w,) = B.weyl.generators
            assert w(disc) == disc, flavor


# Construction and Denis verdicts per flavor, pinned from the rank-generic code this
# module replaced: (discriminant, ring's (laurent_vars, poly_vars), numerator, wall),
# each polynomial as (text, variable tuple).
PINNED = {
    "gg": (("-x^2", ("x",)), ((), ("u", "x", "T")), ("u", ("u",)), ("x", ("x",))),
    "Gg": (("-z^2 + 2 - z^-2", ("z",)), (("z",), ("x", "T")), ("x", ("x",)), ("z^2 - 1", ("z",))),
    "gG": (("-x^2", ("x",)), (("y",), ("x", "T")), ("y^2 - 1", ("y",)), ("x", ("x",))),
    "GG": (("-z^2 + 2 - z^-2", ("z",)), (("y", "z"), ("T",)), ("y^2 - 1", ("y",)), ("z^2 - 1", ("z",))),
    "GGv": (("-z^2 + 2 - z^-2", ("z",)), (("t", "z"), ("T",)), ("t - 1", ("t",)), ("z^2 - 1", ("z",))),
}
DENIS_INPUTS = ("z^2", "z", "2*z^2", "z^-2", "z^4", "-z^2", "i*z^2", "z^3", "x", "z + 1")
# verdict per input, BlowupError for a raise; gG's z-monomials name a foreign variable
# and are left to TestDenis
PINNED_DENIS = {
    "gg": (True,) * 10,
    "Gg": (True,) * 10,
    "gG": (None,) * 8 + (False, BlowupError),
    "GG": (True, True, False, True, True, True, False, True, BlowupError, BlowupError),
    "GGv": (True, False, False, True, True, False, False, False, BlowupError, BlowupError),
}


def _text(p):
    return str(p), p.vars


@pytest.mark.parametrize("flavor", FLAVORS)
def test_pinned_construction(sl2_datum, blowups, flavor):
    disc, ring_vars, num, wall = PINNED[flavor]
    B = blowups[flavor]
    assert _text(discriminant(sl2_datum, flavor)) == disc
    assert (B.ring.laurent_vars, B.ring.poly_vars) == ring_vars
    assert [_text(p) for p in B.numerators] == [num]
    assert [_text(p) for p in B.walls] == [wall]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_pinned_denis_verdicts(sl2_datum, flavor):
    for text, want in zip(DENIS_INPUTS, PINNED_DENIS[flavor]):
        if want is BlowupError:
            with pytest.raises(BlowupError):
                denis_check(parse_poly(text), sl2_datum, flavor)
        elif want is not None:
            assert denis_check(parse_poly(text), sl2_datum, flavor) is want, text


class TestUnitIdentity:
    def test_single_character(self):
        d1, d2, unit = unit_comparison([z**2])
        assert d1 == 1 - z**2
        assert d2 == 1 - z**-2
        assert unit == -(z**2)

    def test_empty_product(self):
        assert unit_comparison([]) == (
            LaurentPoly.const(1),
            LaurentPoly.const(1),
            LaurentPoly.const(1),
        )

    def test_tangent_space_characters(self):
        d1, d2, unit = unit_comparison([z**2, z**4])
        assert d1 == d2 * unit
        assert sz_agree(RingFraction(d1), RingFraction(d2 * unit), ("z",))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4))
    def test_property_two_variables(self, exponents):
        chars = [LaurentPoly.monomial(1, {"z": a, "y": b}) for a, b in exponents]
        d1, d2, unit = unit_comparison(chars)
        assert d1 == d2 * unit

    def test_non_monomial_rejected(self):
        with pytest.raises(BlowupError):
            unit_comparison([z + 1])
