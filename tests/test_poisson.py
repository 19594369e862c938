import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from blowring.blowup import FLAVORS, factor_wall_denominator, membership
from blowring.fractions import RingFraction, parse_fraction
from blowring.poisson import PoissonChart, bracket_closure_check, standard_chart, torus_chart
from blowring.poly import LaurentPoly

from conftest import random_laurent, sz_agree

y, z = LaurentPoly.gens("y z")

# {(t - t^-1)/(z - z^-1), (t - 2 + t^-1)/(z^2 - 2 + z^-2)} on the GGv chart as
# printed while every sum of fractions cross-multiplied; the difference of its
# two products squared their common denominator
CROSS_MULTIPLIED_GGV_BRACKET = (
    "(z^9*t^2 - 4*z^9*t + 6*z^9 - 7*z^7*t^2 - 4*z^9*t^-1 + 28*z^7*t + z^9*t^-2 - 42*z^7 +"
    " 20*z^5*t^2 + 28*z^7*t^-1 - 80*z^5*t - 7*z^7*t^-2 + 120*z^5 - 28*z^3*t^2 - "
    "80*z^5*t^-1 + 112*z^3*t + 20*z^5*t^-2 - 168*z^3 + 14*z*t^2 + 112*z^3*t^-1 - 56*z*t -"
    " 28*z^3*t^-2 + 84*z + 14*z^-1*t^2 - 56*z*t^-1 - 56*z^-1*t + 14*z*t^-2 + 84*z^-1 - "
    "28*z^-3*t^2 - 56*z^-1*t^-1 + 112*z^-3*t + 14*z^-1*t^-2 - 168*z^-3 + 20*z^-5*t^2 + "
    "112*z^-3*t^-1 - 80*z^-5*t - 28*z^-3*t^-2 + 120*z^-5 - 7*z^-7*t^2 - 80*z^-5*t^-1 + "
    "28*z^-7*t + 20*z^-5*t^-2 - 42*z^-7 + z^-9*t^2 + 28*z^-7*t^-1 - 4*z^-9*t - "
    "7*z^-7*t^-2 + 6*z^-9 - 4*z^-9*t^-1 + z^-9*t^-2) / (z^12 - 12*z^10 + 66*z^8 - 220*z^6"
    " + 495*z^4 - 792*z^2 + 924 - 792*z^-2 + 495*z^-4 - 220*z^-6 + 66*z^-8 - 12*z^-10 + "
    "z^-12)"
)
# the same bracket as printed now: over one denominator, in the ring's order t, z, T
GGV_BRACKET = (
    "(t^2*z^3 - 4*t*z^3 - t^2*z + 6*z^3 + 4*t*z - 4*t^-1*z^3 - t^2*z^-1 - 6*z + t^-2*z^3 "
    "+ 4*t*z^-1 + 4*t^-1*z + t^2*z^-3 - 6*z^-1 - t^-2*z - 4*t*z^-3 + 4*t^-1*z^-1 + 6*z^-3"
    " - t^-2*z^-1 - 4*t^-1*z^-3 + t^-2*z^-3) / (z^6 - 6*z^4 + 15*z^2 - 20 + 15*z^-2"
    " - 6*z^-4 + z^-6)"
)


@pytest.fixture
def plus_chart():
    """The chart of the worked examples: base {log y, log z} = +1."""
    return PoissonChart({"y": "log", "z": "log"}, {("y", "z"): 1})


class TestChartMechanics:
    def test_log_coordinates_chain_rule(self, plus_chart):
        assert plus_chart.bracket(y, z) == RingFraction(y * z)

    def test_orbit_sum_bracket(self, plus_chart):
        got = plus_chart.bracket(y + y**-1, z + z**-1)
        assert got == RingFraction((y - y**-1) * (z - z**-1))

    def test_antisymmetry(self, plus_chart):
        f = y + z + y * z**-1
        assert plus_chart.bracket(f, f).is_zero()

    def test_spec_closure_witness(self, plus_chart):
        # {T, z} with T = (y-y^-1)/(z-z^-1): hand chain rule gives
        # z (y+y^-1)/(z-z^-1)
        T = RingFraction(y - y**-1, z - z**-1)
        got = plus_chart.bracket(T, RingFraction(z))
        want = RingFraction(z * (y + y**-1), z - z**-1)
        assert got == want
        assert sz_agree(got, want, ("y", "z"))

    def test_biderivation(self, plus_chart):
        rng = random.Random(9)
        for _ in range(6):
            f = RingFraction(random_laurent(rng, ("y", "z"), 3))
            g = RingFraction(random_laurent(rng, ("y", "z"), 3))
            h = RingFraction(random_laurent(rng, ("y", "z"), 3))
            assert plus_chart.bracket(f * g, h) == f * plus_chart.bracket(g, h) + plus_chart.bracket(f, h) * g

    def test_jacobi_on_fractions(self, plus_chart):
        T = RingFraction(y - y**-1, z - z**-1)
        assert plus_chart.jacobi_sum(RingFraction(y + y**-1), RingFraction(z + z**-1), T).is_zero()

    def test_linear_kind(self):
        xvar = LaurentPoly.var("x")
        chart = PoissonChart({"x": "linear", "z": "log"}, {("x", "z"): 1})
        assert chart.bracket(xvar * xvar, z) == RingFraction(2 * xvar * z)


class TestStandardCharts:
    def test_orientation_matches_q_deformation(self, sl2_datum, blowups):
        chart = standard_chart(blowups["GG"], kappa=1)
        # {y, z} = -yz in the canonical orientation
        assert chart.bracket(y, z) == RingFraction(-(y * z))

    def test_torus_chart_pairing(self):
        chart = torus_chart()
        tvar, zvar = LaurentPoly.gens("t z")
        assert chart.bracket(tvar, zvar) == RingFraction(-(tvar * zvar))
        assert chart.bracket(tvar**2, zvar**3) == RingFraction(tvar**2 * zvar**3 * -6)

    def test_kappa_scales_uniformly(self, blowups):
        one = standard_chart(blowups["GG"], kappa=1)
        three = standard_chart(blowups["GG"], kappa=3)
        f, g = RingFraction(y + y**-1), RingFraction(z + z**-1)
        assert three.bracket(f, g) == one.bracket(f, g) * 3


class TestClosure:
    def test_all_five_flavors_close(self, blowups):
        for flavor, B in blowups.items():
            report = bracket_closure_check(B)
            assert report.passed, (flavor, [p for p in report.pairs if not p.member])
            assert all(j.zero for j in report.jacobi), flavor

    def test_certificates_verify(self, blowups):
        """Dual route: every closure certificate re-multiplies to the bracket."""
        B = blowups["GG"]
        chart = standard_chart(B)
        gens = list(B.invariant_gens)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                br = chart.bracket(gens[i], gens[j])
                if br.is_zero():
                    continue
                res = membership(br, B)
                assert res.member
                # br == certificate as elements of the quotient ring, checked
                # by clearing the wall denominator exactly
                num, den = B.ring.split(br)
                k, unit = factor_wall_denominator(den, B.wall_product, B.ring.laurent_vars)
                assert B.ring.equal(num * unit.monomial_inverse(), B.wall_product**k * res.certificate)

    def test_report_shape(self, blowups):
        report = bracket_closure_check(blowups["GG"])
        data = report.to_dict()
        assert data["flavor"] == "GG"
        assert {"f", "g", "bracket", "member", "certificate"} <= set(data["pairs"][0])
        assert data["passed"] is True


# Brackets on each flavor's standard chart as printed, pinned with the variable
# lists of numerator and denominator, which decide the printed order: B.ring's
# variables in its order (units, then the rest, T last), zero brackets too.
# Operand "i" is the i-th invariant generator, "0+n" and "0*n" the sum and the
# product of the first and the last. GGv "2", "3" brackets two fractions over
# different denominators; each "i", "i" row is zero.
PRINTED_BRACKETS = [
    ('gg', '0', '1', '2', ('u', 'x', 'T'), ('u', 'x', 'T')),
    ('gg', '0+1', '1', '2', ('u', 'x', 'T'), ('u', 'x', 'T')),
    ('gg', '0*1', '1', '2*u*x^-1', ('u', 'x', 'T'), ('u', 'x', 'T')),
    ('gg', '1', '1', '0', ('u', 'x', 'T'), ('u', 'x', 'T')),
    ('Gg', '0', '1', '(z^2 - 2 + z^-2) / (z^2 - 2 + z^-2)', ('z', 'x', 'T'), ('z', 'x', 'T')),
    ('Gg', '0+1', '1', '(z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4) / (z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4)', ('z', 'x', 'T'), ('z', 'x', 'T')),
    ('Gg', '0*1', '1', '(z^3*x - 3*z*x + 3*z^-1*x - z^-3*x) / (z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4)', ('z', 'x', 'T'), ('z', 'x', 'T')),
    ('Gg', '1', '1', '0', ('z', 'x', 'T'), ('z', 'x', 'T')),
    ('gG', '0', '1', 'y*x - y^-1*x', ('y', 'x', 'T'), ('y', 'x', 'T')),
    ('gG', '0', '2', 'y + y^-1', ('y', 'x', 'T'), ('y', 'x', 'T')),
    ('gG', '1', '2', '1/4*y^2*x^-2 - 1/2*x^-2 + 1/4*y^-2*x^-2', ('y', 'x', 'T'), ('y', 'x', 'T')),
    ('gG', '0+2', '1', 'y*x - 1/4*y^2*x^-2 - y^-1*x + 1/2*x^-2 - 1/4*y^-2*x^-2', ('y', 'x', 'T'), ('y', 'x', 'T')),
    ('gG', '0*2', '1', '1/4*y^2 - 1/2 + 1/4*y^-2', ('y', 'x', 'T'), ('y', 'x', 'T')),
    ('gG', '2', '2', '0', ('y', 'x', 'T'), ('y', 'x', 'T')),
    ('GG', '0', '1', '-y*z + y*z^-1 + y^-1*z - y^-1*z^-1', ('y', 'z', 'T'), ('y', 'z', 'T')),
    ('GG', '0', '2', '(y^2*z + y^2*z^-1 - 2*z - 2*z^-1 + y^-2*z + y^-2*z^-1) / (z^2 - 2 + z^-2)', ('y', 'z', 'T'), ('y', 'z', 'T')),
    ('GG', '1', '2', '(y*z^2 - 2*y + y^-1*z^2 + y*z^-2 - 2*y^-1 + y^-1*z^-2) / (z^2 - 2 + z^-2)', ('y', 'z', 'T'), ('y', 'z', 'T')),
    ('GG', '0+2', '1', '(-y*z^3 - y*z^2 + 3*y*z + y^-1*z^3 + 2*y - y^-1*z^2 - 3*y*z^-1 - 3*y^-1*z - y*z^-2 + 2*y^-1 + y*z^-3 + 3*y^-1*z^-1 - y^-1*z^-2 - y^-1*z^-3) / (z^2 - 2 + z^-2)', ('y', 'z', 'T'), ('y', 'z', 'T')),
    ('GG', '0*2', '1', '(-2*y^2*z^2 + 4*y^2 - 2*y^2*z^-2 - 2*y^-2*z^2 + 4*y^-2 - 2*y^-2*z^-2) / (z^2 - 2 + z^-2)', ('y', 'z', 'T'), ('y', 'z', 'T')),
    ('GG', '2', '2', '0', ('y', 'z', 'T'), ('y', 'z', 'T')),
    ('GGv', '0', '1', 't*z - t*z^-1 - t^-1*z + t^-1*z^-1', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '0', '2', '(t*z^2 - 2*t + t^-1*z^2 + t*z^-2 - 2*t^-1 + t^-1*z^-2) / (z^2 - 2 + z^-2)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '0', '3', '(t*z^3 - 3*t*z - t^-1*z^3 + 3*t*z^-1 + 3*t^-1*z - t*z^-3 - 3*t^-1*z^-1 + t^-1*z^-3) / (z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '1', '2', '(t^2*z + t^2*z^-1 - 2*z - 2*z^-1 + t^-2*z + t^-2*z^-1) / (z^2 - 2 + z^-2)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '1', '3', '(2*t^2*z^2 - 4*t*z^2 + 4*t^-1*z^2 - 2*t^2*z^-2 - 2*t^-2*z^2 + 4*t*z^-2 - 4*t^-1*z^-2 + 2*t^-2*z^-2) / (z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '2', '3', '(t^2*z^3 - 4*t*z^3 - t^2*z + 6*z^3 + 4*t*z - 4*t^-1*z^3 - t^2*z^-1 - 6*z + t^-2*z^3 + 4*t*z^-1 + 4*t^-1*z + t^2*z^-3 - 6*z^-1 - t^-2*z - 4*t*z^-3 + 4*t^-1*z^-1 + 6*z^-3 - t^-2*z^-1 - 4*t^-1*z^-3 + t^-2*z^-3) / (z^6 - 6*z^4 + 15*z^2 - 20 + 15*z^-2 - 6*z^-4 + z^-6)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '0+3', '1', '(t*z^5 - 2*t^2*z^2 - 5*t*z^3 - t^-1*z^5 + 4*t*z^2 + 10*t*z + 5*t^-1*z^3 - 4*t^-1*z^2 + 2*t^2*z^-2 - 10*t*z^-1 - 10*t^-1*z + 2*t^-2*z^2 - 4*t*z^-2 + 5*t*z^-3 + 10*t^-1*z^-1 + 4*t^-1*z^-2 - t*z^-5 - 5*t^-1*z^-3 - 2*t^-2*z^-2 + t^-1*z^-5) / (z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '0*3', '1', '(-t^2*z^3 + 2*t*z^3 - 5*t^2*z + 10*t*z - 2*t^-1*z^3 + 5*t^2*z^-1 + t^-2*z^3 - 10*t*z^-1 - 10*t^-1*z + t^2*z^-3 + 5*t^-2*z - 2*t*z^-3 + 10*t^-1*z^-1 - 5*t^-2*z^-1 + 2*t^-1*z^-3 - t^-2*z^-3) / (z^4 - 4*z^2 + 6 - 4*z^-2 + z^-4)', ('t', 'z', 'T'), ('t', 'z', 'T')),
    ('GGv', '3', '3', '0', ('t', 'z', 'T'), ('t', 'z', 'T')),
]


def _operands(gens):
    n = len(gens) - 1
    ops = {str(i): gen for i, gen in enumerate(gens)}
    ops[f"0+{n}"], ops[f"0*{n}"] = gens[0] + gens[n], gens[0] * gens[n]
    return ops


@pytest.mark.parametrize(
    "flavor, f, g, printed, num_vars, den_vars",
    PRINTED_BRACKETS,
    ids=[f"{row[0]}:{{{row[1]},{row[2]}}}" for row in PRINTED_BRACKETS],
)
def test_printed_bracket_is_pinned(blowups, flavor, f, g, printed, num_vars, den_vars):
    B = blowups[flavor]
    ops = _operands(list(B.invariant_gens))
    br = standard_chart(B).bracket(ops[f], ops[g])
    assert (str(br), br.num.vars, br.den.vars) == (printed, num_vars, den_vars)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_bracket_and_membership_never_realign(blowups, monkeypatch, flavor):
    """Generators, brackets and certificates all lie over B.ring's variables, in its order, so no
    bracket of generators, their pairwise sums and products, nor its membership, re-aligns a polynomial."""
    B = blowups[flavor]
    gens = list(B.invariant_gens)
    pairs = list(combinations(gens, 2))
    ops = gens + [f + g for f, g in pairs] + [f * g for f, g in pairs]
    assert membership(RingFraction(B.numerators[0], B.walls[0]), B).member  # builds the ring's digit context
    realigned = []
    with_vars = LaurentPoly.with_vars

    def counting(p, vars):
        if tuple(vars) != p.vars:
            realigned.append((p.vars, tuple(vars)))
        return with_vars(p, vars)

    monkeypatch.setattr(LaurentPoly, "with_vars", counting)
    chart = standard_chart(B)
    for f in ops:
        for g in ops:
            assert membership(chart.bracket(f, g), B).member
    assert len(realigned) == 0, realigned[:3]


@st.composite
def chart_elements(draw, B):
    """A Weyl-invariant generator of B, or a small fraction in the chart coordinates."""
    chart = standard_chart(B)
    if draw(st.booleans()):
        return draw(st.sampled_from(list(B.invariant_gens)))
    names = tuple(chart.kinds)
    # linear coordinates stay polynomial, log coordinates are Laurent
    exps = st.tuples(*[st.integers(0 if chart.kinds[v] == "linear" else -2, 2) for v in names])
    coeffs = st.integers(-3, 3).filter(bool)
    num = LaurentPoly(names, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))
    den = draw(st.sampled_from([LaurentPoly.const(1), B.walls[0], B.walls[0] + 3]))
    return RingFraction(num, den)


class TestBracketAlgebra:
    """Antisymmetry and the Leibniz rule, by exact fraction equality."""

    @settings(max_examples=40, deadline=None)
    @given(flavor=st.sampled_from(FLAVORS), data=st.data())
    def test_antisymmetry_and_leibniz(self, blowups, flavor, data):
        B = blowups[flavor]
        chart = standard_chart(B)
        f, g, h = (data.draw(chart_elements(B)) for _ in range(3))
        assert chart.bracket(f, g) == -chart.bracket(g, f)
        assert chart.bracket(f, f).is_zero()
        assert chart.bracket(f * g, h) == f * chart.bracket(g, h) + chart.bracket(f, h) * g

    def test_ggv_jacobi_denominators_stay_small(self, blowups, monkeypatch):
        """Sums over equal denominators keep them: at most 31 terms (61 when they cross-multiplied)."""
        sizes = []
        jacobi_sum = PoissonChart.jacobi_sum

        def recording(chart, *triple):
            total = jacobi_sum(chart, *triple)
            sizes.append(len(total.den.terms))
            return total

        monkeypatch.setattr(PoissonChart, "jacobi_sum", recording)
        report = bracket_closure_check(blowups["GGv"])
        assert report.passed and len(sizes) == 4
        assert max(sizes) <= 31

    def test_ggv_witness_equals_the_cross_multiplied_bracket(self, blowups):
        B = blowups["GGv"]
        gens = list(B.invariant_gens)
        got = standard_chart(B).bracket(gens[2], gens[3])
        assert str(got) == GGV_BRACKET
        old = parse_fraction(CROSS_MULTIPLIED_GGV_BRACKET)
        assert (got.num * old.den - old.num * got.den).is_zero()
        assert len(got.den.terms) < len(old.den.terms)
