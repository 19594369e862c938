import random

import pytest

from blowring.blowup import factor_wall_denominator, membership
from blowring.fractions import RingFraction
from blowring.poisson import PoissonChart, bracket_closure_check, standard_chart, torus_chart
from blowring.poly import LaurentPoly, parse_poly
from blowring.rootdata import sl2

from conftest import random_laurent, sz_agree

y, z = LaurentPoly.gens("y z")


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

    def test_torus_chart_pairing(self, sl2_datum):
        chart = torus_chart(sl2_datum, 1)
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
