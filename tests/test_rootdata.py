import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from blowring.rootdata import RootDatum, RootDatumError, pgl2, sl2


class TestRank1:
    def test_point_orbit(self):
        assert pgl2().orbit_dimension((0,)) == 0
        assert pgl2().perversity((0,)) == 0

    def test_pgl2_orbit_dimensions(self):
        d = pgl2()
        for n in range(6):
            assert d.orbit_dimension((n,)) == n

    def test_sl2_coroot_orbit(self):
        assert sl2().orbit_dimension((1,)) == 2
        assert sl2().pairing(sl2().simple_roots[0], sl2().simple_coroots[0]) == 2

    def test_perversity_half_integers(self):
        d = pgl2()
        assert d.perversity((1,)) == Fraction(-1, 2)
        assert d.perversity((2,)) == -1
        assert d.perversity_doubled((1,)) == -1

    def test_non_dominant_rejected(self):
        with pytest.raises(RootDatumError):
            pgl2().orbit_dimension((-1,))

    def test_simple_reflection_is_an_involution(self):
        for d in (sl2(), pgl2()):
            alpha = d.simple_roots[0]
            assert d.reflect_weight(0, alpha) == tuple(-a for a in alpha)
            for w in ((1,), (-3,), (4,)):
                assert d.reflect_weight(0, d.reflect_weight(0, w)) == w


class TestGeneralRank:
    def test_a2_root_system(self):
        d = RootDatum([[2, -1], [-1, 2]], "simply-connected")
        assert len(d.root_pairs()) == 6
        assert len(d.positive_root_pairs()) == 3
        # 2 rho = sum of positive roots = 2(alpha_1 + alpha_2) = (2, 2) in
        # fundamental-weight coordinates
        assert d.two_rho() == (2, 2)
        for root, coroot in d.root_pairs():
            assert d.pairing(root, coroot) == 2

    def test_adjoint_coordinates(self):
        d = RootDatum([[2, -1], [-1, 2]], "adjoint")
        assert len(d.root_pairs()) == 6
        assert d.orbit_dimension((1, 1)) == 4  # <2rho, w1+w2> in dual bases

    def test_bad_cartan_rejected(self):
        with pytest.raises(RootDatumError):
            RootDatum([[1]], "adjoint")
        with pytest.raises(RootDatumError):
            RootDatum([[2]], "nope")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_orbit_dimension_additive(m, n):
    d = pgl2()
    assert d.orbit_dimension((m + n,)) == d.orbit_dimension((m,)) + d.orbit_dimension((n,))
    assert d.perversity_doubled((m,)) == -d.orbit_dimension((m,))
