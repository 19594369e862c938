import pytest

from blowring.rootdata import RootDatum, RootDatumError, sl2

from conftest import pgl2


class TestRank1:
    def test_sl2_coroot_orbit(self):
        assert sl2().pairing(sl2().simple_roots[0], sl2().simple_coroots[0]) == 2

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
        for root, coroot in d.root_pairs():
            assert d.pairing(root, coroot) == 2

    def test_adjoint_coordinates(self):
        d = RootDatum([[2, -1], [-1, 2]], "adjoint")
        assert len(d.root_pairs()) == 6
        assert len(d.positive_root_pairs()) == 3
        # simple roots are unit vectors; simple coroots are the Cartan rows
        assert d.simple_roots == ((1, 0), (0, 1))
        assert d.simple_coroots == ((2, -1), (-1, 2))

    def test_bad_cartan_rejected(self):
        with pytest.raises(RootDatumError):
            RootDatum([[1]], "adjoint")
        with pytest.raises(RootDatumError):
            RootDatum([[2]], "nope")

