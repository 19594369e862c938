import pytest

from blowring.rootdata import RootDatum, RootDatumError, sl2

from conftest import pgl2


class TestRank1:
    def test_sl2_coroot_orbit(self):
        assert (sl2().root, sl2().coroot) == ((2,), (1,))
        assert sl2().pairing(sl2().root, sl2().coroot) == 2

    def test_pgl2_swaps_root_and_coroot(self):
        d = pgl2()
        assert (d.root, d.coroot) == (sl2().coroot, sl2().root)
        assert d.pairing(d.root, d.coroot) == 2
        assert d != sl2() and sl2() == RootDatum((2,), (1,))
        assert hash(sl2()) == hash(RootDatum((2,), (1,)))

    def test_bad_datum_rejected(self):
        # pairs to 1, a 2-vector, empty vectors, pairs to -2, lists
        for root, coroot in (((1,), (1,)), ((2, -1), (1, 0)), ((), ()), ((2,), (-1,)), ([2], [1])):
            with pytest.raises(RootDatumError):
                RootDatum(root, coroot)
