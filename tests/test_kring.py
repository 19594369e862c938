import pytest

from blowring.fractions import RingFraction
from blowring.kring import (
    KRing,
    KRingError,
    NotDerivableError,
    VClass,
    abstract_ring,
    dictionary_rederivations,
    subring_filter,
    v_dictionary,
)
from blowring.poly import LaurentPoly, parse_poly
from blowring.scalars import gauss

from conftest import record_realignments

y, z = LaurentPoly.gens("y z")
a, b, c = (parse_poly(s, vars=("a", "b", "c")) for s in "abc")
RING = abstract_ring()


class TestVClass:
    def test_point_orbit_needs_nonnegative_degree(self):
        VClass(0, 0)
        with pytest.raises(KRingError):
            VClass(-1, 0)
        VClass(-1, 1)  # fine off the point orbit

    def test_image_matches_dictionary(self):
        v = VClass(1, 0)
        assert v_dictionary(v.n, v.m) == a
        v = VClass(5, 3)
        with pytest.raises(NotDerivableError):
            v_dictionary(v.n, v.m)


class TestDictionary:
    def test_generators(self):
        assert v_dictionary(1, 0) == a
        assert v_dictionary(0, 1) == b
        assert v_dictionary(1, 1) == c

    def test_derived_entries(self):
        assert v_dictionary(-1, 1) == a * b - c
        assert v_dictionary(0, 2) == b * b
        assert v_dictionary(2, 2) == c * c
        assert v_dictionary(1, 2) == b * c
        assert v_dictionary(2, 0) == a * a - 1
        assert v_dictionary(2, 1) == a * c - b

    def test_not_derivable_is_an_error(self):
        with pytest.raises(NotDerivableError):
            v_dictionary(3, 1)

    def test_rederivations(self):
        checks = dictionary_rederivations()
        assert len(checks) == 4
        assert all(thunk() for thunk in checks.values())


class TestProducts:
    def test_first_relation(self):
        # v(1)_1 * v(-1)_1 = v(0)_2 + 1, i.e. c(ab - c) = b^2 + 1 mod relation
        prod = RING.nf(c * v_dictionary(-1, 1))
        assert prod == b * b + 1

    def test_evident_relation(self):
        assert RING.equal(a * b, v_dictionary(1, 1) + v_dictionary(-1, 1))

    @pytest.mark.parametrize("n", [0, 1])
    def test_squares(self, n):
        vn1 = v_dictionary(n, 1)
        assert RING.equal(vn1 * vn1, v_dictionary(2 * n, 2))

    def test_triple_product_relation(self):
        assert RING.equal(a * b * c, c * c + b * b + 1)

    def test_relation_regenerated(self):
        regenerated = a * b * c - (c * c + b * b + 1)
        assert regenerated == parse_poly("a*b*c - b^2 - c^2 - 1")


class TestSubringFilter:
    def test_examples(self):
        assert subring_filter(a, "G")
        assert not subring_filter(c, "G")
        assert subring_filter(c * c, "both")

    def test_even_m_generator_list(self):
        # the generators of the even-m convolution subring
        for gen in (a, b * b, c * c, b * c):
            assert subring_filter(gen, "G")

    def test_sheaf_side(self):
        # even-n generators
        for gen in (a * a - 1, b, c * c, a * c - b):
            assert subring_filter(gen, "Gv"), str(gen)

    def test_unknown_side(self):
        with pytest.raises(KRingError):
            subring_filter(a, "H")


@pytest.fixture(scope="module")
def K():
    return KRing()


class TestPresentations:
    def test_abstract_to_localized_examples(self, K):
        assert K.abstract_to_localized(a) == RingFraction(z + z**-1)
        i = gauss(0, 1)
        assert K.abstract_to_localized(c) == RingFraction(y - y**-1, z - z**-1) * (-i)

    def test_localized_roundtrip_b(self, K):
        # the derived example: feed c's localized form through both maps
        loc_b = K.abstract_to_localized(b)
        assert K.localized_to_abstract(loc_b) == b

    def test_roundtrips_on_generators(self, K):
        for gen in (a, b, c):
            assert K.localized_to_abstract(K.abstract_to_localized(gen)) == gen
            assert K.blowup_to_abstract(K.abstract_to_blowup(gen)) == gen

    def test_convert_dispatch(self, K):
        assert K.convert(a, "abstract", "abstract") == a
        loc = K.convert(a, "abstract", "localized")
        assert K.convert(loc, "localized", "blowup") == K.abstract_to_blowup(a)

    def test_convert_to_localized(self, K):
        assert K.convert(a, "abstract", "localized") == RingFraction(z + z**-1)

    def test_non_invariant_rejected(self, K):
        with pytest.raises(KRingError):
            K.localized_to_abstract(RingFraction(y))

    def test_non_member_rejected(self, K):
        with pytest.raises(KRingError):
            K.localized_to_abstract(RingFraction(LaurentPoly.const(1), z**2 - 1))

    def test_blowup_element_outside_subring(self, K):
        with pytest.raises(KRingError):
            K.blowup_to_abstract(y)

    def test_conversions_realign_no_variable_list(self, K, monkeypatch):
        # the images and the certificates lie over the blow-up ring's (y, z, T)
        f = a**3 + a * b * c - c**2
        K.generator_certificates()
        calls = record_realignments(monkeypatch)
        K.abstract_to_blowup(f)
        K.abstract_to_localized(f)
        assert calls == []


class TestLocalization:
    def test_all_localization_identities(self, K):
        checks = {name: thunk() for name, thunk in K.localization_checks().items()}
        assert checks == {
            "moka_sum": True,
            "moka_difference": True,
            "skyscraper_combination": True,
        }

    def test_difference_formula_by_hand(self, K):
        # y - y^-1 = i (z - z^-1) v(1)_1 after substituting the c image
        i = gauss(0, 1)
        lhs = RingFraction(y - y**-1)
        rhs = RingFraction((z - z**-1) * i) * K.abstract_to_localized(c)
        assert lhs == rhs
