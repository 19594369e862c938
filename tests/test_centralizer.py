from dataclasses import replace

import pytest

from blowring.centralizer import (
    MODEL_NAMES,
    IDENTITY2,
    CentralizerError,
    ParametricMatrix,
    blowup_match,
    commutant_basis,
    general_commutant_element,
    isogeny_invariants,
    kernel_matches_relation,
    kernel_of_map,
    kostant_slice,
    model,
    model_kernel,
    closed_form_commutant_family,
    is_commutant_basis,
    verify_parametrization,
)
from blowring.fractions import RingFraction, RingMap
from blowring.groebner import Ideal
from blowring.poly import LaurentPoly, parse_poly
from blowring.scalars import gauss

from conftest import sz_agree

y, z, x = LaurentPoly.gens("y z x")


class TestSlices:
    def test_group_slice_verbatim(self):
        M = kostant_slice("group")
        assert [[str(e) for e in row] for row in M.entries] == [["a - 1", "a - 2"], ["1", "1"]]

    def test_lie_slice_verbatim(self):
        M = kostant_slice("lie")
        assert [[str(e) for e in row] for row in M.entries] == [["0", "delta"], ["1", "0"]]

    def test_unknown_flavor(self):
        with pytest.raises(CentralizerError):
            kostant_slice("frobenius")


class TestCommutants:
    @pytest.mark.parametrize(
        "flavor,constraint",
        [("group", "none"), ("group", "traceless"), ("lie", "none"), ("lie", "traceless")],
    )
    def test_solution_families(self, flavor, constraint):
        M = kostant_slice(flavor)
        basis = commutant_basis(M, constraint)
        for b in basis:
            assert b.commutator(M).is_zero()
        assert is_commutant_basis(basis, M, constraint)
        assert is_commutant_basis(closed_form_commutant_family(flavor, constraint), M, constraint)

    def test_lie_none_is_identity_and_slice(self):
        basis = commutant_basis(kostant_slice("lie"), "none")
        identity = ParametricMatrix([[1, 0], [0, 1]])
        assert identity in basis
        assert kostant_slice("lie") in basis

    def test_rank_drop_reported(self):
        # the identity matrix commutes with everything; its M21 is 0, so the lemma does not apply
        with pytest.raises(CentralizerError):
            commutant_basis(ParametricMatrix([[1, 0], [0, 1]]), "none")

    def test_non_unit_change_of_basis_rejected(self):
        # {2a*I, M} spans the commutant over the fraction field, but 2a is no unit of k[a]
        M = kostant_slice("group")
        a = LaurentPoly.var("a")
        assert not is_commutant_basis([ParametricMatrix([[a * 2, 0], [0, a * 2]]), M], M, "none")
        assert is_commutant_basis([ParametricMatrix([[2, 0], [0, 2]]), M], M, "none")

    def test_traceless_generator_scaled_by_a_parameter_rejected(self):
        M = kostant_slice("group")
        a = LaurentPoly.var("a")
        (N,) = commutant_basis(M, "traceless")
        assert str(N) == "[a - 2, 2*a - 4; 2, -a + 2]"
        assert not is_commutant_basis([N * a], M, "traceless")
        assert is_commutant_basis([N * -3], M, "traceless")

    def test_member_outside_the_commutant_rejected(self):
        M = kostant_slice("lie")
        assert not is_commutant_basis([IDENTITY2, ParametricMatrix([[0, 1], [1, 0]])], M, "none")
        # M + I commutes with M, with a unit coefficient on M, but is not traceless
        assert not is_commutant_basis([M + IDENTITY2], M, "traceless")

    def test_group_determinant_carves_relation(self):
        X = general_commutant_element("group", kostant_slice("group"))
        assert X.det() == parse_poly("a*b*c - b^2 - c^2")

    def test_lie_determinant(self):
        X = general_commutant_element("lie", kostant_slice("lie"))
        assert X.det() == parse_poly("xi^2 - delta*eta^2")

    def test_general_elements_keep_their_entries(self):
        # built from the slice, the elements equal the hand-written matrices they replace
        a, b, c, d, xi, eta = LaurentPoly.gens("a b c delta xi eta")
        i = LaurentPoly.const(gauss(0, 1))
        group = ParametricMatrix([[i * ((1 - a) * c + b), i * (2 - a) * c], [-i * c, i * (b - c)]])
        assert general_commutant_element("group", kostant_slice("group")) == group
        lie = ParametricMatrix([[xi, d * eta], [eta, xi]])
        assert general_commutant_element("lie", kostant_slice("lie")) == lie

    def test_closed_form_families_commute(self):
        for flavor in ("group", "lie"):
            M = kostant_slice(flavor)
            X = general_commutant_element(flavor, M)
            assert X.commutator(M).is_zero()


class TestModels:
    def test_model_S_defining_data(self):
        m = model("S")
        assert m.parametrization.images["a"] == RingFraction(z + z**-1)
        i = gauss(0, 1)
        assert m.parametrization.images["c"] == RingFraction(y - y**-1, z - z**-1) * (-i)
        assert m.involutions["iota"](parse_poly("b")) == parse_poly("-b")
        assert m.involutions["jmath"](parse_poly("a")) == parse_poly("-a")

    def test_model_S_prime_defining_data(self):
        m = model("S-prime")
        assert m.parametrization.images["delta"] == RingFraction(x * x)
        assert m.parametrization.images["eta"] == RingFraction(y - y**-1, x * 2)
        got = m.involutions["iota"](parse_poly("xi + eta + delta"))
        assert got == parse_poly("delta - xi - eta")

    def test_model_A2_Gg_defining_data(self):
        m = model("A2-Gg")
        assert m.parametrization.images["zeta"] == RingFraction(x, z - z**-1)
        assert m.involutions["jmath"](parse_poly("zeta")) == parse_poly("-zeta")

    def test_aliases(self):
        assert model("S'").name == "S-prime"
        with pytest.raises(CentralizerError):
            model("T")


class TestParametrizations:
    def test_all_models_satisfy_relations(self):
        for name in MODEL_NAMES:
            assert verify_parametrization(model(name)), name

    def test_S_substitution_by_hand(self):
        # substituting the diagonalization into the cubic yields exactly 1
        m = model("S")
        value = m.parametrization(parse_poly("a*b*c - b^2 - c^2"))
        assert value == RingFraction(LaurentPoly.const(1))
        assert sz_agree(value, RingFraction(LaurentPoly.const(1)), ("y", "z"))

    def test_S_prime_trivial_expansion(self):
        # xi^2 - delta eta^2 = ((y+y^-1)^2 - (y-y^-1)^2)/4 = 1
        m = model("S-prime")
        value = m.parametrization(parse_poly("xi^2 - delta*eta^2"))
        assert value == RingFraction(LaurentPoly.const(1))

    def test_vacuous_relation(self):
        assert verify_parametrization(model("A2-gg"))


class TestKernels:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_kernel_matches_model_relation(self, name):
        m = model(name)
        assert kernel_matches_relation(m, model_kernel(m))

    def test_S_kernel_generator(self):
        gb = model_kernel(model("S")).groebner()
        assert [str(g) for g in gb] == ["a*b*c - b^2 - c^2 - 1"]

    def test_S_prime_kernel_generator(self):
        # the reduced grevlex basis is the model relation up to sign
        (g,) = model_kernel(model("S-prime")).groebner()
        p = parse_poly("xi^2 - delta*eta^2 - 1")
        assert g == p or g == -p

    def test_affine_plane_kernels_vanish(self):
        assert not model_kernel(model("A2-Gg")).groebner()
        assert not model_kernel(model("A2-gg")).groebner()

    def test_generic_kernel_of_map(self):
        # kernel of s -> (t^2, t^3) is the cuspidal cubic
        images = {"p": RingFraction(LaurentPoly.var("s") ** 2), "q": RingFraction(LaurentPoly.var("s") ** 3)}
        K = kernel_of_map(RingMap(images), ("p", "q"), (), ("s",))
        want = Ideal(K.ring, [parse_poly("p^3 - q^2").with_vars(K.ring.vars)])
        assert [str(g) for g in K.groebner()] == [str(g) for g in want.groebner()]

    def test_kernel_of_map_with_auxiliary_looking_variable(self):
        # p = _w0/(s+1) and q = s are algebraically independent
        w0, s = LaurentPoly.gens("_w0 s")
        images = {"p": RingFraction(w0, s + 1), "q": RingFraction(s)}
        K = kernel_of_map(RingMap(images), ("p", "q"), (), ("_w0", "s"))
        assert not K.groebner()


class TestBlowupMatch:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_two_sided_match_bound_two(self, name, blowups):
        m = model(name)
        report = blowup_match(m, blowups[m.blowup_flavor], degree_bound=2)
        assert report.passed, report

    def test_flavor_mismatch_rejected(self, blowups):
        with pytest.raises(CentralizerError):
            blowup_match(model("S"), blowups["gg"])

    def test_missing_invariant_fails_the_match(self, blowups):
        # z^2 + z^-2 is W-invariant and a member, but z + z^-1 is not a polynomial in it and zeta
        m = model("A2-Gg")
        z = LaurentPoly.var("z")
        images = dict(m.parametrization.images, a=RingFraction(z**2 + z**-2))
        report = blowup_match(replace(m, parametrization=RingMap(images)), blowups["Gg"], degree_bound=4)
        assert report.images_invariant and all(report.image_members.values())
        assert not report.passed
        assert "z + z^-1" in report.failed_invariants

    def test_non_invariant_image_fails_the_match(self, blowups):
        # x lies in the gg blow-up, but w(x) = -x
        m = model("A2-gg", blowups.get)
        images = dict(m.parametrization.images, delta=RingFraction(LaurentPoly.var("x")))
        report = blowup_match(replace(m, parametrization=RingMap(images)), blowups["gg"])
        assert report.image_members == {"delta": True, "theta": True}
        assert not report.images_invariant
        assert not report.passed

    def test_image_certificates(self, blowups):
        report = blowup_match(model("A2-gg"), blowups["gg"], degree_bound=2)
        assert report.certificates["theta"] == "T"
        assert report.certificates["delta"] == "x^2"


class TestIsogenyInvariants:
    def test_jmath_on_S(self):
        got = {str(g) for g in isogeny_invariants(model("S"), ["jmath"])}
        assert got == {"b", "a^2", "c^2", "a*c"}

    def test_iota_on_S_prime(self):
        got = {str(g) for g in isogeny_invariants(model("S-prime"), ["iota"])}
        assert got == {"delta", "xi^2", "eta^2", "xi*eta"}

    def test_four_group_on_S(self):
        got = {str(g) for g in isogeny_invariants(model("S"), ["iota", "jmath"])}
        assert got == {"a^2", "b^2", "c^2", "a*b*c"}
        # the relation makes the cubic generator redundant: abc = 1 + b^2 + c^2
        ring = model("S").coordinate_ring()
        assert ring.equal(parse_poly("a*b*c"), parse_poly("1 + b^2 + c^2"))

    def test_unknown_involution(self):
        with pytest.raises(CentralizerError):
            isogeny_invariants(model("A2-gg"), ["iota"])


class TestInvolutionsPreserveRelations:
    def test_acting_on_relation_stays_in_ideal(self):
        for name in ("S", "S-prime"):
            m = model(name)
            ring = m.coordinate_ring()
            for sub in m.involutions.values():
                assert ring.nf(sub(m.relation)).is_zero()


def test_coordinate_readers_build_no_blowup(monkeypatch, capsys):
    """Coordinates, relation and involutions come from the declared row, with no blow-up."""
    import blowring.centralizer as centralizer
    from blowring.centralizer import declared
    from blowring.cli import main
    from blowring.homology import basis_check
    from blowring.kring import subring_filter

    def no_build(datum, flavor):
        raise AssertionError(f"a coordinate-only reader built the {flavor} blow-up")

    monkeypatch.setattr(centralizer, "build_blowup", no_build)
    assert main(["compute", "invariants", "--model", "S", "--which", "iota,jmath"]) == 0
    assert capsys.readouterr().out.strip() == "a^2, b^2, c^2, a*b*c"
    assert subring_filter(parse_poly("a"), "G") and not subring_filter(parse_poly("c"), "G")
    row = declared("S'")
    assert row is declared("S-prime") and row.name == "S-prime"
    assert {str(g) for g in isogeny_invariants(row)} == {"delta", "xi^2", "eta^2", "xi*eta"}
    assert basis_check(row.relation)["passed"]
