import pytest

from blowring.homology import GRADING, BMRing, weight_of
from blowring.poly import parse_poly


@pytest.fixture(scope="module")
def ring():
    return BMRing()


class TestGrading:
    def test_degree_placements(self):
        assert GRADING == {"delta": 4, "xi": 0, "eta": -2}

    def test_relation_homogeneous(self, ring):
        report = ring.grading_check()
        assert report["homogeneous"]
        assert report["relation_weight"] == 0

    def test_term_weights_by_hand(self, ring):
        # deg(xi^2) = 0, deg(delta eta^2) = 4 - 4 = 0, deg(1) = 0
        assert weight_of(parse_poly("xi^2", vars=ring.coords)) == 0
        assert weight_of(parse_poly("delta*eta^2", vars=ring.coords)) == 0
        assert weight_of(parse_poly("delta*eta", vars=ring.coords)) == 2

    def test_inhomogeneous_detected(self, ring):
        assert weight_of(parse_poly("xi + eta", vars=ring.coords)) is None


class TestModuleBasis:
    def test_count_formula(self, ring):
        for bound in (1, 2, 3):
            report = ring.basis_check(bound)
            assert report["passed"]
            assert report["count"] == 2 * (bound + 1) ** 2

    def test_bound_three_is_thirty_two(self, ring):
        assert ring.basis_check(3)["count"] == 32

    def test_xi_square_reduces(self, ring):
        # xi^2 itself is not a normal form: it rewrites to delta eta^2 + 1
        f = parse_poly("xi^2", vars=ring.coords)
        assert str(ring.basis_ideal.normal_form(f.with_vars(ring.coords))) == "delta*eta^2 + 1"


class TestSubalgebra:
    def test_generators(self, ring):
        got = {str(g) for g in ring.invariant_subalgebra()}
        assert got == {"delta", "xi^2", "eta^2", "xi*eta"}

    def test_direct_method_calls(self, ring):
        assert ring.grading_check()["homogeneous"]
        assert ring.basis_check(3)["passed"]
        assert {str(g) for g in ring.invariant_subalgebra()} == {"delta", "xi^2", "eta^2", "xi*eta"}


def test_relation_matches_hypersurface_model():
    """Dual route: the homology relation equals the model implicitization."""
    from blowring.centralizer import model, model_kernel
    from blowring.groebner import Ideal

    ring = BMRing()
    kernel = model_kernel(model("S-prime"))
    mine = Ideal(kernel.ring, [ring.relation.with_vars(kernel.ring.vars)])
    assert [str(g) for g in mine.groebner()] == [str(g) for g in kernel.groebner()]
