from blowring.centralizer import declared, isogeny_invariants
from blowring.homology import GRADING, basis_check, weight_of
from blowring.poly import parse_poly

ROW = declared("S-prime")


class TestGrading:
    def test_degree_placements(self):
        assert GRADING == {"delta": 4, "xi": 0, "eta": -2}

    def test_relation_homogeneous(self):
        weight = weight_of(ROW.relation)
        assert weight is not None
        assert weight == 0

    def test_term_weights_by_hand(self):
        # deg(xi^2) = 0, deg(delta eta^2) = 4 - 4 = 0, deg(1) = 0
        assert weight_of(parse_poly("xi^2", vars=ROW.coords)) == 0
        assert weight_of(parse_poly("delta*eta^2", vars=ROW.coords)) == 0
        assert weight_of(parse_poly("delta*eta", vars=ROW.coords)) == 2

    def test_inhomogeneous_detected(self):
        assert weight_of(parse_poly("xi + eta", vars=ROW.coords)) is None


class TestModuleBasis:
    def test_count_formula(self):
        for bound in (1, 2, 3):
            report = basis_check(ROW.relation, bound)
            assert report["passed"]
            assert report["count"] == 2 * (bound + 1) ** 2

    def test_bound_three_is_thirty_two(self):
        assert basis_check(ROW.relation, 3)["count"] == 32

    def test_xi_square_reduces(self):
        # xi^2 itself is not a normal form: it rewrites to delta eta^2 + 1
        assert basis_check(ROW.relation, 1)["xi^2"] == "delta*eta^2 + 1"


class TestSubalgebra:
    def test_generators(self):
        got = {str(g) for g in isogeny_invariants(ROW)}
        assert got == {"delta", "xi^2", "eta^2", "xi*eta"}

    def test_direct_method_calls(self):
        assert weight_of(ROW.relation) == 0
        assert basis_check(ROW.relation, 3)["passed"]
        assert {str(g) for g in isogeny_invariants(ROW, ["iota"])} == {"delta", "xi^2", "eta^2", "xi*eta"}


def test_relation_matches_hypersurface_model():
    """Dual route: the homology relation equals the model implicitization."""
    from blowring.centralizer import model, model_kernel
    from blowring.groebner import Ideal

    kernel = model_kernel(model("S-prime"))
    mine = Ideal(kernel.ring, [ROW.relation.with_vars(kernel.ring.vars)])
    assert [str(g) for g in mine.groebner()] == [str(g) for g in kernel.groebner()]
