import random

import pytest

from blowring.actions import GroupAction, GroupCapExceeded, Substitution, invariant_generators
from blowring.blowup import build_blowup
from blowring.centralizer import model
from blowring.fractions import RingFraction
from blowring.poly import LaurentPoly
from blowring.rootdata import sl2

from conftest import random_laurent

y, z = LaurentPoly.gens("y z")
W = Substitution.parse({"y": "y^-1", "z": "z^-1"})


class TestAct:
    def test_direct_substitution(self):
        assert W(y + z) == y**-1 + z**-1

    def test_wall_ratio_is_fixed(self):
        # numerator and denominator acted separately
        frac = RingFraction(y - y**-1, z - z**-1)
        acted = RingFraction(W(frac.num), W(frac.den))
        assert acted == frac

    def test_sign_action_on_product(self):
        iota = Substitution.parse({"b": "-b", "c": "-c"})
        b, c = LaurentPoly.gens("b c")
        assert iota(b * c) == b * c
        assert iota(b) == -b

    def test_unknown_variable_passthrough(self):
        assert W(LaurentPoly.var("q")) == LaurentPoly.var("q")

    def test_generators_are_involutions(self):
        # a linear form with distinct coefficients is fixed only if every variable is
        generic = LaurentPoly.gens("a c y z")
        f = sum((v * k for v, k in zip(generic, (1, 2, 3, 5))), LaurentPoly.zero())
        for table in ({"y": "y^-1", "z": "z^-1"}, {"a": "-a", "c": "-c"}, {"y": "-y"}):
            s = Substitution.parse(table)
            assert s(f) != f
            assert s.compose(s)(f) == f


class TestReynolds:
    def test_two_element_average(self):
        A = GroupAction([W])
        assert A.reynolds(y + z) == (y + y**-1 + z + z**-1) * 1 / 2 * 1

    def test_projector_fixes_invariants(self):
        A = GroupAction([W])
        f = y * z + y**-1 * z**-1
        assert A.reynolds(f) == f

    def test_orbit_average(self):
        A = GroupAction([W])
        r = A.reynolds(y * z**-1)
        assert r * 2 == y * z**-1 + y**-1 * z

    def test_idempotent(self):
        rng = random.Random(3)
        A = GroupAction([W])
        for _ in range(10):
            f = random_laurent(rng, ("y", "z"))
            r = A.reynolds(f)
            assert A.reynolds(r) == r
            assert A.is_invariant(r)

    def test_cap(self):
        # an infinite monomial action must hit the cap
        shift = Substitution.parse({"y": "2*y"})
        with pytest.raises(GroupCapExceeded, match="1024"):
            GroupAction([shift]).elements()


def brute_force_generates(gens, action, laurent_vars, poly_vars, bound):
    """Independent completeness oracle: exact linear algebra on graded pieces.

    Every symmetrized monomial of height <= bound must be a linear
    combination of products of the claimed generators; solved with exact Gaussian elimination, no Gröbner bases.
    """
    from blowring.actions import _exponent_box
    from blowring.scalars import GaussianRational

    vars = tuple(laurent_vars) + tuple(poly_vars)
    # all products of generators up to the relevant height
    products = [LaurentPoly.const(1, vars)]
    frontier = [LaurentPoly.const(1, vars)]
    for _ in range(bound):
        nxt = []
        for f in frontier:
            for g in gens:
                cand = f * g
                if max((sum(map(abs, exps)) for exps in cand.terms), default=0) <= 2 * bound:
                    nxt.append(cand)
        products.extend(nxt)
        frontier = nxt

    def solve(target):
        monomials = sorted({e for p in products + [target] for e in p.with_vars(vars).terms})
        index = {m: i for i, m in enumerate(monomials)}
        rows = len(monomials)
        cols = len(products)
        mat = [[GaussianRational(0)] * (cols + 1) for _ in range(rows)]
        for j, p in enumerate(products):
            for e, c in p.with_vars(vars).terms.items():
                mat[index[e]][j] = c
        for e, c in target.with_vars(vars).terms.items():
            mat[index[e]][cols] = c
        rank = 0
        for col in range(cols):
            piv = next((r for r in range(rank, rows) if mat[r][col]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = mat[rank][col].inverse()
            mat[rank] = [e * inv for e in mat[rank]]
            for r in range(rows):
                if r != rank and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [e - f * p for e, p in zip(mat[r], mat[rank])]
            rank += 1
        # consistent iff no pivot in the last column
        for r in range(rank, rows):
            if mat[r][cols]:
                return False
        return True

    for exps in _exponent_box(len(laurent_vars), len(poly_vars), bound):
        mono = LaurentPoly(vars, {exps: GaussianRational(1)})
        sym = action.reynolds(mono)
        if sym.is_zero():
            continue
        if not solve(sym):
            return False
    return True


class TestInvariantGenerators:
    def test_sign_flip_ac(self):
        jmath = Substitution.parse({"a": "-a", "c": "-c"})
        A = GroupAction([jmath])
        gens = invariant_generators(A, poly_vars=["a", "b", "c"], degree_bound=2)
        assert {str(g) for g in gens} == {"b", "a^2", "c^2", "a*c"}
        assert brute_force_generates(gens, A, (), ("a", "b", "c"), 2)

    def test_sign_flip_bc(self):
        iota = Substitution.parse({"b": "-b", "c": "-c"})
        A = GroupAction([iota])
        gens = invariant_generators(A, poly_vars=["a", "b", "c"], degree_bound=2)
        assert {str(g) for g in gens} == {"a", "b^2", "c^2", "b*c"}
        assert brute_force_generates(gens, A, (), ("a", "b", "c"), 2)

    def test_torus_inversion(self):
        A = GroupAction([W])
        gens = invariant_generators(A, laurent_vars=["y", "z"], degree_bound=2)
        assert {str(g) for g in gens} == {
            "y + y^-1",
            "z + z^-1",
            "y*z + y^-1*z^-1",
            "y*z^-1 + y^-1*z",
        }
        assert brute_force_generates(gens, A, ("y", "z"), (), 2)

    def test_every_output_is_invariant(self):
        A = GroupAction([W])
        for g in invariant_generators(A, laurent_vars=["y", "z"], degree_bound=2):
            assert A.is_invariant(g)


class TestNoetherBound:
    """Without a degree bound the height is |G|, which proves completeness."""

    @pytest.mark.parametrize(
        "name, which",
        [("S", ["iota"]), ("S", ["jmath"]), ("S-prime", ["iota"])],
    )
    def test_default_output_generates_one_degree_past_the_bound(self, name, which):
        m = model(name)
        action = m.action(which)
        gens = invariant_generators(action, poly_vars=m.coords)
        assert brute_force_generates(gens, action, (), m.coords, action.order() + 1)

    def test_four_group_default_keeps_the_cubic(self):
        # height 2 misses a*b*c; the default height |G| = 4 finds it
        action = model("S").action(["iota", "jmath"])
        assert action.order() == 4
        gens = invariant_generators(action, poly_vars=("a", "b", "c"))
        assert [str(g) for g in gens] == ["a^2", "b^2", "c^2", "a*b*c"]

    def test_blowup_weyl_action_needs_an_explicit_bound(self):
        B = build_blowup(sl2(), "GG")
        ring_vars = {"laurent_vars": B.ring.laurent_vars, "poly_vars": B.ring.poly_vars}
        with pytest.raises(ValueError, match="pass degree_bound"):
            invariant_generators(B.weyl, **ring_vars)
        assert invariant_generators(B.weyl, degree_bound=1, **ring_vars)

    @pytest.mark.parametrize(
        "table, laurent_vars, poly_vars",
        [
            ({"a": "a^-1"}, (), ("a",)),  # a polynomial variable is not invertible
            ({"y": "a", "a": "y"}, ("y",), ("a",)),  # kinds swapped
            ({"y": "y*z", "z": "z"}, ("y", "z"), ()),  # image is not one variable
            ({"a": "b", "b": "b"}, (), ("a", "b")),  # not a permutation
        ],
    )
    def test_non_permutation_actions_raise(self, table, laurent_vars, poly_vars):
        action = GroupAction([Substitution.parse(table)])
        with pytest.raises(ValueError, match="pass degree_bound"):
            invariant_generators(action, laurent_vars, poly_vars)

    def test_signed_permutation_with_inverses_is_accepted(self):
        swap = Substitution.parse({"y": "-z^-1", "z": "-y^-1"})
        gens = invariant_generators(GroupAction([swap]), laurent_vars=("y", "z"))
        assert all(GroupAction([swap]).is_invariant(g) for g in gens)
        assert brute_force_generates(gens, GroupAction([swap]), ("y", "z"), (), 2)

    def test_bound_below_one_raises(self):
        with pytest.raises(ValueError, match="positive"):
            invariant_generators(GroupAction([W]), laurent_vars=("y", "z"), degree_bound=0)
