"""The rank-1 equivariant Borel-Moore homology ring and its gradings.

C[delta, xi, eta] / (xi^2 - delta*eta^2 - 1) with homological degrees
deg delta = 4, deg xi = 0, deg eta = -2; the relation is homogeneous of
degree zero and the ring is a free rank-2 module over C[delta, eta] with
basis {1, xi}.
"""

from __future__ import annotations

from .actions import GroupAction, Substitution, invariant_generators
from .centralizer import MODELS
from .groebner import BlockOrder, Ideal, PolyRing
from .poly import LaurentPoly, parse_poly
from .rings import PresentedRing

GRADING = {"delta": 4, "xi": 0, "eta": -2}


def weight_of(f: LaurentPoly) -> int | None:
    """The common GRADING weight of f's terms, or None if inhomogeneous."""
    weights = {sum(GRADING[v] * e for v, e in zip(f.vars, exps) if e) for exps in f.terms}
    if len(weights) > 1:
        return None
    return weights.pop() if weights else 0


class BMRing:
    def __init__(self, relation: LaurentPoly | None = None):
        self.coords = ("delta", "xi", "eta")
        self.relation = relation if relation is not None else parse_poly(
            "xi^2 - delta*eta^2 - 1", vars=self.coords
        )
        self.ring = PresentedRing((), self.coords, [self.relation])
        # module-basis order: xi in the leading block so xi^2 is the lead
        vars = self.coords
        order = BlockOrder([(vars.index("xi"),), (vars.index("delta"), vars.index("eta"))])
        self.basis_ideal = Ideal(PolyRing(vars, order), [self.relation.with_vars(vars)])

    def grading_check(self) -> dict:
        weight = weight_of(self.relation)
        return {
            "degrees": dict(GRADING),
            "relation_weight": weight,
            "homogeneous": weight == 0,
        }

    def basis_check(self, bound: int = 3) -> dict:
        """{delta^p eta^r, delta^p eta^r xi : p, r <= bound} are normal forms."""
        monomials = [
            LaurentPoly.monomial(1, {"delta": p, "eta": r, "xi": s}).with_vars(self.coords)
            for p in range(bound + 1) for r in range(bound + 1) for s in (0, 1)
        ]
        reduced = [self.basis_ideal.normal_form(m) for m in monomials]
        all_normal = all(m == r for m, r in zip(monomials, reduced))
        distinct = len({r._canonical_items() for r in reduced}) == len(monomials)
        return {
            "bound": bound,
            "count": len(monomials),
            "expected": 2 * (bound + 1) ** 2,
            "all_normal_forms": all_normal,
            "independent": distinct,
            "passed": all_normal and distinct and len(monomials) == 2 * (bound + 1) ** 2,
        }

    def invariant_subalgebra(self) -> list[LaurentPoly]:
        """Generators of the even subring via the hypersurface model involution."""
        iota = Substitution.parse(MODELS["S-prime"].involutions["iota"])
        return invariant_generators(GroupAction([iota]), poly_vars=self.coords)
