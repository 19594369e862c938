"""The grading and module basis of the rank-1 equivariant Borel-Moore homology ring.

The ring is the S-prime model of ``centralizer.MODELS``, C[delta, xi, eta] modulo
its relation, with homological degrees deg delta = 4, deg xi = 0, deg eta = -2;
the relation is homogeneous of degree zero and the ring is a free rank-2 module
over C[delta, eta] with basis {1, xi}.
"""

from __future__ import annotations

from .groebner import BlockOrder, Ideal, PolyRing
from .poly import LaurentPoly

GRADING = {"delta": 4, "xi": 0, "eta": -2}


def weight_of(f: LaurentPoly) -> int | None:
    """The common GRADING weight of f's terms, or None if inhomogeneous."""
    weights = {sum(GRADING[v] * e for v, e in zip(f.vars, exps) if e) for exps in f.terms}
    if len(weights) > 1:
        return None
    return weights.pop() if weights else 0


def basis_check(relation: LaurentPoly, bound: int = 3) -> dict:
    """{delta^p eta^r, delta^p eta^r xi : p, r <= bound} are normal forms modulo the relation.

    The module-basis order puts xi in the leading block, so xi^2 is the lead;
    ``xi^2`` reports its normal form.
    """
    vars = tuple(GRADING)
    order = BlockOrder([(vars.index("xi"),), (vars.index("delta"), vars.index("eta"))])
    ideal = Ideal(PolyRing(vars, order), [relation.with_vars(vars)])
    monomials = [
        LaurentPoly.monomial(1, {"delta": p, "eta": r, "xi": s}).with_vars(vars)
        for p in range(bound + 1) for r in range(bound + 1) for s in (0, 1)
    ]
    reduced = [ideal.normal_form(m) for m in monomials]
    all_normal = all(m == r for m, r in zip(monomials, reduced))
    distinct = len({r._canonical_items() for r in reduced}) == len(monomials)
    return {
        "bound": bound,
        "count": len(monomials),
        "expected": 2 * (bound + 1) ** 2,
        "all_normal_forms": all_normal,
        "independent": distinct,
        "xi^2": str(ideal.normal_form(LaurentPoly.monomial(1, {"xi": 2}).with_vars(vars))),
        "passed": all_normal and distinct and len(monomials) == 2 * (bound + 1) ** 2,
    }
