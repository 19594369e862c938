"""Presented rings: generators, a relation ideal and quotient-ring services.

A PresentedRing is a quotient of a mixed Laurent/polynomial ring. Internally
everything is pushed into an ordinary polynomial ring via the unit-pair
convention, so normal forms, memberships, certificates and subalgebra
rewriting are all plain Gröbner computations.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .groebner import (
    Elimination,
    Ideal,
    PolyRing,
    laurent_ambient_vars,
    polynomialize,
    unit_relations,
)
from .poly import LaurentPoly


class PresentedRing:
    def __init__(
        self,
        laurent_vars: Sequence[str],
        poly_vars: Sequence[str],
        relations: Sequence[LaurentPoly] = (),
        grading: Mapping[str, int] | None = None,
        _ambient_gens: Sequence[LaurentPoly] | None = None,
    ):
        self.laurent_vars = tuple(laurent_vars)
        self.poly_vars = tuple(poly_vars)
        self.relations = list(relations)
        self.grading = dict(grading) if grading else None
        self.ambient_vars = laurent_ambient_vars(self.laurent_vars, self.poly_vars)
        self.ambient_ring = PolyRing(self.ambient_vars)
        if _ambient_gens is None:
            gens = unit_relations(self.laurent_vars) + [self.to_ambient(r) for r in relations]
        else:
            gens = list(_ambient_gens)
        self.ideal = Ideal(self.ambient_ring, gens)
        self._division_cache: dict = {}

    # -- conversions --------------------------------------------------------

    def to_ambient(self, f: LaurentPoly) -> LaurentPoly:
        """Clear negative exponents into unit-partner variables."""
        return polynomialize(f, self.laurent_vars).with_vars(self.ambient_vars)

    def nf(self, f: LaurentPoly) -> LaurentPoly:
        return self.ideal.normal_form(self.to_ambient(f))

    def equal(self, f: LaurentPoly, g: LaurentPoly) -> bool:
        return self.nf(f - g).is_zero()

    # -- saturation -----------------------------------------------------------

    def saturated(self, by: LaurentPoly) -> "PresentedRing":
        """Same presentation with the relation ideal saturated at ``by``."""
        sat = self.ideal.saturate(self.to_ambient(by))
        return PresentedRing(
            self.laurent_vars,
            self.poly_vars,
            self.relations,
            grading=self.grading,
            _ambient_gens=sat.groebner(),
        )

    # -- division with certificate ---------------------------------------------

    def divide(self, num: LaurentPoly, den: LaurentPoly, power: int = 1) -> LaurentPoly | None:
        """Certificate g with num = den^power * g in the quotient, or None.

        Implemented with an auxiliary inverse variable in an elimination
        block, so a w-free normal form of num*w^power IS the certificate.
        """
        den_key = str(self.to_ambient(den))
        elim = self._division_cache.get(den_key)
        if elim is None:
            elim = Elimination((), self.ambient_vars, self.ideal.gens, [self.to_ambient(den)])
            self._division_cache[den_key] = elim
        (w,) = elim.aux
        return elim.certificate(self.to_ambient(num) * LaurentPoly.var(w) ** power)

    # -- subalgebra membership ---------------------------------------------------

    def subalgebra_oracle(
        self, generators: Sequence[LaurentPoly], tags: Sequence[str]
    ) -> "SubalgebraOracle":
        return SubalgebraOracle(self, generators, tags)

    # -- grading -------------------------------------------------------------------

    def weight_of(self, f: LaurentPoly) -> int | None:
        """The common grading weight of f's terms, or None if inhomogeneous."""
        if self.grading is None:
            raise ValueError("ring carries no grading")
        weights = set()
        for exps in f.terms:
            w = 0
            for v, e in zip(f.vars, exps):
                if e:
                    w += self.grading[v] * e
            weights.add(w)
        if not weights:
            return 0
        if len(weights) > 1:
            return None
        return weights.pop()

    def __repr__(self):
        rel = ", ".join(str(r) for r in self.relations) or "0"
        return f"<PresentedRing laurent={self.laurent_vars} poly={self.poly_vars} / ({rel})>"


class SubalgebraOracle:
    """Rewrites quotient-ring elements as polynomials in named generators.

    Tag variables s_i are glued to the generators; under an elimination order
    discarding the ambient variables, the normal form of a member is tag-only
    and doubles as the rewriting certificate.
    """

    def __init__(self, ring: PresentedRing, generators: Sequence[LaurentPoly], tags: Sequence[str]):
        if len(generators) != len(tags):
            raise ValueError("one tag per generator required")
        self.ring = ring
        self.tags = tuple(tags)
        gens = list(ring.ideal.gens)
        for tag, gen in zip(self.tags, generators):
            gens.append(LaurentPoly.var(tag) - ring.to_ambient(gen))
        self.ideal = Elimination(ring.ambient_vars, self.tags, gens, ())

    def rewrite(self, f: LaurentPoly) -> LaurentPoly | None:
        return self.ideal.certificate(self.ring.to_ambient(f))

    def contains(self, f: LaurentPoly) -> bool:
        return self.rewrite(f) is not None
