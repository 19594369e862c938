"""Presented rings: generators, a relation ideal and quotient-ring services.

A PresentedRing is a quotient of a mixed Laurent/polynomial ring. Every
polynomial that goes in or comes out (normal forms, division and membership
certificates, subalgebra generators, kernels) is a Laurent polynomial in the
ring's own variables.

Internally each invertible variable v gets a partner v' with v*v' - 1
adjoined (the unit-pair encoding), so every computation is a plain Gröbner
computation; that encoding is private to this module. A normal form modulo
an ideal containing v*v' - 1 has no monomial divisible by v*v', so mapping
(v')^k back to v^-k on the way out is injective and the Laurent form of a
normal form is canonical.
"""

from __future__ import annotations

from typing import Sequence

from .fractions import RingFraction, RingMap
from .groebner import Elimination, Ideal, PolyRing, check_terms
from .poly import Exps, LaurentPoly
from .scalars import GaussianRational, ONE


class PresentedRing:
    def __init__(
        self,
        laurent_vars: Sequence[str],
        poly_vars: Sequence[str],
        relations: Sequence[LaurentPoly] = (),
    ):
        self.laurent_vars = tuple(laurent_vars)
        self.poly_vars = tuple(poly_vars)
        self.relations = list(relations)
        self._vars = self.laurent_vars + self.poly_vars
        # ambient order: v, v' for each invertible v, then the polynomial variables
        self._ambient = tuple(w for v in self.laurent_vars for w in (v, v + "'")) + self.poly_vars
        self._slot = {v: 2 * i for i, v in enumerate(self.laurent_vars)}
        n = 2 * len(self.laurent_vars)
        self._slot.update((v, n + i) for i, v in enumerate(self.poly_vars))
        units = [LaurentPoly.var(v) * LaurentPoly.var(v + "'") - 1 for v in self.laurent_vars]
        self.ideal = Ideal(PolyRing(self._ambient), units + [self._encode(r) for r in relations])
        self._division_cache: dict = {}
        self._oracles: dict = {}

    # -- the unit-pair encoding -------------------------------------------------

    def _encode(self, f: LaurentPoly) -> LaurentPoly:
        """f over the ambient variables, with v^-k written (v')^k."""
        slots = []
        for i, v in enumerate(f.vars):
            j = self._slot.get(v)
            if j is None and any(e[i] for e in f.terms):
                raise ValueError(f"variable {v!r} not in target list")
            slots.append(j)
        n_units = 2 * len(self.laurent_vars)
        width = len(self._ambient)
        terms: dict = {}
        for exps, coeff in f.terms.items():
            acc = [0] * width
            for j, e, v in zip(slots, exps, f.vars):
                if e > 0:
                    acc[j] += e
                elif e < 0:
                    if j >= n_units:
                        raise ValueError(f"negative exponent on non-invertible variable {v!r}")
                    acc[j + 1] -= e
            key = tuple(acc)
            prev = terms.get(key)
            terms[key] = coeff if prev is None else prev + coeff
        return LaurentPoly(self._ambient, terms)

    def _decode(self, r: LaurentPoly) -> LaurentPoly:
        """The Laurent form of an ambient polynomial: (v')^k read as v^-k."""
        r = r.with_vars(self._ambient)
        n = len(self.laurent_vars)
        terms: dict = {}
        for exps, coeff in r.terms.items():
            key = tuple(exps[2 * i] - exps[2 * i + 1] for i in range(n)) + exps[2 * n :]
            prev = terms.get(key)
            terms[key] = coeff if prev is None else prev + coeff
        return LaurentPoly(self._vars, terms)

    def split(self, frac: RingFraction) -> tuple[LaurentPoly, LaurentPoly]:
        """(num, den) of frac with negative powers of non-invertible variables cleared.

        RingFraction folds single-term denominators into the numerator; in a
        ring where some variables are not units that content must move back
        to the denominator before ideal-theoretic work.
        """
        units = set(self.laurent_vars)
        num, den = frac.num, frac.den
        shift: dict[str, int] = {}
        for p in (num, den):
            for v in p.vars:
                if v not in units:
                    m = p.min_degree_in(v)
                    if m < 0:
                        shift[v] = max(shift.get(v, 0), -m)
        if shift:
            vars = LaurentPoly.merge_vars(num, den)  # num's order first, so num needs no re-alignment
            mono = LaurentPoly(vars, {tuple(shift.get(v, 0) for v in vars): ONE})
            num = num * mono
            den = den * mono
        return num, den

    # -- normal forms ---------------------------------------------------------

    def nf(self, f: LaurentPoly) -> LaurentPoly:
        return self._decode(self.ideal.normal_form(self._encode(f)))

    def equal(self, f: LaurentPoly, g: LaurentPoly) -> bool:
        return self.nf(f - g).is_zero()

    def has_generator(self, p: LaurentPoly) -> bool:
        """Whether p, encoded, is one of the generators the ideal was built from, and so
        zero in the ring: decided with no Gröbner basis, and false for a p the ideal
        merely contains."""
        return self._encode(p) in self.ideal.gens  # equality ignores the order of variables

    # -- division with certificate ---------------------------------------------

    def divide(self, num: LaurentPoly, den: LaurentPoly, power: int = 1) -> LaurentPoly | None:
        """Certificate g with num = den^power * g in the quotient, or None.

        Implemented with an auxiliary inverse variable in an elimination
        block, so a w-free normal form of num*w^power IS the certificate.
        """
        den = self._encode(den)
        den_key = str(den)
        elim = self._division_cache.get(den_key)
        if elim is None:
            elim = Elimination((), self._ambient, self.ideal.gens, [den])
            self._division_cache[den_key] = elim
        (w,) = elim.aux
        cert = elim.certificate(self._encode(num) * LaurentPoly.var(w) ** power)
        return None if cert is None else self._decode(cert)

    # -- subalgebra membership ---------------------------------------------------

    def subalgebra_oracle(
        self, generators: Sequence[LaurentPoly], tags: Sequence[str]
    ) -> "SubalgebraOracle":
        """One oracle per generators and tags, shared with its rewrite memo."""
        key = (tuple(generators), tuple(tags))
        oracle = self._oracles.get(key)
        if oracle is None:
            oracle = self._oracles[key] = SubalgebraOracle(self, generators, tags)
        return oracle

    def __repr__(self):
        rel = ", ".join(str(r) for r in self.relations) or "0"
        return f"<PresentedRing laurent={self.laurent_vars} poly={self.poly_vars} / ({rel})>"


class SubalgebraOracle:
    """Rewrites quotient-ring elements as polynomials in named generators.

    Tag variables s_i are glued to the generators; under an elimination order
    discarding the ambient variables, the normal form of a member is tag-only
    and doubles as the rewriting certificate.

    Normal forms are linear, so a rewrite sums the normal forms of its
    monomials. Each ambient monomial's normal form is memoized, and that of
    x_k*m, where x_k is its first variable, is computed as NF(x_k*NF(m)): one
    short reduction per new monomial, shared by every later rewrite.
    """

    def __init__(self, ring: PresentedRing, generators: Sequence[LaurentPoly], tags: Sequence[str]):
        if len(generators) != len(tags):
            raise ValueError("one tag per generator required")
        self.ring = ring
        self.tags = tuple(tags)
        gens = list(ring.ideal.groebner())
        for tag, gen in zip(self.tags, generators):
            gens.append(LaurentPoly.var(tag) - ring._encode(gen))
        self.ideal = Elimination(ring._ambient, self.tags, gens, ())
        self._monomial_nfs: dict[Exps, LaurentPoly] = {}

    def rewrite(self, f: LaurentPoly) -> LaurentPoly | None:
        """f as a polynomial in the tags, or None if f is not in the subalgebra."""
        pad = (0,) * len(self.tags)
        total: dict[Exps, GaussianRational] = {}
        for m, c in self.ring._encode(f).terms.items():
            for e, d in self._monomial_nf(m + pad).terms.items():
                prev = total.get(e)
                total[e] = c * d if prev is None else prev + c * d
            check_terms(len(total), "rewrite")
        r = LaurentPoly(self.ideal.ring.vars, total)
        if set(r.support_vars()) <= set(self.tags):
            return r.with_vars(self.tags)
        return None

    def _monomial_nf(self, m: Exps) -> LaurentPoly:
        nf = self._monomial_nfs.get(m)
        if nf is None:
            k = next((i for i, e in enumerate(m) if e), None)
            if k is None:
                nf = self.ideal.normal_form(LaurentPoly.const(1, self.ideal.ring.vars))
            else:
                below = self._monomial_nf(m[:k] + (m[k] - 1,) + m[k + 1 :])
                step = {e[:k] + (e[k] + 1,) + e[k + 1 :]: c for e, c in below.terms.items()}
                nf = self.ideal.normal_form(LaurentPoly(below.vars, step))
            self._monomial_nfs[m] = nf
        return nf

    def contains(self, f: LaurentPoly) -> bool:
        return self.rewrite(f) is not None


def kernel_of_map(
    ringmap: RingMap,
    source_coords: Sequence[str],
    laurent_vars: Sequence[str],
    poly_vars: Sequence[str],
) -> Ideal:
    """The full relation ideal of a fractional parametrization.

    Clears denominators, inverts them with an auxiliary variable
    (saturation), and eliminates the target ring variables.
    """
    target = PresentedRing(laurent_vars, poly_vars)
    source_coords = tuple(source_coords)
    gens = list(target.ideal.gens)
    den_product = LaurentPoly.const(1)
    seen = set()
    for coord in source_coords:
        num, den = (target._encode(p) for p in target.split(ringmap.images[coord]))
        gens.append(LaurentPoly.var(coord) * den - num)
        key = den._canonical_items()
        if key not in seen and not den.is_monomial():
            seen.add(key)
            den_product = den_product * den
    invert = [] if den_product.is_monomial() else [den_product]
    return Elimination(target._ambient, source_coords, gens, invert).kept()
