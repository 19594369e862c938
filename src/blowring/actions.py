"""Finite group actions on Laurent rings by signed monomial substitutions.

Every generator sends a variable to (unit coefficient) * (monomial); this
covers all the actions in scope: Weyl inversions w(y,z) = (y^-1, z^-1),
isogeny sign flips, and the wall-ratio twists on blow-up generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fractions import RingFraction
from .poly import LaurentPoly
from .rings import PresentedRing
from .scalars import ONE, GaussianRational

GROUP_CAP = 1024

Image = tuple[GaussianRational, dict[str, int]]


class GroupCapExceeded(RuntimeError):
    pass


class Substitution:
    """A ring automorphism v -> c * prod(w^e) of polynomials and fractions; unmapped variables are fixed."""

    __slots__ = ("images",)

    def __init__(self, images: Mapping[str, Image]):
        clean = {}
        for v, (coeff, mono) in images.items():
            if not coeff:
                raise ValueError(f"zero coefficient in image of {v!r}")
            clean[v] = (coeff, {w: int(e) for w, e in mono.items() if e})
        object.__setattr__(self, "images", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    @classmethod
    def parse(cls, table: Mapping[str, str]) -> "Substitution":
        """Build from a substitution table like {"y": "y^-1", "z": "-z"}."""
        from .poly import parse_poly

        images = {}
        for v, text in table.items():
            p = parse_poly(text)
            if not p.is_monomial():
                raise ValueError(f"image of {v!r} is not a monomial: {text!r}")
            ((exps, coeff),) = p.terms.items()
            images[v] = (coeff, {w: e for w, e in zip(p.vars, exps) if e})
        return cls(images)

    def image_of(self, var: str) -> Image:
        return self.images.get(var, (ONE, {var: 1}))

    def __call__(self, f: LaurentPoly | RingFraction) -> LaurentPoly | RingFraction:
        if isinstance(f, RingFraction):
            return RingFraction(self(f.num), self(f.den))
        return f.substitute_monomials(self.images)

    def compose(self, other: "Substitution") -> "Substitution":
        """self after other."""
        vars = set(self.images) | set(other.images)
        out: dict[str, Image] = {}
        for v in vars:
            coeff, mono = other.image_of(v)
            acc: dict[str, int] = {}
            c = coeff
            for w, e in mono.items():
                wc, wm = self.image_of(w)
                c = c * wc ** e
                for u, ue in wm.items():
                    acc[u] = acc.get(u, 0) + ue * e
            out[v] = (c, {u: e for u, e in acc.items() if e})
        return Substitution(out)

    def _canonical(self):
        items = []
        for v in sorted(self.images):
            coeff, mono = self.images[v]
            if coeff == ONE and mono == {v: 1}:
                continue
            items.append((v, coeff.re, coeff.im, tuple(sorted(mono.items()))))
        return tuple(items)

    def __eq__(self, other):
        return isinstance(other, Substitution) and self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        body = ", ".join(
            f"{v} -> {LaurentPoly.monomial(c, m)}" for v, (c, m) in sorted(self.images.items())
        )
        return f"<Substitution {body or 'id'}>"


IDENTITY = Substitution({})


class GroupAction:
    """The finite group generated by a list of substitutions."""

    def __init__(self, generators: Iterable[Substitution]):
        self.generators = list(generators)
        self._elements: list[Substitution] | None = None

    def elements(self) -> list[Substitution]:
        if self._elements is None:
            seen = {IDENTITY}
            frontier = [IDENTITY]
            while frontier:
                nxt = []
                for g in frontier:
                    for s in self.generators:
                        h = s.compose(g)
                        if h not in seen:
                            if len(seen) >= GROUP_CAP:
                                raise GroupCapExceeded(f"group enumeration exceeded cap {GROUP_CAP}")
                            seen.add(h)
                            nxt.append(h)
                frontier = nxt
            self._elements = sorted(seen, key=lambda s: s._canonical())
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def reynolds(self, f: LaurentPoly) -> LaurentPoly:
        """The invariant projector (1/|G|) * sum_g g(f)."""
        els = self.elements()
        total = LaurentPoly.zero(f.vars)
        for g in els:
            total = total + g(f)
        return total * Fraction(1, len(els))

    def is_invariant(self, f: LaurentPoly | RingFraction) -> bool:
        return all(s(f) == f for s in self.generators)


def invariant_generators(
    action: GroupAction,
    laurent_vars: Sequence[str] = (),
    poly_vars: Sequence[str] = (),
    degree_bound: int | None = None,
) -> list[LaurentPoly]:
    """Generators of the invariant ring: the Reynolds images of the monomials of
    exponent height <= degree_bound, walked by height, keeping those not in the
    subalgebra that lower heights generate (Gröbner subalgebra-membership
    oracle). Every candidate lies in the algebra the output generates. The
    default height |G| (Noether's bound) makes the output generate the whole
    invariant ring; see ``_noether_bound``."""
    if degree_bound is None:
        degree_bound = _noether_bound(action, laurent_vars, poly_vars)
    if degree_bound < 1:
        raise ValueError(f"degree bound must be positive, got {degree_bound}")
    ring = PresentedRing(laurent_vars, poly_vars, [])
    gens: list[LaurentPoly] = []
    oracle, sealed, height = None, 0, None
    for (h, _), cand in _symmetrized_candidates(action, degree_bound, ring):
        # candidates of one height are tested against the lower heights only
        if h != height and len(gens) > sealed:
            oracle = ring.subalgebra_oracle(gens, [f"_s{k}" for k in range(len(gens))])
            sealed = len(gens)
        height = h
        if oracle is None or not oracle.contains(cand):
            gens.append(cand)
    return gens


def _noether_bound(action: GroupAction, laurent_vars: Sequence[str], poly_vars: Sequence[str]) -> int:
    """|G|, after checking that each generator sends every variable to a scalar
    times one variable of the same kind, to the power -1 only between Laurent
    variables. G then acts linearly on the span of the variables and the
    Laurent inverses; the polynomial ring on that span maps onto the ring
    equivariantly, so Noether's bound (in characteristic 0 the invariants are
    generated in degree <= |G|) holds for exponent height. Raises ValueError
    for any other action."""
    powers = dict.fromkeys(laurent_vars, (1, -1)) | dict.fromkeys(poly_vars, (1,))
    # a permutation: every image is one variable of the same kind, all distinct
    for s in action.generators:
        images = {v: s.image_of(v)[1] for v in powers}
        if len({w for mono in images.values() for w in mono}) < len(powers) or not all(
            len(mono) == 1 and all(powers.get(w) == powers[v] and e in powers[v] for w, e in mono.items())
            for v, mono in images.items()
        ):
            raise ValueError(
                f"{s!r} does not permute the variables and the Laurent inverses up to scalars, "
                "so |G| is not a proven degree bound: pass degree_bound"
            )
    return action.order()


def _symmetrized_candidates(action, bound, ring):
    """Primitive Reynolds images of the ring's monomials up to the bound, as
    sorted ((height, key), candidate) pairs; reduced modulo the relations, and
    deduplicated after reduction, when the ring has any."""
    vars = ring.laurent_vars + ring.poly_vars
    seen: set = set()
    out: list[tuple[tuple, LaurentPoly]] = []
    for exps in _exponent_box(len(ring.laurent_vars), len(ring.poly_vars), bound):
        if not any(exps):
            continue
        mono = LaurentPoly(vars, {exps: ONE})
        sym = action.reynolds(mono)
        if sym.is_zero():
            continue
        _, prim = sym.scaled_primitive()
        if ring.relations:
            prim = ring.nf(prim)
            if prim.is_zero():
                continue
        key = prim._canonical_items()
        if key in seen:
            continue
        seen.add(key)
        height = sum(abs(e) for e in exps)
        # coefficients order as (re, im) pairs; GaussianRational has no <
        out.append(((height, tuple((m, c.re, c.im) for m, c in key)), prim))
    out.sort(key=lambda pair: pair[0])
    return out


def _exponent_box(n_laurent: int, n_poly: int, bound: int):
    def rec(i, remaining, prefix):
        if i == n_laurent + n_poly:
            yield tuple(prefix)
            return
        lo = -min(remaining, bound) if i < n_laurent else 0
        hi = min(remaining, bound)
        for e in range(lo, hi + 1):
            prefix.append(e)
            yield from rec(i + 1, remaining - abs(e), prefix)
            prefix.pop()

    yield from rec(0, bound, [])
