"""Buchberger Gröbner engine over Gaussian rationals.

The engine works in ordinary polynomial rings (nonnegative exponents);
Laurent rings are presented over it by ``rings.PresentedRing``.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Iterable, Sequence

from .poly import Exps, LaurentPoly
from .scalars import GaussianRational, ONE

DEFAULT_TERM_CAP = 200_000
_term_cap = DEFAULT_TERM_CAP


@contextmanager
def term_budget(cap: int):
    """Bound every normal form and basis computed inside the block by ``cap`` terms."""
    global _term_cap
    saved, _term_cap = _term_cap, cap
    try:
        yield
    finally:
        _term_cap = saved


class ResourceLimitError(RuntimeError):
    """Raised when a computation exceeds the configured term cap."""


class OrderMismatchError(ValueError):
    """Raised when a polynomial does not live in an ideal's ring."""


# -- monomial orders -----------------------------------------------------------


class GrevLex:
    """Graded reverse lexicographic order."""

    name = "grevlex"

    def key(self, exps: Exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def neg_key(self, exps: Exps):
        """A key whose min is the order's max (for min-heaps)."""
        return (-sum(exps), tuple(reversed(exps)))

    def __repr__(self):
        return "GrevLex()"


class BlockOrder:
    """Product of grevlex blocks; earlier blocks dominate (elimination order)."""

    name = "block"

    def __init__(self, blocks: Sequence[Sequence[int]]):
        self.blocks = tuple(tuple(b) for b in blocks)

    def key(self, exps: Exps):
        return tuple(
            (sum(exps[i] for i in block), tuple(-exps[i] for i in reversed(block)))
            for block in self.blocks
        )

    def neg_key(self, exps: Exps):
        return tuple(
            (-sum(exps[i] for i in block), tuple(exps[i] for i in reversed(block)))
            for block in self.blocks
        )

    def __repr__(self):
        return f"BlockOrder({self.blocks!r})"


class PolyRing:
    """Ordered ambient polynomial ring descriptor."""

    __slots__ = ("vars", "order")

    def __init__(self, vars: Sequence[str], order=None):
        self.vars = tuple(vars)
        self.order = order or GrevLex()

    def align(self, f: LaurentPoly) -> LaurentPoly:
        g = f.with_vars(self.vars) if f.vars != self.vars else f
        for exps in g.terms:
            if any(e < 0 for e in exps):
                raise OrderMismatchError("negative exponent in polynomial-ring element")
        return g

    def __repr__(self):
        return f"PolyRing({self.vars!r}, {self.order!r})"


# -- division ------------------------------------------------------------------


def leading(f: LaurentPoly, order) -> tuple[Exps, GaussianRational]:
    lm = max(f.terms, key=order.key)
    return lm, f.terms[lm]


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mul_term(f: LaurentPoly, coeff: GaussianRational, shift: Exps) -> LaurentPoly:
    return LaurentPoly(
        f.vars,
        {tuple(e + s for e, s in zip(exps, shift)): c * coeff for exps, c in f.terms.items()},
    )


def normal_form(
    f: LaurentPoly,
    basis: Sequence[LaurentPoly],
    ring: PolyRing,
    _key_cache: dict | None = None,
) -> LaurentPoly:
    """Fully reduced remainder of multivariate division by ``basis``."""
    term_cap = _term_cap
    order = ring.order
    kcache: dict[Exps, tuple] = {} if _key_cache is None else _key_cache
    okey = order.key

    def key_of(e: Exps):
        k = kcache.get(e)
        if k is None:
            k = okey(e)
            kcache[e] = k
        return k

    p = dict(ring.align(f).terms)
    prepared = []
    for g in basis:
        if g.terms:
            glm = max(g.terms, key=key_of)
            prepared.append((g.terms, glm, g.terms[glm]))
    remainder: dict[Exps, GaussianRational] = {}
    # max-heap with lazy deletion: monomials may linger after cancellation
    nkey = order.neg_key
    heap = [(nkey(e), e) for e in p]
    heapq.heapify(heap)
    in_heap = set(p)
    while p:
        if len(p) + len(remainder) > term_cap:
            raise ResourceLimitError(f"normal_form exceeded {term_cap} terms")
        while heap:
            _, lm = heap[0]
            if lm in p:
                break
            heapq.heappop(heap)
            in_heap.discard(lm)
        lc = p[lm]
        for gterms, glm, glc in prepared:
            if _divides(glm, lm):
                factor = lc / glc
                for ge, gc in gterms.items():
                    # shift = lm - glm applied to every term of g
                    ke = tuple(x - a + b for x, a, b in zip(lm, glm, ge))
                    cur = p.get(ke)
                    nv = cur - gc * factor if cur is not None else -(gc * factor)
                    if nv:
                        p[ke] = nv
                        if ke not in in_heap:
                            heapq.heappush(heap, (nkey(ke), ke))
                            in_heap.add(ke)
                    else:
                        p.pop(ke, None)
                break
        else:
            remainder[lm] = lc
            del p[lm]
    return LaurentPoly(ring.vars, remainder)


def _spoly(f, flm, flc, g, glm, glc, order) -> LaurentPoly:
    lcm = tuple(max(a, b) for a, b in zip(flm, glm))
    sf = tuple(a - b for a, b in zip(lcm, flm))
    sg = tuple(a - b for a, b in zip(lcm, glm))
    return _mul_term(f, flc.inverse(), sf) - _mul_term(g, glc.inverse(), sg)


def buchberger(gens: Iterable[LaurentPoly], ring: PolyRing) -> list[LaurentPoly]:
    """Reduced Gröbner basis of the ideal generated by ``gens``.

    Normal selection strategy (pairs popped by lcm order), with Buchberger's
    coprimality and chain criteria. Deterministic: the result depends only on
    the generators and the order, not on scheduling.
    """
    term_cap = _term_cap
    order = ring.order
    kcache: dict[Exps, tuple] = {}
    okey = order.key

    def key_of(e: Exps):
        k = kcache.get(e)
        if k is None:
            k = okey(e)
            kcache[e] = k
        return k

    basis: list[LaurentPoly] = []
    for g in gens:
        g = ring.align(g)
        if g.terms:
            lm = max(g.terms, key=key_of)
            basis.append(g * g.terms[lm].inverse())
    basis = _interreduce(basis, ring, kcache)
    leads = []
    for g in basis:
        lm = max(g.terms, key=key_of)
        leads.append((lm, g.terms[lm]))

    heap: list = []
    pairset: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int):
        lcm = tuple(max(a, b) for a, b in zip(leads[i][0], leads[j][0]))
        heapq.heappush(heap, (key_of(lcm), i, j, lcm))
        pairset.add((i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pairset.discard((i, j))
        flm, glm = leads[i][0], leads[j][0]
        # Buchberger's first criterion: coprime leading monomials
        if all(a + b == c for a, b, c in zip(flm, glm, lcm)):
            continue
        # chain criterion
        if _chain_criterion(i, j, lcm, leads, pairset):
            continue
        s = _spoly(basis[i], flm, leads[i][1], basis[j], glm, leads[j][1], order)
        r = normal_form(s, basis, ring, kcache)
        if r.terms:
            lm = max(r.terms, key=key_of)
            r = r * r.terms[lm].inverse()
            basis.append(r)
            leads.append((lm, ONE))
            k = len(basis) - 1
            for m in range(k):
                push_pair(m, k)
            if sum(len(b.terms) for b in basis) > term_cap:
                raise ResourceLimitError(f"basis exceeded {term_cap} terms")
    return _reduce_basis(basis, ring, kcache)


def _chain_criterion(i, j, lcm, leads, pairset) -> bool:
    for k in range(len(leads)):
        if k == i or k == j:
            continue
        if _divides(leads[k][0], lcm):
            a, b = (i, k) if i < k else (k, i)
            c, d = (j, k) if j < k else (k, j)
            if (a, b) not in pairset and (c, d) not in pairset:
                return True
    return False


def _interreduce(
    polys: list[LaurentPoly], ring: PolyRing, kcache: dict | None = None
) -> list[LaurentPoly]:
    order = ring.order
    work = sorted(polys, key=lambda p: order.key(leading(p, order)[0]))
    changed = True
    while changed:
        changed = False
        out: list[LaurentPoly] = []
        for idx, p in enumerate(work):
            others = out + work[idx + 1 :]
            r = normal_form(p, others, ring, kcache) if others else p
            if r.terms:
                _, lc = leading(r, order)
                r = r * lc.inverse()
                if r != p:
                    changed = True
                out.append(r)
            else:
                changed = True
        work = sorted(out, key=lambda p: order.key(leading(p, order)[0]))
    return work


def _reduce_basis(
    basis: list[LaurentPoly], ring: PolyRing, kcache: dict | None = None
) -> list[LaurentPoly]:
    order = ring.order
    # minimal: drop generators whose lead is divisible by another lead
    kept: list[LaurentPoly] = []
    leads = [leading(g, order)[0] for g in basis]
    for i, g in enumerate(basis):
        lm = leads[i]
        redundant = any(
            j != i and _divides(leads[j], lm) and (not _divides(lm, leads[j]) or j < i)
            for j in range(len(basis))
        )
        if not redundant:
            kept.append(g)
    # reduced: every tail reduced against the others
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others, ring, kcache) if others else g
        if r.terms:
            _, lc = leading(r, order)
            out.append(r * lc.inverse())
    out.sort(key=lambda p: ring.order.key(leading(p, ring.order)[0]))
    return out


# -- Laurent division helpers ---------------------------------------------------


def laurent_exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient f/g in the Laurent ring, or None."""
    if g.is_zero():
        raise ZeroDivisionError
    if f.is_zero():
        return LaurentPoly.zero(f.vars)
    vars = LaurentPoly.merge_vars(f, g)
    f = f.with_vars(vars)
    g = g.with_vars(vars)
    shift_f = {v: -min(0, f.min_degree_in(v)) for v in vars}
    shift_g = {v: -min(0, g.min_degree_in(v)) for v in vars}
    fpos = f * LaurentPoly.monomial(ONE, shift_f)
    gpos = g * LaurentPoly.monomial(ONE, shift_g)
    fpos = fpos.with_vars(vars)
    gpos = gpos.with_vars(vars)
    ring = PolyRing(vars)
    q, r = laurent_divmod_single(fpos, gpos, ring)
    if not r.is_zero():
        return None
    back = {v: shift_g[v] - shift_f[v] for v in vars}
    return q.with_vars(vars) * LaurentPoly.monomial(ONE, back)


def laurent_divmod_single(f: LaurentPoly, g: LaurentPoly, ring: PolyRing):
    order = ring.order
    key = order.key
    gterms = g.terms
    glm = max(gterms, key=key)
    glc = gterms[glm]
    p = dict(f.terms)
    q: dict = {}
    r: dict = {}
    while p:
        lm = max(p, key=key)
        lc = p[lm]
        if all(a <= b for a, b in zip(glm, lm)):
            shift = tuple(b - a for a, b in zip(glm, lm))
            factor = lc / glc
            q[shift] = q.get(shift, GaussianRational(0)) + factor
            for ge, gc in gterms.items():
                ke = tuple(x + s for x, s in zip(ge, shift))
                cur = p.get(ke)
                nv = cur - gc * factor if cur is not None else -(gc * factor)
                if nv:
                    p[ke] = nv
                else:
                    p.pop(ke, None)
        else:
            r[lm] = lc
            del p[lm]
    return LaurentPoly(ring.vars, q), LaurentPoly(ring.vars, r)



# -- ideals --------------------------------------------------------------------


class Ideal:
    """An ideal in an ordered polynomial ring, with a cached reduced basis."""

    def __init__(self, ring: PolyRing, gens: Sequence[LaurentPoly]):
        self.ring = ring
        self.gens = [ring.align(g) for g in gens]
        self._gb: list[LaurentPoly] | None = None

    def groebner(self) -> list[LaurentPoly]:
        if self._gb is None:
            self._gb = buchberger([g for g in self.gens if g.terms], self.ring)
        return self._gb

    def normal_form(self, f: LaurentPoly) -> LaurentPoly:
        return normal_form(f, self.groebner(), self.ring)

    def contains(self, f: LaurentPoly) -> bool:
        return not self.normal_form(f).terms

    def is_zero(self) -> bool:
        return not any(g.terms for g in self.groebner())

    def eliminate(self, keep: Sequence[str]) -> "Ideal":
        """Intersection with the subring in the kept variables."""
        keep = set(keep)
        drop = [v for v in self.ring.vars if v not in keep]
        kept = [v for v in self.ring.vars if v in keep]
        return Elimination(drop, kept, self.gens, ()).kept()

    def saturate(self, f: LaurentPoly) -> "Ideal":
        """I : f^infinity via an auxiliary inverse of f."""
        f = self.ring.align(f)
        if not f.terms:
            raise ValueError("cannot saturate by zero")
        inner = Elimination((), self.ring.vars, self.gens, [f]).kept()
        return Ideal(self.ring, inner.gens)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens[:4])
        more = ", ..." if len(self.gens) > 4 else ""
        return f"<Ideal ({gens}{more}) in {self.ring.vars}>"


class Elimination(Ideal):
    """An ideal in ``aux + drop + keep`` under the block order that puts ``aux + drop`` first.

    Each polynomial f in ``invert`` gets an auxiliary variable w, named fresh
    against every name in play, with f*w - 1 adjoined. An element whose normal
    form is free of the first block lies in the kept ring modulo the ideal,
    and that normal form is its certificate (the tag-variable method of
    Shannon and Sweedler).
    """

    def __init__(
        self,
        drop: Sequence[str],
        keep: Sequence[str],
        gens: Sequence[LaurentPoly],
        invert: Sequence[LaurentPoly],
    ):
        drop, keep = tuple(drop), tuple(keep)
        both = set(drop) & set(keep)
        if both:
            raise ValueError(f"variables {sorted(both)} are both kept and eliminated")
        taken = set(drop + keep).union(*(g.vars for g in gens), *(f.vars for f in invert))
        self.aux = tuple(_fresh_names(taken, len(invert)))
        self.keep = keep
        vars = self.aux + drop + keep
        n = len(vars) - len(keep)
        ring = PolyRing(vars, BlockOrder([range(n), range(n, len(vars))]))
        inverses = [f * LaurentPoly.var(w) - 1 for f, w in zip(invert, self.aux)]
        super().__init__(ring, list(gens) + inverses)

    def certificate(self, f: LaurentPoly) -> LaurentPoly | None:
        """The normal form of f in the kept variables, or None if it needs eliminated ones."""
        r = self.normal_form(f)
        if set(r.support_vars()) <= set(self.keep):
            return r.with_vars(self.keep)
        return None

    def kept(self) -> Ideal:
        """The elimination ideal, in the ring of the kept variables."""
        keep = set(self.keep)
        gens = [g.with_vars(self.keep) for g in self.groebner() if set(g.support_vars()) <= keep]
        return Ideal(PolyRing(self.keep), gens)


def _fresh_names(taken: set[str], count: int) -> list[str]:
    names = (f"_w{k}" for k in range(len(taken) + count))
    return [v for v in names if v not in taken][:count]
