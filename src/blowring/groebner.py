"""Buchberger Gröbner engine over Gaussian rationals.

The engine works in ordinary polynomial rings (nonnegative exponents);
Laurent rings are presented over it by ``rings.PresentedRing``.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import accumulate
from operator import add, itemgetter, le, neg, sub
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
        return (sum(exps), tuple(map(neg, exps[::-1])))

    def neg_key(self, exps: Exps):
        """A key whose min is the order's max (for min-heaps)."""
        return (-sum(exps), exps[::-1])

    def __repr__(self):
        return "GrevLex()"


class BlockOrder:
    """Product of grevlex blocks; earlier blocks dominate (elimination order)."""

    name = "block"

    def __init__(self, blocks: Sequence[Sequence[int]]):
        self.blocks = tuple(tuple(b) for b in blocks)
        # every block's exponents, last variable first, gathered in one call
        # and then cut into one slice per block
        gathered = [i for block in self.blocks for i in reversed(block)]
        if len(gathered) > 1:
            self._gather = itemgetter(*gathered)
        else:
            self._gather = lambda exps: tuple(exps[i] for i in gathered)
        ends = list(accumulate(map(len, self.blocks)))
        self._slices = tuple(map(slice, [0] + ends, ends))

    def key(self, exps: Exps):
        r = self._gather(exps)
        return tuple([(sum(r[s]), tuple(map(neg, r[s]))) for s in self._slices])

    def neg_key(self, exps: Exps):
        r = self._gather(exps)
        return tuple([(-sum(r[s]), r[s]) for s in self._slices])

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

# A lead table has one entry per nonzero basis element, built once per basis:
# (terms, lead monomial, lead coefficient, support mask). The terms are the
# element's own dict, not a copy.
LeadEntry = tuple[dict, Exps, GaussianRational, int]


def _support(exps: Exps) -> int:
    """One byte per variable, 1 where the exponent is positive.

    A monomial whose support has a variable that another lacks cannot divide
    it, so ``mask & ~other_mask`` rejects most divisor candidates in one step.
    """
    return int.from_bytes(bytes(map(bool, exps)), "little")


def leading(f: LaurentPoly, order) -> tuple[Exps, GaussianRational]:
    lm = max(f.terms, key=order.key)
    return lm, f.terms[lm]


def _lead_table(basis: Sequence[LaurentPoly], order) -> list[LeadEntry]:
    table = []
    for g in basis:
        if g.terms:
            lm, lc = leading(g, order)
            table.append((g.terms, lm, lc, _support(lm)))
    return table


def _divides(a: Exps, b: Exps) -> bool:
    return all(map(le, a, b))


def _mul_term(f: LaurentPoly, coeff: GaussianRational, shift: Exps) -> LaurentPoly:
    return LaurentPoly(
        f.vars,
        {tuple(map(add, exps, shift)): c * coeff for exps, c in f.terms.items()},
    )


def normal_form(
    f: LaurentPoly,
    basis: Sequence[LaurentPoly],
    ring: PolyRing,
    _leads: list[LeadEntry] | None = None,
) -> LaurentPoly:
    """Fully reduced remainder of multivariate division by ``basis``.

    Each step reduces by the first basis element whose lead divides the
    current lead. ``_leads`` is the lead table of ``basis`` when the caller
    already holds it.
    """
    term_cap = _term_cap
    order = ring.order
    leads = _lead_table(basis, order) if _leads is None else _leads
    p = dict(ring.align(f).terms)
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
        outside = ~_support(lm)
        for gterms, glm, glc, gmask in leads:
            if gmask & outside or not _divides(glm, lm):
                continue
            factor = lc / glc
            shift = tuple(map(sub, lm, glm))
            for ge, gc in gterms.items():
                ke = tuple(map(add, shift, ge))
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
    lcm = tuple(map(max, flm, glm))
    sf = tuple(map(sub, lcm, flm))
    sg = tuple(map(sub, lcm, glm))
    return _mul_term(f, flc.inverse(), sf) - _mul_term(g, glc.inverse(), sg)


def buchberger(gens: Iterable[LaurentPoly], ring: PolyRing) -> list[LaurentPoly]:
    """Reduced Gröbner basis of the ideal generated by ``gens``.

    Normal selection strategy (pairs popped by lcm order), with Buchberger's
    coprimality and chain criteria. Deterministic: the result depends only on
    the generators and the order, not on scheduling.
    """
    term_cap = _term_cap
    order = ring.order
    key = order.key

    basis: list[LaurentPoly] = []
    for g in gens:
        g = ring.align(g)
        if g.terms:
            basis.append(g * leading(g, order)[1].inverse())
    basis = _interreduce(basis, ring)
    leads = _lead_table(basis, order)

    heap: list = []
    pairset: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int):
        lcm = tuple(map(max, leads[i][1], leads[j][1]))
        heapq.heappush(heap, (key(lcm), i, j, lcm))
        pairset.add((i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pairset.discard((i, j))
        _, flm, flc, fmask = leads[i]
        _, glm, glc, gmask = leads[j]
        # Buchberger's first criterion: coprime leading monomials
        if not fmask & gmask:
            continue
        # chain criterion
        if _chain_criterion(i, j, lcm, fmask | gmask, leads, pairset):
            continue
        s = _spoly(basis[i], flm, flc, basis[j], glm, glc, order)
        r = normal_form(s, basis, ring, leads)
        if r.terms:
            lm, lc = leading(r, order)
            r = r * lc.inverse()
            basis.append(r)
            leads.append((r.terms, lm, ONE, _support(lm)))
            k = len(basis) - 1
            for m in range(k):
                push_pair(m, k)
            if sum(len(b.terms) for b in basis) > term_cap:
                raise ResourceLimitError(f"basis exceeded {term_cap} terms")
    return _reduce_basis(basis, leads, ring)


def _chain_criterion(i, j, lcm, lcm_mask, leads, pairset) -> bool:
    outside = ~lcm_mask
    for k, (_, klm, _, kmask) in enumerate(leads):
        if k == i or k == j or kmask & outside or not _divides(klm, lcm):
            continue
        a, b = (i, k) if i < k else (k, i)
        c, d = (j, k) if j < k else (k, j)
        if (a, b) not in pairset and (c, d) not in pairset:
            return True
    return False


def _interreduce(polys: list[LaurentPoly], ring: PolyRing) -> list[LaurentPoly]:
    order = ring.order
    work = sorted(polys, key=lambda p: order.key(leading(p, order)[0]))
    changed = True
    while changed:
        changed = False
        leads = _lead_table(work, order)
        out: list[LaurentPoly] = []
        out_leads: list[LeadEntry] = []
        for idx, p in enumerate(work):
            others = out_leads + leads[idx + 1 :]
            r = normal_form(p, out + work[idx + 1 :], ring, others) if others else p
            if r.terms:
                lm, lc = leading(r, order)
                r = r * lc.inverse()
                if r != p:
                    changed = True
                out.append(r)
                out_leads.append((r.terms, lm, ONE, _support(lm)))
            else:
                changed = True
        work = sorted(out, key=lambda p: order.key(leading(p, order)[0]))
    return work


def _reduce_basis(
    basis: list[LaurentPoly], leads: list[LeadEntry], ring: PolyRing
) -> list[LaurentPoly]:
    order = ring.order
    # minimal: drop generators whose lead is divisible by another lead
    kept = [
        i
        for i, (_, li, _, mi) in enumerate(leads)
        if not any(
            j != i and not mj & ~mi and _divides(lj, li) and (not _divides(li, lj) or j < i)
            for j, (_, lj, _, mj) in enumerate(leads)
        )
    ]
    polys = [basis[i] for i in kept]
    kept_leads = [leads[i] for i in kept]
    # reduced: every tail reduced against the others
    out = []
    for i, g in enumerate(polys):
        others = kept_leads[:i] + kept_leads[i + 1 :]
        r = normal_form(g, polys[:i] + polys[i + 1 :], ring, others) if others else g
        if r.terms:
            _, lc = leading(r, order)
            out.append(r * lc.inverse())
    out.sort(key=lambda p: order.key(leading(p, order)[0]))
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
        self._leads: list[LeadEntry] | None = None

    def groebner(self) -> list[LaurentPoly]:
        if self._gb is None:
            self._gb = buchberger([g for g in self.gens if g.terms], self.ring)
        return self._gb

    def normal_form(self, f: LaurentPoly) -> LaurentPoly:
        if self._leads is None:
            self._leads = _lead_table(self.groebner(), self.ring.order)
        return normal_form(f, self._gb, self.ring, self._leads)

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
