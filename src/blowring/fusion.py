"""The q-deformed multiplication table of the rank-1 convolution ring.

Three recurrences expand products of degree-one orbit classes into
q-weighted basis symbols. The two general rules share a boundary defect at
n in {0, 1}: the last-summand convention would need a class below the point
orbit (or contradicts the closed product formula), so those parameters are
flagged ambiguous and never silently expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kring import VClass

KINDS = ("odin", "dva", "tri")


class FusionRangeError(ValueError):
    pass


@dataclass(frozen=True)
class FusionTerm:
    q_power: int
    v: VClass

    def __str__(self):
        if self.q_power == 0:
            return str(self.v)
        return f"q^{self.q_power} * {self.v}"


@dataclass
class FusionExpansion:
    kind: str
    params: dict
    lhs_q_power: int
    lhs_factors: tuple[VClass, ...]
    terms: tuple[FusionTerm, ...]
    ambiguous: bool = False
    note: str | None = None

    def __str__(self):
        rhs = " + ".join(str(t) for t in self.terms) or "0"
        if self.ambiguous:
            rhs += "  [ambiguous tail]"
        return rhs

    def lhs_str(self) -> str:
        prod = " * ".join(str(v) for v in self.lhs_factors)
        if self.lhs_q_power:
            return f"q^{self.lhs_q_power} * {prod}"
        return prod

    def q1_symbols(self) -> tuple[tuple[int, int], ...]:
        """The multiset of (n, m) symbols at q = 1, sorted."""
        return tuple(sorted((t.v.n, t.v.m) for t in self.terms))


def fusion_table(kind: str, **params) -> FusionExpansion:
    """Expand one table recurrence; parameters are validated, not clamped."""
    if kind == "tri":
        return _tri(**params)
    if kind == "odin":
        return _general(kind, sign=+1, **params)
    if kind == "dva":
        return _general(kind, sign=-1, **params)
    raise FusionRangeError(f"unknown kind {kind!r}; expected one of {KINDS}")


def _tri(a: int, b: int, l: int) -> FusionExpansion:
    if a < 0 or b < 0 or a + b < 1:
        raise FusionRangeError("tri requires a, b >= 0 and a + b >= 1")
    doubled = a * (1 - a) + l * (a + b) * (1 - a - b)
    if doubled % 2:
        raise FusionRangeError("non-integral q-exponent in tri")
    q_power = doubled // 2
    target = VClass(a + l * (a + b), a + b)
    factors = (VClass(l + 1, 1),) * a + (VClass(l, 1),) * b
    return FusionExpansion(
        kind="tri",
        params={"a": a, "b": b, "l": l},
        lhs_q_power=0,
        lhs_factors=factors,
        terms=(FusionTerm(q_power, target),),
    )


def _general(kind: str, sign: int, n: int, l: int) -> FusionExpansion:
    if n < 0:
        raise FusionRangeError(f"{kind} requires n >= 0")
    if sign > 0:
        lhs_q = -l
        factors = (VClass(l + n, 1), VClass(l, 1))
        head = FusionTerm(-2 * l, VClass(2 * l + n, 2))
        tail = [FusionTerm(2 * j, VClass(n - 2 * j, 0)) for j in range(1, n // 2 + 1)]
    else:
        lhs_q = -l - 2
        factors = (VClass(l - n, 1), VClass(l, 1))
        head = FusionTerm(-2 * l - 2, VClass(2 * l - n, 2))
        tail = [FusionTerm(-2 * j, VClass(n - 2 * j, 0)) for j in range(1, n // 2 + 1)]
    ambiguous = n in (0, 1)
    note = None
    if ambiguous:
        note = (
            "last-summand convention contradicts the closed product formula at "
            f"n = {n}: it would require a class below the point orbit"
        )
    return FusionExpansion(
        kind=kind,
        params={"n": n, "l": l},
        lhs_q_power=lhs_q,
        lhs_factors=factors,
        terms=(head, *tail),
        ambiguous=ambiguous,
        note=note,
    )


@dataclass
class SweepRecord:
    n: int
    l: int
    status: str  # pass | fail | skipped-ambiguous
    detail: str


def consistency_sweep():
    """Check the two general recurrences against each other at q = 1, n = 2..6, l = 1..4.

    Both expand the same unordered product of degree-one classes (after the
    parameter shift l -> l + n in the second rule); their q = 1 symbol
    multisets must agree. The n = 1 boundary is reported skipped-ambiguous.
    """
    records = [SweepRecord(1, 0, "skipped-ambiguous", _general("odin", +1, n=1, l=1).note or "")]
    for n in range(2, 7):
        for l in range(1, 5):
            first = fusion_table("odin", n=n, l=l)
            second = fusion_table("dva", n=n, l=l + n)
            same_product = sorted((v.n, v.m) for v in first.lhs_factors) == sorted(
                (v.n, v.m) for v in second.lhs_factors
            )
            same_q1 = first.q1_symbols() == second.q1_symbols()
            ok = same_product and same_q1
            records.append(
                SweepRecord(
                    n,
                    l,
                    "pass" if ok else "fail",
                    f"q=1 symbols {first.q1_symbols()} vs {second.q1_symbols()}",
                )
            )
    return records
