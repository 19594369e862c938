"""Fractions of Laurent polynomials and ring maps with fractional images.

No multivariate gcd is attempted: fractions only cancel unit (single-term)
content. Sums, differences and equality of two fractions over equal
denominators work on the numerators and keep the denominator; otherwise they
cross-multiply, which is exact.
"""

from __future__ import annotations

from typing import Mapping

from .poly import LaurentPoly, format_poly, parse_poly
from .scalars import GaussianRational, power


class RingFraction:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(1, num.vars)
        if not den.terms:
            raise ZeroDivisionError("zero denominator")
        if den.is_monomial():
            num = num * den.monomial_inverse()
            den = LaurentPoly.const(1, num.vars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RingFraction is immutable")

    @classmethod
    def of(cls, value) -> "RingFraction":
        if isinstance(value, RingFraction):
            return value
        if isinstance(value, LaurentPoly):
            return cls(value)
        return cls(LaurentPoly.const(value))

    def is_polynomial(self) -> bool:
        return self.den.is_monomial()

    def as_poly(self) -> LaurentPoly:
        if not self.is_polynomial():
            raise ValueError(f"not polynomial: {self}")
        return self.num * self.den.monomial_inverse()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "RingFraction":
        other = RingFraction.of(other)
        if _equal_dens(self.den, other.den):
            return RingFraction(self.num + other.num, self.den)
        return RingFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RingFraction":
        return RingFraction(-self.num, self.den)

    def __sub__(self, other) -> "RingFraction":
        other = RingFraction.of(other)
        if _equal_dens(self.den, other.den):
            return RingFraction(self.num - other.num, self.den)
        return RingFraction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "RingFraction":
        return RingFraction.of(other) - self

    def __mul__(self, other) -> "RingFraction":
        other = RingFraction.of(other)
        return RingFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RingFraction":
        if not self.num.terms:
            raise ZeroDivisionError("inverse of zero fraction")
        return RingFraction(self.den, self.num)

    def __truediv__(self, other) -> "RingFraction":
        return self * RingFraction.of(other).inverse()

    def __rtruediv__(self, other) -> "RingFraction":
        return RingFraction.of(other) * self.inverse()

    def __pow__(self, n: int) -> "RingFraction":
        return power(self if n >= 0 else self.inverse(), abs(n), RingFraction(LaurentPoly.const(1, self.num.vars)))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RingFraction, LaurentPoly, int, GaussianRational)):
            return NotImplemented
        other = RingFraction.of(other)
        if _equal_dens(self.den, other.den):
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("RingFraction is unhashable (no canonical form without gcd)")

    def __str__(self) -> str:
        if self.is_polynomial():
            return format_poly(self.as_poly())
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"<RingFraction {self}>"


def _equal_dens(a: LaurentPoly, b: LaurentPoly) -> bool:
    """a == b, by a plain dict comparison when the variable lists agree."""
    if a.vars == b.vars:
        return a.terms == b.terms
    return len(a.terms) == len(b.terms) and a == b


def parse_fraction(text: str) -> RingFraction:
    """Parse `num / den` (a single top-level slash) or a plain polynomial."""
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            # rational literals like 1/2 have digits on both sides
            left = text[:i].rstrip()
            right = text[i + 1 :].lstrip()
            if left and right and not (left[-1].isdigit() and right[0].isdigit()):
                split = i
                break
    if split is None:
        return RingFraction(parse_poly(text))
    return RingFraction(parse_poly(text[:split]), parse_poly(text[split + 1 :]))


class RingMap:
    """A ring homomorphism given on source variables by fractional images."""

    def __init__(self, images: Mapping[str, RingFraction | LaurentPoly]):
        self.images = {k: RingFraction.of(v) for k, v in images.items()}

    def __call__(self, f: LaurentPoly) -> RingFraction:
        # the sum and each term start over the images' variables, so no product re-aligns them
        vars = tuple(dict.fromkeys(v for q in self.images.values() for p in (q.num, q.den) for v in p.vars))
        total = RingFraction(LaurentPoly.zero(vars))
        for exps, coeff in f.terms.items():
            part = RingFraction(LaurentPoly.const(coeff, vars))
            for v, e in zip(f.vars, exps):
                if not e:
                    continue
                if v not in self.images:
                    part = part * RingFraction.of(LaurentPoly.var(v)) ** e
                else:
                    part = part * self.images[v] ** e
            total = total + part
        return total

    def __repr__(self):
        body = ", ".join(f"{k} -> {v}" for k, v in self.images.items())
        return f"<RingMap {body}>"
