"""The loop-rotation Heisenberg group algebra and its q -> 1 Poisson limit.

The basis element (q^n, e^lam, e^mu), lam a coweight and mu a weight of the rank-1 datum, is the
monomial q^n t^lam z^mu of a LaurentPoly; the central extension twists products by q^<mu_1, lam_2>.
Every commutator is divisible by q - 1; its quotient at q = 1 is the bracket of the (t, z) chart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import LaurentPoly
from .scalars import ONE, GaussianRational, gauss

VARS = ("q", "t", "z")


@dataclass(frozen=True, slots=True)
class HeisenbergElement:
    """A finite formal sum of central-extension basis elements, held as one LaurentPoly."""

    poly: LaurentPoly

    def __post_init__(self):
        object.__setattr__(self, "poly", self.poly.with_vars(VARS))

    @classmethod
    def basis(cls, q_power=0, coweight=(0,), weight=(0,), coeff=1) -> "HeisenbergElement":
        c = coeff if isinstance(coeff, GaussianRational) else gauss(coeff)
        return cls(LaurentPoly(VARS, {(q_power, *coweight, *weight): c}))

    @classmethod
    def one(cls) -> "HeisenbergElement":
        return cls.basis()

    def __add__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(self.poly + other.poly)

    def __neg__(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.poly)

    def __sub__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(self.poly - other.poly)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """Each term of self times other, every product of terms twisted by q^<mu_1, lam_2>."""
        terms = other.poly.terms.items()
        product = LaurentPoly.zero(VARS)
        for (n1, lam1, mu1), c1 in self.poly.terms.items():
            row = {(n1 + n2 + mu1 * lam2, lam1 + lam2, mu1 + mu2): c1 * c2 for (n2, lam2, mu2), c2 in terms}
            product = product + LaurentPoly(VARS, row)
        return HeisenbergElement(product)

    def specialize_q1(self) -> LaurentPoly:
        """Collapse the q column: the image on the (t, z) chart at q = 1."""
        return self.poly.substitute_monomials({"q": (ONE, {})}, ("t", "z"))

    def __repr__(self):
        return str(self.poly)


def commutes_at_q1(u: HeisenbergElement, v: HeisenbergElement) -> bool:
    """Every commutator coefficient is divisible by q - 1 (vanishes at q = 1)."""
    return (u * v - v * u).specialize_q1().is_zero()


def poisson_from_q(u: HeisenbergElement, v: HeisenbergElement) -> LaurentPoly:
    """(u v - v u)/(q - 1) at q = 1, which is p'(1) = (q d/dq p)(1) for the commutator p.
    The commutator rule makes the divisibility p(1) = 0 automatic; the check keeps it honest."""
    comm = u * v - v * u
    if not comm.specialize_q1().is_zero():
        raise AssertionError("commutator not divisible by q - 1")
    return HeisenbergElement(comm.poly.log_derivative("q")).specialize_q1()


def torus_monomial(coweight, weight) -> LaurentPoly:
    """e^lam e^mu as a monomial on the dual-torus-times-torus chart."""
    return LaurentPoly(("t", "z"), {(*coweight, *weight): ONE})
