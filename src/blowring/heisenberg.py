"""The loop-rotation Heisenberg group algebra and its q -> 1 Poisson limit.

Basis elements are triples (q^n, e^lam, e^mu) with lam a coweight and mu a
weight; the central extension twists the product by q^<mu_1, lam_2>. Every
commutator is divisible by q - 1, and the quotient at q = 1 is the standard
bracket on the dual-torus-times-torus chart.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .poly import LaurentPoly
from .rootdata import RootDatum
from .scalars import ONE, ZERO, GaussianRational, gauss

Key = tuple[int, tuple[int, ...], tuple[int, ...]]


class LatticeMismatchError(ValueError):
    pass


class HeisenbergElement:
    """A finite formal sum of central-extension basis elements."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum: RootDatum, terms: Mapping[Key, GaussianRational] | None = None):
        clean: dict[Key, GaussianRational] = {}
        if terms:
            for (n, lam, mu), coeff in terms.items():
                if len(lam) != datum.rank or len(mu) != datum.rank:
                    raise LatticeMismatchError("lattice vector length != rank")
                if coeff:
                    clean[(int(n), tuple(lam), tuple(mu))] = coeff
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HeisenbergElement is immutable")

    @classmethod
    def basis(
        cls,
        datum: RootDatum,
        q_power: int = 0,
        coweight: Sequence[int] | None = None,
        weight: Sequence[int] | None = None,
        coeff: GaussianRational | int = 1,
    ) -> "HeisenbergElement":
        lam = tuple(coweight) if coweight is not None else (0,) * datum.rank
        mu = tuple(weight) if weight is not None else (0,) * datum.rank
        c = coeff if isinstance(coeff, GaussianRational) else gauss(coeff)
        return cls(datum, {(q_power, lam, mu): c})

    @classmethod
    def one(cls, datum: RootDatum) -> "HeisenbergElement":
        return cls.basis(datum)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            s = terms.get(key, ZERO) + coeff
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return HeisenbergElement(self.datum, terms)

    def __neg__(self) -> "HeisenbergElement":
        return HeisenbergElement(self.datum, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "HeisenbergElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else gauss(other)
            return HeisenbergElement(self.datum, {k: v * c for k, v in self.terms.items()})
        self._check(other)
        pairing = self.datum.pairing
        terms: dict[Key, GaussianRational] = {}
        for (n1, lam1, mu1), c1 in self.terms.items():
            for (n2, lam2, mu2), c2 in other.terms.items():
                key = (
                    n1 + n2 + pairing(mu1, lam2),
                    tuple(a + b for a, b in zip(lam1, lam2)),
                    tuple(a + b for a, b in zip(mu1, mu2)),
                )
                prev = terms.get(key)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return HeisenbergElement(self.datum, terms)

    __rmul__ = __mul__

    def commutator(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return self * other - other * self

    def _check(self, other):
        if not isinstance(other, HeisenbergElement) or other.datum != self.datum:
            raise LatticeMismatchError("elements over different root data")

    # -- structure ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        return self.datum == other.datum and self.terms == other.terms

    def __hash__(self):
        return hash((self.datum, tuple(sorted((k, c.re, c.im) for k, c in self.terms.items()))))

    def specialize_q1(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], GaussianRational]:
        """Collapse q to 1, grouping by the torus monomial."""
        out: dict = {}
        for (n, lam, mu), coeff in self.terms.items():
            key = (lam, mu)
            s = out.get(key, ZERO) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (n, lam, mu), coeff in sorted(self.terms.items()):
            body = f"(q^{n}, e^{list(lam)}, e^{list(mu)})"
            parts.append(f"{coeff}*{body}" if coeff != ONE else body)
        return " + ".join(parts)

    __repr__ = __str__


def commutes_at_q1(u: HeisenbergElement, v: HeisenbergElement) -> bool:
    """Every commutator coefficient is divisible by q - 1 (vanishes at q = 1)."""
    return all(not c for c in (u.commutator(v)).specialize_q1().values())


def poisson_from_q(u: HeisenbergElement, v: HeisenbergElement) -> LaurentPoly:
    """(u v - v u)/(q - 1) at q = 1, as a Laurent polynomial on the double torus.

    For a Laurent polynomial p(q) with p(1) = 0 the evaluation of p/(q-1) at
    q = 1 is p'(1) = sum of n * coefficient(q^n); the commutator rule makes
    the divisibility automatic and the check below keeps it honest.
    """
    comm = u.commutator(v)
    grouped: dict[tuple[tuple[int, ...], tuple[int, ...]], list[tuple[int, GaussianRational]]] = {}
    for (n, lam, mu), coeff in comm.terms.items():
        grouped.setdefault((lam, mu), []).append((n, coeff))
    terms = {}
    for (lam, mu), entries in grouped.items():
        at_one = ZERO
        for _, c in entries:
            at_one = at_one + c
        if at_one:
            raise AssertionError("commutator not divisible by q - 1")
        slope = ZERO
        for n, c in entries:
            slope = slope + c * n
        if slope:
            terms[lam + mu] = slope
    return LaurentPoly(("t", "z"), terms)


def torus_monomial(datum: RootDatum, coweight, weight) -> LaurentPoly:
    """e^lam e^mu as a monomial on the dual-torus-times-torus chart."""
    return LaurentPoly(("t", "z"), {tuple(coweight) + tuple(weight): ONE})
