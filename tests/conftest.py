"""Shared exact-arithmetic test helpers, and each negative control's failed records.

The Schwartz-Zippel screen: any identity accepted symbolically must also
hold at random Gaussian-rational points avoiding the denominators; a
symbolic/numeric disagreement is a hard failure, never a skip.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowring.fractions import RingFraction
from blowring.poly import LaurentPoly
from blowring.rootdata import RootDatum
from blowring.scalars import GaussianRational, gauss


# control -> the records its own suite fails under it, and no others (acceptance criterion 12)
FAILED_UNDER = {
    "blowup:GG": [
        "GG: defining relation reduces to zero",
        "GG: wall-ratio generator is a member",
        "GG: bracket closure {y + y^-1, (y - y^-1) / (z - z^-1)}",
        "GG: (y^2-1)/(z^2-1) member with certificate T",
        "GG: (y-y^-1)/(z-z^-1) member, certificate verifies",
    ],
    "blowup:GGv": [
        "GGv: defining relation reduces to zero",
        "GGv: wall-ratio generator is a member",
        "GGv: bracket closure {z + z^-1, (t - 2 + t^-1) / (z^2 - 2 + z^-2)}",
        "GGv: bracket closure {t + t^-1, (t - t^-1) / (z - z^-1)}",
        "GGv: bracket closure {t + t^-1, (t - 2 + t^-1) / (z^2 - 2 + z^-2)}",
        "GGv: bracket closure {(t - t^-1) / (z - z^-1), (t - 2 + t^-1) / (z^2 - 2 + z^-2)}",
    ],
    "blowup:gG": [
        "gG: defining relation reduces to zero",
        "gG: wall-ratio generator is a member",
        "gG: bracket closure {1/2*y + 1/2*y^-1, 1/2*y*x^-1 - 1/2*y^-1*x^-1}",
    ],
    "blowup:Gg": ["Gg: defining relation reduces to zero", "Gg: wall-ratio generator is a member"],
    "blowup:gg": ["gg: defining relation reduces to zero", "gg: wall-ratio generator is a member"],
    **{
        f"centralizer:{name}": [
            f"{name}: parametrization satisfies the relation, involutions preserve it",
            f"{name}: implicitization kernel equals the model relation",
        ]
        for name in ("S", "S-prime")
    },
    "centralizer:slice": [
        *(
            f"commutant {flavor}/{constraint}: solves [X,M]=0 and spans the closed-form family"
            for flavor in ("group", "lie")
            for constraint in ("none", "traceless")
        ),
        "det of general group commutant rewrites the cubic relation",
        "det of general Lie commutant is xi^2 - delta*eta^2",
    ],
    "homology": ["homology relation matches the hypersurface-model kernel"],
    "kring": [
        "v(1)_1 * v(-1)_1 = v(0)_2 + 1",
        "cubic product relation holds",
        "cubic product relation regenerates the model relation",
    ],
}


def random_gaussian(rng: random.Random, span: int = 7) -> GaussianRational:
    return gauss(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def evaluate(f: LaurentPoly, point: dict[str, GaussianRational]) -> GaussianRational:
    """The exact value of f at a point with nonzero coordinates; f may name variables the
    point leaves out if their exponents are all zero."""
    total = gauss(0)
    for exps, coeff in f.terms.items():
        for v, e in zip(f.vars, exps):
            if e:
                coeff = coeff * point[v] ** e
        total = total + coeff
    return total


def record_realignments(monkeypatch) -> list:
    """Record every LaurentPoly.with_vars call that changes a variable list."""
    calls = []
    original = LaurentPoly.with_vars

    def counting(self, vars):
        if tuple(vars) != self.vars:
            calls.append((self.vars, tuple(vars)))
        return original(self, vars)

    monkeypatch.setattr(LaurentPoly, "with_vars", counting)
    return calls


def pgl2() -> RootDatum:
    """Rank 1 adjoint: X = Z*alpha, Y = Z*omegach, alphach = 2*omegach."""
    return RootDatum((1,), (2,))


def random_point(vars, rng: random.Random, avoid=()) -> dict[str, GaussianRational]:
    """A random evaluation point at which no avoided polynomial vanishes."""
    for _ in range(200):
        point = {v: random_gaussian(rng) for v in vars}
        if all(point[v] for v in vars) and all(evaluate(p, point) for p in avoid):
            return point
    raise AssertionError("could not find an admissible random point")


def sz_agree(f, g, vars, seed=0, rounds=20) -> bool:
    """Exact agreement of two fractions at `rounds` random points."""
    rng = random.Random(seed)
    f = RingFraction.of(f)
    g = RingFraction.of(g)
    avoid = [p for p in (f.den, g.den) if not p.is_monomial()]
    for _ in range(rounds):
        point = random_point(vars, rng, avoid=avoid)
        if evaluate(f.num, point) * evaluate(g.den, point) != evaluate(g.num, point) * evaluate(f.den, point):
            return False
    return True


def random_laurent(rng: random.Random, vars, n_terms=4, span=3) -> LaurentPoly:
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(-span, span) for _ in vars)
        terms[exps] = random_gaussian(rng, span=5)
    return LaurentPoly(tuple(vars), terms)


@pytest.fixture(scope="session")
def sl2_datum():
    from blowring.rootdata import sl2

    return sl2()


@pytest.fixture(scope="session")
def blowups(sl2_datum):
    """All five rank-1 blow-ups, built once per session."""
    from blowring.blowup import FLAVORS, build_blowup

    return {flavor: build_blowup(sl2_datum, flavor) for flavor in FLAVORS}
