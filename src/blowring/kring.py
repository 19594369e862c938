"""The rank-1 convolution K-ring in its three presentations.

Abstract: polynomials in a, b, c modulo the cubic hypersurface relation.
Localized: Weyl-invariant wall fractions in the torus coordinates y, z.
Blow-up: elements of the GG blow-up quotient A[T]/(wall*T - n).

The basis classes v(n)_m are formal symbols; only the entries the
generator equations determine are mapped to polynomials, and everything else
raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .actions import GroupAction, Substitution
from .blowup import BlowupAlgebra, build_blowup, membership, wall_adic_form
from .centralizer import MODELS, model
from .fractions import RingFraction, RingMap
from .poly import LaurentPoly, parse_poly
from .rings import PresentedRing, SubalgebraOracle
from .rootdata import sl2
from .scalars import gauss

PRESENTATIONS = ("abstract", "localized", "blowup")


class KRingError(ValueError):
    pass


class NotDerivableError(KRingError):
    """The requested basis class is outside the dictionary's derived closure."""


@dataclass(frozen=True)
class VClass:
    """The basis symbol v(n)_m: degree-n line bundle class on the m-orbit."""

    n: int
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise KRingError("orbit label m must be nonnegative")
        if self.m == 0 and self.n < 0:
            raise KRingError("on the point orbit v(n) requires n >= 0")

    def __str__(self):
        return f"v({self.n})_{self.m}"


# the generator equations of the basis classes and one-step consequences
_DICTIONARY: dict[tuple[int, int], str] = {
    (1, 0): "a",
    (0, 1): "b",
    (1, 1): "c",
    (-1, 1): "a*b - c",  # from v(1)_0 * v(0)_1 = v(1)_1 + v(-1)_1
    (2, 1): "a*c - b",  # from v(2)_1 = v(1)_1 * v(1)_0 - v(0)_1
    (0, 2): "b^2",  # v(0)_1 * v(0)_1
    (2, 2): "c^2",  # v(1)_1 * v(1)_1
    (1, 2): "b*c",  # v(1)_1 * v(0)_1
    (2, 0): "a^2 - 1",  # v(1)_0 * v(1)_0 - 1
}


def v_dictionary(n: int, m: int) -> LaurentPoly:
    """The abstract-presentation image of v(n)_m, for derivable (n, m) only."""
    key = (n, m)
    if key not in _DICTIONARY:
        raise NotDerivableError(
            f"v({n})_{m} is not derivable from the generator equations"
        )
    return parse_poly(_DICTIONARY[key], vars=("a", "b", "c"))


def abstract_ring(relation: LaurentPoly | None = None) -> PresentedRing:
    rel = relation if relation is not None else parse_poly(MODELS["S"].relation)
    return PresentedRing((), ("a", "b", "c"), [rel])


_SIDES = {"G": ("iota",), "Gv": ("jmath",), "both": ("iota", "jmath")}


def subring_filter(f: LaurentPoly, side: str) -> bool:
    """Membership of an abstract element in the parity subrings.

    side "G": fixed by the center involution negating b and c (even m);
    side "Gv": fixed by the involution negating a and c (even n); "both"
    requires both.
    """
    if side not in _SIDES:
        raise KRingError(f"unknown side {side!r} (want 'G', 'Gv' or 'both')")
    involutions = MODELS["S"].involutions
    return GroupAction(Substitution.parse(involutions[w]) for w in _SIDES[side]).is_invariant(f)


class KRing:
    """The three isomorphic presentations with conversion maps."""

    def __init__(self, blowup: BlowupAlgebra | None = None):
        self.blowup = blowup or build_blowup(sl2(), "GG")
        self.model = model("S", lambda flavor: self.blowup)
        self.ring = abstract_ring(self.model.relation)
        self._to_blowup_certs: dict[str, LaurentPoly] | None = None

    # -- certificates of the abstract generators inside the blow-up ----------

    def generator_certificates(self) -> dict[str, LaurentPoly]:
        if self._to_blowup_certs is None:
            certs = {}
            for coord in self.model.coords:
                res = membership(self.model.parametrization.images[coord], self.blowup)
                if not res.member:
                    raise KRingError(f"generator {coord} failed blow-up membership")
                certs[coord] = res.certificate
            self._to_blowup_certs = certs
        return self._to_blowup_certs

    def _blowup_oracle(self) -> SubalgebraOracle:
        certs = self.generator_certificates()
        return self.blowup.ring.subalgebra_oracle([certs[c] for c in self.model.coords], self.model.coords)

    # -- conversions ------------------------------------------------------------

    def convert(self, value, src: str, dst: str):
        if src not in PRESENTATIONS or dst not in PRESENTATIONS:
            raise KRingError(f"presentations are {PRESENTATIONS}")
        if src == dst:
            return value
        route = {
            ("abstract", "localized"): self.abstract_to_localized,
            ("abstract", "blowup"): self.abstract_to_blowup,
            ("localized", "abstract"): self.localized_to_abstract,
            ("localized", "blowup"): self.localized_to_blowup,
            ("blowup", "abstract"): self.blowup_to_abstract,
            ("blowup", "localized"): self.blowup_to_localized,
        }
        return route[(src, dst)](value)

    def abstract_to_localized(self, f: LaurentPoly) -> RingFraction:
        return self.model.parametrization(f)

    def abstract_to_blowup(self, f: LaurentPoly) -> LaurentPoly:
        certs = self.generator_certificates()
        return wall_adic_form(RingMap(certs)(f).as_poly(), self.blowup)

    def localized_to_blowup(self, frac: RingFraction) -> LaurentPoly:
        if not self.blowup.weyl.is_invariant(frac):
            raise KRingError("localized element is not Weyl-invariant")
        res = membership(frac, self.blowup)
        if not res.member:
            raise KRingError("localized element is not in the blow-up ring")
        return res.certificate

    def blowup_to_abstract(self, g: LaurentPoly) -> LaurentPoly:
        rewritten = self._blowup_oracle().rewrite(g)
        if rewritten is None:
            raise KRingError("blow-up element is not in the convolution subring")
        return self.ring.nf(rewritten)

    def localized_to_abstract(self, frac: RingFraction) -> LaurentPoly:
        return self.blowup_to_abstract(self.localized_to_blowup(frac))

    def blowup_to_localized(self, g: LaurentPoly) -> RingFraction:
        pres = self.abstract_to_localized
        return pres(self.blowup_to_abstract(g))

    # -- the localization identities -----------------------------------------

    def localization_checks(self) -> dict[str, Callable[[], bool]]:
        """The Iwahori localization identities, in the localized presentation.

        One thunk per identity. The skyscraper classes enter only through the
        combination u_0 - u_2 = -i * y^-1; eliminating it turns the second
        formula into y + y^-1 = i(2 v(0)_1 - v(1)_0 v(1)_1), and consistency
        with the first one is exactly the generator equation behind v(2)_1.
        """
        i = gauss(0, 1)
        y, z = LaurentPoly.gens("y z")
        loc = self.abstract_to_localized
        a_l, v01, c_l = (loc(parse_poly(s)) for s in "abc")
        v21 = loc(v_dictionary(2, 1))
        u_diff = RingFraction(y**-1 * -i)
        return {
            # y + y^-1 = i(2 v(0)_1 - v(1)_0 v(1)_1)
            "moka_sum": lambda: (a_l * c_l - v01 * 2) * i == RingFraction(-(y + y**-1)),
            # y - y^-1 = i (z - z^-1) v(1)_1
            "moka_difference": lambda: RingFraction((z - z**-1) * i) * c_l == RingFraction(y - y**-1),
            # y = i(v(0)_1 - v(2)_1 + u_2 - u_0) with u_0 - u_2 = -i y^-1
            "skyscraper_combination": lambda: (v01 - v21) * i - u_diff * i == RingFraction(y),
        }


def dictionary_rederivations() -> dict[str, Callable[[], bool]]:
    """Re-derive the consequence entries from the generator equations, one thunk per entry."""
    a, b, c = (parse_poly(s, vars=("a", "b", "c")) for s in "abc")
    ring = abstract_ring()
    return {
        "v(-1)_1 from the evident relation": lambda: ring.equal(a * b, v_dictionary(1, 1) + v_dictionary(-1, 1)),
        "v(0)_2 = v(0)_1 * v(0)_1": lambda: ring.equal(b * b, v_dictionary(0, 2)),
        "v(2)_0 = v(1)_0 * v(1)_0 - 1": lambda: ring.equal(a * a - 1, v_dictionary(2, 0)),
        "v(2)_1 = v(1)_1 * v(1)_0 - v(0)_1": lambda: ring.equal(c * a - b, v_dictionary(2, 1)),
    }
