"""Rank-1 slice calculations: commutants, hypersurface models, implicitization.

The two Kostant slices are explicit 2x2 matrix families with M21 = 1, so their
commutants are the free modules on I and M (the rank-1 regular-centralizer
lemma), verified by substitution. The four models are one table: coordinates,
relation, involutions, and each coordinate as a polynomial in its blow-up's
invariant generators. ``declared`` returns a model's row, parsed on first use;
the homology ring, the abstract K-ring and the invariant computations read only
that. ``model`` parametrizes a row through the caller's blow-up, and its
identification is checked against the blow-up's Weyl group by kernel
computation plus two-sided bounded subalgebra containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

from .actions import GroupAction, Substitution, _symmetrized_candidates, invariant_generators
from .blowup import BlowupAlgebra, build_blowup, membership
from .fractions import RingMap
from .groebner import Ideal
from .poly import LaurentPoly, parse_poly
from .rings import PresentedRing, kernel_of_map
from .rootdata import sl2
from .scalars import gauss

I = gauss(0, 1)


class CentralizerError(ValueError):
    pass


# -- parametric 2x2 matrices -----------------------------------------------------


class ParametricMatrix:
    """A 2x2 matrix with exact polynomial entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[LaurentPoly | int]]):
        rows = []
        for row in entries:
            if len(row) != 2:
                raise CentralizerError("2x2 matrices only")
            rows.append(tuple(e if isinstance(e, LaurentPoly) else LaurentPoly.const(e) for e in row))
        if len(rows) != 2:
            raise CentralizerError("2x2 matrices only")
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("ParametricMatrix is immutable")

    def __getitem__(self, idx):
        return self.entries[idx[0]][idx[1]]

    def __mul__(self, other):
        if isinstance(other, ParametricMatrix):
            a, b = self.entries, other.entries
            return ParametricMatrix(
                [
                    [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                    [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
                ]
            )
        return ParametricMatrix([[e * other for e in row] for row in self.entries])

    __rmul__ = __mul__

    def __add__(self, other):
        return ParametricMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return self + other * (-1)

    def commutator(self, other: "ParametricMatrix") -> "ParametricMatrix":
        return self * other - other * self

    def det(self) -> LaurentPoly:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def __eq__(self, other):
        return isinstance(other, ParametricMatrix) and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"[{rows}]"


IDENTITY2 = ParametricMatrix([[1, 0], [0, 1]])


def kostant_slice(flavor: str) -> ParametricMatrix:
    """The rank-1 slice: group flavor has parameter a, Lie flavor delta."""
    if flavor == "group":
        a = LaurentPoly.var("a")
        return ParametricMatrix([[a - 1, a - 2], [1, 1]])
    if flavor == "lie":
        d = LaurentPoly.var("delta")
        return ParametricMatrix([[LaurentPoly.zero(), d], [LaurentPoly.const(1), LaurentPoly.zero()]])
    raise CentralizerError(f"unknown slice flavor {flavor!r} (want 'group' or 'lie')")


# -- commutants ------------------------------------------------------------------


def commutant_basis(M: ParametricMatrix, constraint: str = "none") -> list[ParametricMatrix]:
    """A parameter-ring basis of the matrices X with [X, M] = 0.

    When M21 = 1, [X, M] = 0 forces x12 = M12*x21 and x22 = x11 + (M22 - M11)*x21,
    so X = x11*I + x21*(M - M11*I): the commutant is free on I and M (Kostant's
    regular-centralizer lemma in rank 1), and its traceless part is free on
    2M - tr(M)*I. Each basis matrix is verified by exact substitution.
    """
    if constraint not in ("none", "traceless"):
        raise CentralizerError(f"unknown constraint {constraint!r}")
    if M[1, 0] != 1:
        raise CentralizerError(f"the regular-centralizer lemma needs M21 = 1, got {M[1, 0]}")
    if constraint == "none":
        basis = [IDENTITY2, M]
    else:
        basis = [M * 2 - IDENTITY2 * (M[0, 0] + M[1, 1])]
    if not all(X.commutator(M).is_zero() for X in basis):
        raise CentralizerError("a basis matrix failed exact verification")
    return basis


def is_commutant_basis(
    family: Sequence[ParametricMatrix], M: ParametricMatrix, constraint: str = "none"
) -> bool:
    """Whether ``family`` is a parameter-ring basis of the commutant of M (M21 = 1).

    Each member must equal c*I + b*M with b = X21 and c = X11 - b*M11, and be
    traceless under the traceless constraint. The change of basis from
    ``commutant_basis`` must have a nonzero constant determinant: (c, b) rows
    against [I, M], or b/2 against [2M - tr(M)*I]. If M21 != 1, a member can
    equal c*I + b*M only with b = 0, so the answer is False.
    """
    coords = []
    for X in family:
        b = X[1, 0]
        c = X[0, 0] - b * M[0, 0]
        if X != IDENTITY2 * c + M * b:
            return False
        if constraint == "traceless" and not (X[0, 0] + X[1, 1]).is_zero():
            return False
        coords.append((c, b))
    if constraint == "traceless" and len(coords) == 1:
        det = coords[0][1]
    elif constraint == "none" and len(coords) == 2:
        (c1, b1), (c2, b2) = coords
        det = c1 * b2 - c2 * b1
    else:
        return False
    return not det.is_zero() and not det.support_vars()


def closed_form_commutant_family(slice_flavor: str, constraint: str) -> list[ParametricMatrix]:
    """The closed-form solution families, the comparison oracles for the lemma."""
    a = LaurentPoly.var("a")
    d = LaurentPoly.var("delta")
    i = LaurentPoly.const(I)
    one = LaurentPoly.const(1)
    zero = LaurentPoly.zero()
    if slice_flavor == "group" and constraint == "none":
        # sqrt(-1) * ((1-a)c + b, (2-a)c; -c, b - c) for parameters b, c
        coeff_b = ParametricMatrix([[i, zero], [zero, i]])
        coeff_c = ParametricMatrix([[i * (1 - a), i * (2 - a)], [-i, -i]])
        return [coeff_b, coeff_c]
    if slice_flavor == "group" and constraint == "traceless":
        return [ParametricMatrix([[2 - a, 4 - a * 2], [LaurentPoly.const(-2), a - 2]])]
    if slice_flavor == "lie" and constraint == "none":
        return [IDENTITY2, ParametricMatrix([[zero, d], [one, zero]])]
    if slice_flavor == "lie" and constraint == "traceless":
        return [ParametricMatrix([[zero, d], [one, zero]])]
    raise CentralizerError((slice_flavor, constraint))


def general_commutant_element(slice_flavor: str, M: ParametricMatrix) -> ParametricMatrix:
    """The general commutant element of the slice M, in the lemma's form c*I + b*M,
    whose det = 1 carves out the model relation."""
    if slice_flavor == "group":
        b, c = LaurentPoly.gens("b c")
        return (IDENTITY2 * b - M * c) * LaurentPoly.const(I)
    if slice_flavor == "lie":
        xi, eta = LaurentPoly.gens("xi eta")
        return IDENTITY2 * xi + M * eta
    raise CentralizerError(slice_flavor)


# -- the four slice models -----------------------------------------------------------


@dataclass
class ModelRow:
    """A declared model, parsed from its ``MODELS`` entry: its blow-up's flavor, coordinates, relation,
    involutions, and each coordinate as a polynomial in that flavor's invariant generators g1, g2, ...
    (``BlowupAlgebra.invariant_gens``). Readers of the coordinate side need no blow-up."""

    name: str
    flavor: str
    coords: tuple[str, ...]
    relation: LaurentPoly | None
    relation_str: str | None
    involutions: dict[str, Substitution]
    images: tuple[LaurentPoly, ...]

    def action(self, which: Iterable[str]) -> GroupAction:
        """The group generated by the named involutions."""
        try:
            return GroupAction([self.involutions[name] for name in which])
        except KeyError as exc:
            raise CentralizerError(f"model {self.name} has no involution {exc.args[0]!r}") from None

    def coordinate_ring(self) -> PresentedRing:
        rels = [self.relation] if self.relation is not None else []
        return PresentedRing((), self.coords, rels)

    def __repr__(self):
        rel = self.relation_str or "0"
        return f"<{type(self).__name__} {self.name}: coords {self.coords}, relation {rel}>"


# name -> (flavor, coordinates, relation, involution tables, each coordinate in the generators g1, g2, ...)
MODELS = {
    # GG's generators: g1 = y + y^-1, g2 = z + z^-1, g3 = (y - y^-1)/(z - z^-1)
    "S": (
        "GG",
        ("a", "b", "c"),
        "a*b*c - b^2 - c^2 - 1",
        {"iota": {"b": "-b", "c": "-c"}, "jmath": {"a": "-a", "c": "-c"}},
        ("g2", "-1/2*i*g1 - 1/2*i*g2*g3", "-i*g3"),
    ),
    "S-prime": (
        "gG",
        ("delta", "xi", "eta"),
        "xi^2 - delta*eta^2 - 1",
        {"iota": {"xi": "-xi", "eta": "-eta"}},
        ("g1", "g2", "g3"),
    ),
    "A2-Gg": ("Gg", ("a", "zeta"), None, {"jmath": {"a": "-a", "zeta": "-zeta"}}, ("g1", "g2")),
    "A2-gg": ("gg", ("delta", "theta"), None, {}, ("g1", "g2")),
}
MODEL_NAMES = tuple(MODELS)


def declared(name: str) -> ModelRow:
    """The declared row of model ``name`` (``S'`` names S-prime), parsed on first use, with no blow-up."""
    name = "S-prime" if name == "S'" else name
    if name not in MODELS:
        raise CentralizerError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return _parsed(name)


@cache
def _parsed(name: str) -> ModelRow:
    flavor, coords, relation, involutions, images = MODELS[name]
    rel = parse_poly(relation) if relation else None
    subs = {k: Substitution.parse(table) for k, table in involutions.items()}
    return ModelRow(name, flavor, coords, rel, relation, subs, tuple(map(parse_poly, images)))


@dataclass(repr=False)
class SliceModel(ModelRow):
    """A declared row parametrized through a blow-up's invariant generators."""

    parametrization: RingMap
    blowup: BlowupAlgebra

    @property
    def blowup_flavor(self) -> str:
        return self.blowup.flavor


def model(name: str, blowup: Callable[[str], BlowupAlgebra] | None = None) -> SliceModel:
    """The declared model, parametrized through the invariant generators of the blow-up
    ``blowup(flavor)`` returns: the caller's builder, or a fresh build if none is given."""
    row = declared(name)
    B = blowup(row.flavor) if blowup else build_blowup(sl2(), row.flavor)
    gens = RingMap({f"g{k}": g for k, g in enumerate(B.invariant_gens, 1)})
    parametrization = RingMap({c: gens(img) for c, img in zip(row.coords, row.images)})
    return SliceModel(**vars(row), parametrization=parametrization, blowup=B)


# -- verification ---------------------------------------------------------------------


def verify_parametrization(m: SliceModel) -> bool:
    """Relation vanishes after substitution; involutions preserve the relation ideal."""
    if m.relation is not None:
        value = m.parametrization(m.relation)
        if not value.is_zero():
            return False
        ring = m.coordinate_ring()
        for sub in m.involutions.values():
            if not ring.nf(sub(m.relation)).is_zero():
                return False
    return True


def model_kernel(m: SliceModel) -> Ideal:
    """The relations of the parametrization, over the blow-up ring's variables without T."""
    ring = m.blowup.ring
    poly = [v for v in ring.poly_vars if v not in m.blowup.gen_names]
    return kernel_of_map(m.parametrization, m.coords, ring.laurent_vars, poly)


def kernel_matches_relation(m: ModelRow, kernel: Ideal) -> bool:
    """Reduced-basis comparison of a computed kernel with the model relation."""
    gb = kernel.groebner()
    if m.relation is None:
        return not gb
    expected = Ideal(kernel.ring, [m.relation.with_vars(kernel.ring.vars)])
    return [str(g) for g in gb] == [str(g) for g in expected.groebner()]


@dataclass
class MatchReport:
    model: str
    flavor: str
    images_invariant: bool
    image_members: dict[str, bool]
    certificates: dict[str, str]
    failed_invariants: list[str]

    @property
    def passed(self) -> bool:
        return (
            self.images_invariant
            and all(self.image_members.values())
            and not self.failed_invariants
        )

MATCH_BOX_HEIGHT = 4  # the exponent-height box of blowup_match, named in its verify records


def blowup_match(m: SliceModel, B: BlowupAlgebra, degree_bound: int = MATCH_BOX_HEIGHT) -> MatchReport:
    """Two-sided desk-scale identification of a model with its blow-up.

    (1) every model coordinate maps to a W-invariant member of the blow-up;
    (2) every W-invariant of the blow-up up to the degree bound rewrites as a
    polynomial in the model coordinates (bounded subalgebra containment).
    """
    if m.blowup_flavor != B.flavor:
        raise CentralizerError(f"model {m.name} matches flavor {m.blowup_flavor}, got {B.flavor}")
    images = m.parametrization.images
    images_invariant = all(B.weyl.is_invariant(images[coord]) for coord in m.coords)
    members: dict[str, bool] = {}
    certs: dict[str, str] = {}
    certificates: list[LaurentPoly] = []
    for coord in m.coords:
        res = membership(images[coord], B)
        members[coord] = res.member
        if res.member:
            certs[coord] = str(res.certificate)
            certificates.append(res.certificate)
    failed: list[str] = []
    if images_invariant and all(members.values()):
        oracle = B.ring.subalgebra_oracle(certificates, m.coords)
        for _, inv in _symmetrized_candidates(B.weyl, degree_bound, B.ring):
            if not oracle.contains(inv):
                failed.append(str(inv))
    return MatchReport(m.name, B.flavor, images_invariant, members, certs, failed)


def isogeny_invariants(m: ModelRow, which: Iterable[str] = ("iota",)) -> list[LaurentPoly]:
    """Generators of the invariant subring of the model under its involutions,
    complete by Noether's bound (the involutions are signed coordinate flips)."""
    return invariant_generators(m.action(which), poly_vars=m.coords)
