"""Rank-1 slice calculations: commutants, hypersurface models, implicitization.

The two Kostant slices are explicit 2x2 matrix families; commutant solving is
exact linear algebra over the fraction field of the parameter ring, verified
by substitution. The four models carry their diagonalization parametrizations and
involutions, and their identifications with the blow-up algebras are checked
by kernel computation plus two-sided bounded subalgebra containment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .actions import GroupAction, Substitution, _symmetrized_candidates, invariant_generators
from .blowup import BlowupAlgebra, membership
from .fractions import RingFraction, RingMap
from .groebner import Ideal
from .poly import LaurentPoly, parse_poly
from .rings import PresentedRing, kernel_of_map
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

    @classmethod
    def parse(cls, rows: Sequence[Sequence[str]]) -> "ParametricMatrix":
        return cls([[parse_poly(e) for e in row] for row in rows])

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


# -- commutant solving ------------------------------------------------------------


def commutant_basis(M: ParametricMatrix, constraint: str = "none") -> list[ParametricMatrix]:
    """A parameter-ring basis of the solutions of [X, M] = 0.

    Solves the linear system in the unknown entries over the fraction field,
    clears denominators and content, and verifies every basis matrix by exact
    substitution. A rank drop beyond the generic pattern raises instead of
    guessing.
    """
    if constraint not in ("none", "traceless"):
        raise CentralizerError(f"unknown constraint {constraint!r}")
    unknowns = ["x11", "x12", "x21"] if constraint == "traceless" else ["x11", "x12", "x21", "x22"]

    def as_matrix(values: Sequence[LaurentPoly]) -> ParametricMatrix:
        if constraint == "traceless":
            x11, x12, x21 = values
            return ParametricMatrix([[x11, x12], [x21, -x11]])
        x11, x12, x21, x22 = values
        return ParametricMatrix([[x11, x12], [x21, x22]])

    gen = as_matrix([LaurentPoly.var(u) for u in unknowns])
    comm = gen.commutator(M)
    rows = []
    for r in range(2):
        for c in range(2):
            entry = comm.entries[r][c]
            rows.append([_coefficient_of(entry, u) for u in unknowns])
    null = _nullspace(rows, len(unknowns))
    basis = []
    for vec in null:
        cleared = _clear_vector(vec)
        mat = as_matrix(cleared)
        if not mat.commutator(M).is_zero():
            raise CentralizerError("candidate solution failed exact verification")
        basis.append(mat)
    expected = 2 if constraint == "none" else 1
    if len(basis) != expected:
        raise CentralizerError(
            f"solution module rank {len(basis)} differs from the generic pattern {expected}"
        )
    return basis


def _coefficient_of(poly: LaurentPoly, unknown: str) -> LaurentPoly:
    """Coefficient of a linear unknown; verifies linearity in the unknowns."""
    if unknown not in poly.vars:
        return LaurentPoly.zero()
    i = poly.vars.index(unknown)
    unknown_idx = [k for k, v in enumerate(poly.vars) if v.startswith("x") and v[1:].isdigit()]
    terms = {}
    for exps, coeff in poly.terms.items():
        if exps[i] == 0:
            continue
        if exps[i] != 1 or any(exps[k] for k in unknown_idx if k != i):
            raise CentralizerError("commutator is not linear in the unknowns")
        key = tuple(0 if k == i else e for k, e in enumerate(exps))
        terms[key] = coeff
    return LaurentPoly(poly.vars, terms)


def _nullspace(rows: list[list[LaurentPoly]], width: int) -> list[list[RingFraction]]:
    """Exact nullspace basis over the fraction field of the parameter ring."""
    reduced = _rref([[RingFraction.of(e) for e in row] for row in rows])
    # a reduced row's first nonzero entry is its pivot
    pivots = [(r, next(c for c, e in enumerate(r) if not e.is_zero())) for r in reduced]
    pivot_cols = {c for _, c in pivots}
    basis = []
    one = RingFraction.of(LaurentPoly.const(1))
    zero = RingFraction.of(LaurentPoly.zero())
    for free in range(width):
        if free in pivot_cols:
            continue
        vec = [zero] * width
        vec[free] = one
        for prow, pcol in pivots:
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def _clear_vector(vec: Sequence[RingFraction]) -> list[LaurentPoly]:
    """Clear denominators and overall content from a fraction vector."""
    from .groebner import laurent_exact_divide

    den = LaurentPoly.const(1)
    seen = set()
    for f in vec:
        key = f.den._canonical_items()
        if key not in seen:
            seen.add(key)
            den = den * f.den
    polys = []
    for f in vec:
        q = laurent_exact_divide(f.num * den, f.den)
        if q is None:
            raise CentralizerError("denominator clearing failed")
        polys.append(q)
    # the distinct-denominator product may overshoot; strip common factors
    for _ in range(8):
        stripped = False
        for f in vec:
            if f.den.is_monomial():
                continue
            quots = [laurent_exact_divide(p, f.den) if p.terms else p for p in polys]
            if all(q is not None for q in quots):
                polys = quots
                stripped = True
        if not stripped:
            break
    tau = LaurentPoly.var("_tau")
    packed = LaurentPoly.zero()
    for k, p in enumerate(polys):
        packed = packed + p * tau**k
    _, prim = packed.scaled_primitive()
    out = []
    for k in range(len(polys)):
        terms = {}
        ti = prim.vars.index("_tau")
        for exps, coeff in prim.terms.items():
            if exps[ti] == k:
                terms[tuple(0 if idx == ti else e for idx, e in enumerate(exps))] = coeff
        out.append(LaurentPoly(prim.vars, terms).with_vars([v for v in prim.vars if v != "_tau"])
                   if terms else LaurentPoly.zero())
    return out


def same_span(
    basis_a: Sequence[ParametricMatrix], basis_b: Sequence[ParametricMatrix]
) -> bool:
    """Equality of solution modules over the fraction field (RREF comparison)."""
    ra = _rref([_vectorize(m) for m in basis_a])
    rb = _rref([_vectorize(m) for m in basis_b])
    if len(ra) != len(rb):
        return False
    return all(
        all(x == y for x, y in zip(rowa, rowb)) for rowa, rowb in zip(ra, rb)
    )


def _vectorize(m: ParametricMatrix) -> list[RingFraction]:
    return [RingFraction.of(m.entries[r][c]) for r in range(2) for c in range(2)]


def _rref(rows: list[list[RingFraction]]) -> list[list[RingFraction]]:
    m = [list(r) for r in rows]
    lead = 0
    out: list[list[RingFraction]] = []
    width = len(m[0]) if m else 0
    for col in range(width):
        pivot = next((r for r in range(lead, len(m)) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        inv = m[lead][col].inverse()
        m[lead] = [e * inv for e in m[lead]]
        for r in range(len(m)):
            if r != lead and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[lead])]
        lead += 1
        if lead == len(m):
            break
    return m[:lead]


def closed_form_commutant_family(slice_flavor: str, constraint: str) -> list[ParametricMatrix]:
    """The closed-form solution families, the comparison oracles for the solver."""
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


def general_commutant_element(slice_flavor: str) -> ParametricMatrix:
    """The general commutant element whose det = 1 carves out the model relation."""
    if slice_flavor == "group":
        a, b, c = LaurentPoly.gens("a b c")
        i = LaurentPoly.const(I)
        return ParametricMatrix(
            [[i * ((1 - a) * c + b), i * (2 - a) * c], [-i * c, i * (b - c)]]
        )
    if slice_flavor == "lie":
        d, xi, eta = LaurentPoly.gens("delta xi eta")
        return ParametricMatrix([[xi, d * eta], [eta, xi]])
    raise CentralizerError(slice_flavor)


# -- the four slice models -----------------------------------------------------------


@dataclass
class SliceModel:
    name: str
    coords: tuple[str, ...]
    relation: LaurentPoly | None
    relation_str: str | None
    parametrization: RingMap
    involutions: dict[str, Substitution]
    deck: Substitution
    blowup_flavor: str
    source_laurent: tuple[str, ...]
    source_poly: tuple[str, ...]

    def action(self, which: Iterable[str]) -> GroupAction:
        """The group generated by the named involutions."""
        try:
            return GroupAction([self.involutions[name] for name in which])
        except KeyError as exc:
            raise CentralizerError(f"model {self.name} has no involution {exc.args[0]!r}") from None

    def coordinate_ring(self) -> PresentedRing:
        rels = [self.relation] if self.relation is not None else []
        return PresentedRing((), self.coords, rels)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "coords": list(self.coords),
            "relation": self.relation_str,
            "parametrization": {c: str(f) for c, f in self.parametrization.images.items()},
            "involutions": {
                name: {v: str(LaurentPoly.monomial(c, m)) for v, (c, m) in sub.images.items()}
                for name, sub in self.involutions.items()
            },
            "blowup_flavor": self.blowup_flavor,
        }

    def __repr__(self):
        rel = self.relation_str or "0"
        return f"<SliceModel {self.name}: coords {self.coords}, relation {rel}>"


MODEL_NAMES = ("S", "S-prime", "A2-Gg", "A2-gg")


def model(name: str) -> SliceModel:
    """The hypersurface/affine-plane models with their defining data."""
    build = _MODELS.get(name)
    if build is None:
        raise CentralizerError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return build()


def _model_S() -> SliceModel:
    y, z = LaurentPoly.gens("y z")
    i = LaurentPoly.const(I)
    dz = z - z**-1
    a_img = RingFraction(z + z**-1)
    b_img = RingFraction(-i * ((y + y**-1) * dz + (y - y**-1) * (z + z**-1)), dz * 2)
    c_img = RingFraction(-i * (y - y**-1), dz)
    return SliceModel(
        name="S",
        coords=("a", "b", "c"),
        relation=parse_poly("a*b*c - b^2 - c^2 - 1"),
        relation_str="a*b*c - b^2 - c^2 - 1",
        parametrization=RingMap({"a": a_img, "b": b_img, "c": c_img}),
        involutions={
            "iota": Substitution.parse({"b": "-b", "c": "-c"}),
            "jmath": Substitution.parse({"a": "-a", "c": "-c"}),
        },
        deck=Substitution.parse({"y": "y^-1", "z": "z^-1"}),
        blowup_flavor="GG",
        source_laurent=("y", "z"),
        source_poly=(),
    )


def _model_S_prime() -> SliceModel:
    y, x = LaurentPoly.var("y"), LaurentPoly.var("x")
    return SliceModel(
        name="S-prime",
        coords=("delta", "xi", "eta"),
        relation=parse_poly("xi^2 - delta*eta^2 - 1"),
        relation_str="xi^2 - delta*eta^2 - 1",
        parametrization=RingMap(
            {
                "delta": RingFraction(x * x),
                "xi": RingFraction(y + y**-1, LaurentPoly.const(2)),
                "eta": RingFraction(y - y**-1, x * 2),
            }
        ),
        involutions={"iota": Substitution.parse({"xi": "-xi", "eta": "-eta"})},
        deck=Substitution.parse({"y": "y^-1", "x": "-x"}),
        blowup_flavor="gG",
        source_laurent=("y",),
        source_poly=("x",),
    )


def _model_A2_Gg() -> SliceModel:
    z, x = LaurentPoly.var("z"), LaurentPoly.var("x")
    return SliceModel(
        name="A2-Gg",
        coords=("a", "zeta"),
        relation=None,
        relation_str=None,
        parametrization=RingMap(
            {"a": RingFraction(z + z**-1), "zeta": RingFraction(x, z - z**-1)}
        ),
        involutions={"jmath": Substitution.parse({"a": "-a", "zeta": "-zeta"})},
        deck=Substitution.parse({"x": "-x", "z": "z^-1"}),
        blowup_flavor="Gg",
        source_laurent=("z",),
        source_poly=("x",),
    )


def _model_A2_gg() -> SliceModel:
    u, x = LaurentPoly.var("u"), LaurentPoly.var("x")
    return SliceModel(
        name="A2-gg",
        coords=("delta", "theta"),
        relation=None,
        relation_str=None,
        parametrization=RingMap({"delta": RingFraction(x * x), "theta": RingFraction(u, x)}),
        involutions={},
        deck=Substitution.parse({"u": "-u", "x": "-x"}),
        blowup_flavor="gg",
        source_laurent=(),
        source_poly=("u", "x"),
    )


_MODELS = {
    "S": _model_S,
    "S-prime": _model_S_prime,
    "S'": _model_S_prime,
    "A2-Gg": _model_A2_Gg,
    "A2-gg": _model_A2_gg,
}


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
    return kernel_of_map(m.parametrization, m.coords, m.source_laurent, m.source_poly)


def kernel_matches_relation(m: SliceModel, kernel: Ideal) -> bool:
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

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "flavor": self.flavor,
            "images_invariant": self.images_invariant,
            "image_members": dict(self.image_members),
            "certificates": dict(self.certificates),
            "failed_invariants": list(self.failed_invariants),
            "passed": self.passed,
        }


MATCH_BOX_HEIGHT = 4  # the exponent-height box of blowup_match, named in its verify records


def blowup_match(m: SliceModel, B: BlowupAlgebra, degree_bound: int = MATCH_BOX_HEIGHT) -> MatchReport:
    """Two-sided desk-scale identification of a model with its blow-up.

    (1) every model coordinate maps to a W-invariant member of the blow-up;
    (2) every W-invariant of the blow-up up to the degree bound rewrites as a
    polynomial in the model coordinates (bounded subalgebra containment).
    """
    if m.blowup_flavor != B.flavor:
        raise CentralizerError(f"model {m.name} matches flavor {m.blowup_flavor}, got {B.flavor}")
    images_invariant = True
    members: dict[str, bool] = {}
    certs: dict[str, str] = {}
    certificates: list[LaurentPoly] = []
    for coord in m.coords:
        frac = m.parametrization.images[coord]
        if m.deck.compose(m.deck).is_identity():
            acted = RingFraction(m.deck(frac.num), m.deck(frac.den))
            if acted != frac:
                images_invariant = False
        res = membership(frac, B)
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


def isogeny_invariants(m: SliceModel, which: Iterable[str] = ("iota",)) -> list[LaurentPoly]:
    """Generators of the invariant subring of the model under its involutions,
    complete by Noether's bound (the involutions are signed coordinate flips)."""
    return invariant_generators(m.action(which), poly_vars=m.coords)
