"""Affine blow-up algebras of a pair of Cartan factors at the diagonal walls.

A blow-up algebra adjoins, for each positive root, the wall ratio
(first-factor equation)/(second-factor equation) to the coordinate ring of
the product of the two factors; the relation ideal is saturated at the wall
so that membership of a fraction is a decidable ideal computation.

Flavor strings name the projection base (second factor) first, like the
models they match: "gG" is a torus fiber over a Lie-algebra base, "GGv" is a
dual-torus fiber over a torus base (the convolution-ring flavor).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .actions import GroupAction, Substitution
from .fractions import RingFraction
from .groebner import laurent_exact_divide
from .poly import LaurentPoly
from .rings import PresentedRing
from .rootdata import RootDatum
from .scalars import ONE, gauss

FLAVORS = ("gg", "Gg", "gG", "GG", "GGv")

# (first factor kind, second factor kind); kinds: lie | group | dual-group
_FACTOR_KINDS = {
    "gg": ("lie", "lie"),
    "Gg": ("lie", "group"),
    "gG": ("group", "lie"),
    "GG": ("group", "group"),
    "GGv": ("dual-group", "group"),
}

_RANK1_FIRST_VAR = {"gg": "u", "Gg": "x", "gG": "y", "GG": "y", "GGv": "t"}
_RANK1_SECOND_VAR = {"gg": "x", "Gg": "z", "gG": "x", "GG": "z", "GGv": "z"}


class BlowupError(ValueError):
    pass


@dataclass
class BlowupAlgebra:
    flavor: str
    datum: RootDatum
    first_vars: tuple[str, ...]
    second_vars: tuple[str, ...]
    gen_names: tuple[str, ...]
    numerators: tuple[LaurentPoly, ...]
    walls: tuple[LaurentPoly, ...]
    wall_product: LaurentPoly
    ring: PresentedRing
    weyl: GroupAction | None = None
    invariant_gens: tuple[RingFraction, ...] = ()

    def __repr__(self):
        gens = ", ".join(
            f"{t} = ({n}) / ({w})" for t, n, w in zip(self.gen_names, self.numerators, self.walls)
        )
        return f"<BlowupAlgebra {self.flavor}: {gens}>"


def _factor_vars(kind: str, base: str, rank: int) -> tuple[str, ...]:
    if rank == 1:
        return (base,)
    return tuple(f"{base}{i + 1}" for i in range(rank))


def _char_monomial(vars: Sequence[str], vec: Sequence[int]) -> LaurentPoly:
    return LaurentPoly.monomial(ONE, dict(zip(vars, vec))).with_vars(tuple(vars))


def _linear_form(vars: Sequence[str], vec: Sequence[int]) -> LaurentPoly:
    out = LaurentPoly.zero(tuple(vars))
    for v, c in zip(vars, vec):
        if c:
            out = out + LaurentPoly.var(v) * c
    return out


def _factor_equation(
    kind: str, vars, datum: RootDatum, root: Sequence[int], coroot: Sequence[int]
):
    """The wall equation of a root on one factor: alpha - eps (eps = 1 on tori).

    Lie-algebra factors use simple-root functionals as linear coordinates, so
    alpha(x) = x at rank 1 and a positive root is its simple-coefficient
    combination in general.
    """
    if kind == "lie":
        coeffs = datum._simple_coefficients(root)
        ints = []
        for c in coeffs:
            if c.denominator != 1:
                raise BlowupError("non-integral simple coefficients for a root")
            ints.append(c.numerator)
        return _linear_form(vars, ints)
    vec = coroot if kind == "dual-group" else root
    return _char_monomial(vars, vec) - 1


def build_blowup(datum: RootDatum, flavor: str) -> BlowupAlgebra:
    """Construct the blow-up algebra with a saturated relation ideal."""
    if flavor not in FLAVORS:
        raise BlowupError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    first_kind, second_kind = _FACTOR_KINDS[flavor]
    rank = datum.rank
    first_vars = _factor_vars(first_kind, _RANK1_FIRST_VAR[flavor], rank)
    second_vars = _factor_vars(second_kind, _RANK1_SECOND_VAR[flavor], rank)
    positive = datum.positive_root_pairs()
    gen_names = ("T",) if len(positive) == 1 else tuple(f"T{i + 1}" for i in range(len(positive)))

    numerators = []
    walls = []
    relations = []
    for name, (root, coroot) in zip(gen_names, positive):
        num = _factor_equation(first_kind, first_vars, datum, root, coroot)
        wall = _factor_equation(second_kind, second_vars, datum, root, coroot)
        numerators.append(num)
        walls.append(wall)
        relations.append(LaurentPoly.var(name) * wall - num)

    laurent = []
    poly = []
    for kind, vars in ((first_kind, first_vars), (second_kind, second_vars)):
        (laurent if kind in ("group", "dual-group") else poly).extend(vars)
    poly.extend(gen_names)

    wall_product = prod(walls, start=LaurentPoly.const(1))
    ring = PresentedRing(laurent, poly, relations).saturated(wall_product)

    algebra = BlowupAlgebra(
        flavor=flavor,
        datum=datum,
        first_vars=first_vars,
        second_vars=second_vars,
        gen_names=gen_names,
        numerators=tuple(numerators),
        walls=tuple(walls),
        wall_product=wall_product,
        ring=ring,
    )
    if rank == 1:
        algebra.weyl = _rank1_weyl_action(algebra, first_kind, second_kind)
        algebra.invariant_gens = _rank1_invariant_generators(algebra, first_kind, second_kind)
    return algebra


def _rank1_weyl_action(B: BlowupAlgebra, first_kind: str, second_kind: str) -> GroupAction:
    """w acts by inversion/negation on the factors; T picks up the unit twist."""
    images: dict = {}
    for kind, (v,) in ((first_kind, B.first_vars), (second_kind, B.second_vars)):
        if kind == "lie":
            images[v] = (gauss(-1), {v: 1})
        else:
            images[v] = (ONE, {v: -1})
    sub0 = Substitution(images)
    (num,) = B.numerators
    (wall,) = B.walls
    num_t = sub0(num)
    wall_t = sub0(wall)
    unit_num = laurent_exact_divide(num_t, num)
    unit_wall = laurent_exact_divide(wall_t, wall)
    if unit_num is None or unit_wall is None or not unit_num.is_monomial() or not unit_wall.is_monomial():
        raise BlowupError("wall equations do not transform monomially under w")
    twist = unit_num * unit_wall.monomial_inverse()
    ((texp, tc),) = twist.terms.items()
    (tname,) = B.gen_names
    mono = {v: e for v, e in zip(twist.vars, texp) if e}
    mono[tname] = mono.get(tname, 0) + 1
    images[tname] = (tc, mono)
    return GroupAction([Substitution(images)])


def _rank1_invariant_generators(B, first_kind, second_kind) -> tuple[RingFraction, ...]:
    """W-invariant fraction generators of the undotted blow-up B = B-dot/W."""
    (f,) = B.first_vars
    (s,) = B.second_vars
    fv = LaurentPoly.var(f)
    sv = LaurentPoly.var(s)
    half = lambda p: RingFraction(p) / 2

    if B.flavor == "gg":
        # delta = x^2, theta = u/x
        return (RingFraction(sv * sv), RingFraction(fv, sv))
    if B.flavor == "Gg":
        # a = z + z^-1, zeta = x/(z - z^-1)
        return (RingFraction(sv + sv**-1), RingFraction(fv, sv - sv**-1))
    if B.flavor == "gG":
        # delta = x^2, xi = (y+y^-1)/2, eta = (y-y^-1)/(2x)
        return (
            RingFraction(sv * sv),
            half(fv + fv**-1),
            RingFraction(fv - fv**-1, sv * 2),
        )
    if B.flavor == "GG":
        # y+y^-1, z+z^-1 and the invariant wall ratio
        return (
            RingFraction(fv + fv**-1),
            RingFraction(sv + sv**-1),
            RingFraction(fv - fv**-1, sv - sv**-1),
        )
    if B.flavor == "GGv":
        # the iota-invariant generators of the convolution ring
        d = sv - sv**-1
        return (
            RingFraction(sv + sv**-1),
            RingFraction(fv + fv**-1),
            RingFraction(fv - fv**-1, d),
            RingFraction(fv + fv**-1 - 2, d * d),
        )
    raise BlowupError(B.flavor)


# -- fraction membership ---------------------------------------------------------


@dataclass
class MembershipResult:
    """``wall_power`` is the power of the wall left after cancelling wall factors of the numerator."""

    member: bool
    certificate: LaurentPoly | None
    wall_power: int

    def __bool__(self):
        return self.member


def _is_unit(p: LaurentPoly, laurent_vars: Sequence[str]) -> bool:
    return p.is_monomial() and all(v in laurent_vars for v in p.support_vars())


def _ring_quotient(f: LaurentPoly, g: LaurentPoly, laurent_vars: Sequence[str]) -> LaurentPoly | None:
    """f/g if it has no negative power of a variable outside ``laurent_vars``, else None.

    Those variables are not units, so such a Laurent quotient is no division in the ring.
    """
    q = laurent_exact_divide(f, g)
    if q is None or any(q.min_degree_in(v) < 0 for v in q.vars if v not in laurent_vars):
        return None
    return q


def factor_wall_denominator(
    den: LaurentPoly, wall: LaurentPoly, laurent_vars: Sequence[str] = ()
) -> tuple[int, LaurentPoly]:
    """Write den = unit * wall^k with unit a monomial in invertible variables.

    Raises if the denominator does not divide a power of the wall product.
    """
    if _is_unit(wall, laurent_vars):
        raise BlowupError(f"the wall {wall} is a unit")
    k = 0
    cur = den
    while not _is_unit(cur, laurent_vars):
        cur = _ring_quotient(cur, wall, laurent_vars)
        if cur is None:
            raise BlowupError(
                f"denominator {den} is not a unit times a power of the wall {wall}"
            )
        k += 1
    return k, cur


def membership(frac: RingFraction, B: BlowupAlgebra) -> MembershipResult:
    """Decide whether a wall-denominator fraction lies in the blow-up ring.

    Returns an explicit certificate: a polynomial in the torus/Cartan
    coordinates and the blow-up generators equal to the fraction in the
    saturated quotient. The certificate is the normal form of num*w^k
    modulo J = I + (wall*w - 1), and both cancellations below keep it.

    A numerator factor n of a rank-1 blow-up is a T, since n = T*wall in
    the ring: n*w = T*(wall*w) + (n - T*wall)*w is T modulo J, so
    (n*q)*w^k and (T*q)*w^(k-1) have one normal form, J's basis being
    reduced. That rests on n - T*wall lying in I, which ``B.numerators``
    only names: a perturbed relation keeps the numerators it had. So the
    identity is checked in the ring before the first factor is cancelled.
    """
    wall = B.wall_product
    laurent_vars = B.ring.laurent_vars
    num, den = B.ring.split(frac)
    k, unit = factor_wall_denominator(den, wall, laurent_vars)
    num = num * unit.monomial_inverse()
    # num = wall*q gives num/wall^k = q/wall^(k-1); wall*w - 1 lies in the
    # division ideal, so q*w^(k-1) has the normal form, the certificate, of num*w^k
    while k:
        q = _ring_quotient(num, wall, laurent_vars)
        if q is None:
            break
        num, k = q, k - 1
    if k == 0:
        return MembershipResult(True, B.ring.nf(num), 0)
    j = 0
    if len(B.gen_names) == 1:
        (n,) = B.numerators
        T = LaurentPoly.var(B.gen_names[0])
        q = _ring_quotient(num, n, laurent_vars)
        if q is not None and B.ring.equal(T * wall, n):
            while q is not None:
                num, j = q, j + 1
                q = _ring_quotient(num, n, laurent_vars) if j < k else None
            num = num * T**j
    if j == k:
        return MembershipResult(True, B.ring.nf(num), k)
    cert = B.ring.divide(num, wall, power=k - j)
    return MembershipResult(cert is not None, cert, k)


# -- Denis conditions --------------------------------------------------------------


def denis_check(
    components: Sequence[LaurentPoly] | LaurentPoly, datum: RootDatum, flavor: str
) -> bool:
    """The section constraint cutting the blow-up out of the naive product.

    ``components`` gives the unit-valued map in second-factor coordinates,
    one scalar-times-monomial per first-factor coordinate. Flavors over a
    Lie-algebra fiber carry no constraint and return True.
    """
    if flavor not in FLAVORS:
        raise BlowupError(f"unknown flavor {flavor!r}")
    first_kind, second_kind = _FACTOR_KINDS[flavor]
    if first_kind == "lie":
        return True
    if isinstance(components, LaurentPoly):
        components = [components]
    if len(components) != datum.rank:
        raise BlowupError("one component per first-factor coordinate required")
    parts = []
    for comp in components:
        if not comp.is_monomial():
            raise BlowupError(f"component {comp} is not a unit (scalar times monomial)")
        ((exps, coeff),) = comp.terms.items()
        named = {v: e for v, e in zip(comp.vars, exps)}
        parts.append((coeff, named))

    all_second_vars = sorted({v for _, named in parts for v in named})
    for root, coroot in datum.positive_root_pairs():
        target = coroot if first_kind == "dual-group" else root
        scalar = ONE
        composed = [0] * len(all_second_vars)
        for (coeff, named), t in zip(parts, target):
            if t == 0:
                continue
            scalar = scalar * coeff ** t
            for v, e in named.items():
                composed[all_second_vars.index(v)] += e * t
        if second_kind == "group":
            # composed character must be trivial on the wall: a Z-multiple of
            # the (rank-1) second-factor root character, with scalar 1
            wall_vec = _second_factor_vector(datum, root, all_second_vars, flavor)
            if not _is_integer_multiple(composed, wall_vec):
                return False
            if scalar != ONE:
                return False
        else:
            # lie-algebra base: units are constants, condition is scalar = 1
            if any(composed) or scalar != ONE:
                return False
    return True


def _second_factor_vector(datum, root, var_names, flavor):
    second_vars = _factor_vars("group", _RANK1_SECOND_VAR[flavor], datum.rank)
    vec = [0] * len(var_names)
    for v, c in zip(second_vars, root):
        if v in var_names:
            vec[var_names.index(v)] = c
        elif c:
            raise BlowupError(f"component uses unknown second-factor variable layout ({v})")
    return vec


def _is_integer_multiple(vec: Sequence[int], base: Sequence[int]) -> bool:
    if not any(base):
        return not any(vec)
    pivot = next(i for i, b in enumerate(base) if b)
    if vec[pivot] % base[pivot]:
        return False
    k = vec[pivot] // base[pivot]
    return all(v == k * b for v, b in zip(vec, base))


# -- discriminant and the unit identity ----------------------------------------------


def discriminant(datum: RootDatum, flavor: str) -> LaurentPoly:
    """prod over all roots of (alpha - 1) (torus base) or alpha (Lie base)."""
    first_kind, second_kind = _FACTOR_KINDS[flavor]
    vars = _factor_vars(second_kind, _RANK1_SECOND_VAR[flavor], datum.rank)
    factors = (_factor_equation(second_kind, vars, datum, r, c) for r, c in datum.root_pairs())
    return prod(factors, start=LaurentPoly.const(1, vars))


def unit_comparison(chars: Sequence[LaurentPoly]) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Delta_1 = prod(1 - chi), Delta_2 = prod(1 - chi^-1), their comparing unit.

    Verifies Delta_1 == Delta_2 * prod(-chi) exactly; raises on failure.
    """
    for chi in chars:
        if not chi.is_monomial():
            raise BlowupError(f"character {chi} is not a monomial")
    one = LaurentPoly.const(1)
    d1 = prod((1 - chi for chi in chars), start=one)
    d2 = prod((1 - chi.monomial_inverse() for chi in chars), start=one)
    unit = prod((-chi for chi in chars), start=one)
    if d1 != d2 * unit:
        raise AssertionError("unit identity Delta_1 = Delta_2 * prod(-chi) failed")
    return d1, d2, unit
