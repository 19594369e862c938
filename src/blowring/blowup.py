"""Affine blow-up algebras of a pair of rank-1 Cartan factors at the diagonal wall.

A blow-up algebra adjoins the wall ratio n/wall = (first-factor
equation)/(second-factor equation) of the positive root to the coordinate
ring A of the product of the two factors. n is monic in the first variable f
alone (prime to f where f is a unit) and the wall is a non-unit in the
second variable s alone, so (wall, n) is a regular sequence in A. Two lemmas
follow:
1. B = A[T]/(wall*T - n) is already the domain A[n/wall]; saturating at the
   wall adds nothing (an affine modification: Kaliman and Zaidenberg,
   Transform. Groups 4, 1999).
2. Write p, times a unit f^m that clears its negative powers of f, in n-adic
   digits p = sum_j n^j r_j with deg_f r_j < deg_f n. Then p/wall^k lies in B
   iff wall^(k-j) divides r_j for every j < k.
On a grid of p's coefficients, row i for f^i and a column per power of s,
with n = f^d + sum_(t<d) c_t f^t: the digits come from the row operations
row[i-d+t] -= c_t * row[i], top row first, and since the wall lies in s
alone, wall^(k-j) divides r_j iff it divides each of r_j's d rows, one
dense division of a polynomial in s each.
3. Write an element of B as sum_j T^j c_j with c_j in A, and call it reduced
   when each c_j, j >= 1, is reduced modulo the wall in s: its s-degrees lie
   in [low, low + deg wall) on a torus base (low the wall's lowest degree)
   and in [0, deg wall) on a Lie base. Every element has one reduced form
   (its wall-adic form). It exists: from the top power of T down, c_j =
   wall*a + b, row by row in s, and T^j c_j = T^j b + T^(j-1) n*a in B. It is
   unique: a difference of two reduced forms that is 0 in B is
   (wall*T - n)*h in A[T]; if h != 0, its top coefficient h_e makes the
   reduced c_(e+1) = wall*h_e, but no nonzero multiple of the wall is
   reduced: on a torus its s-degrees span at least deg wall, on a Lie base
   its top s-degree is at least deg wall. So h = 0; no Gröbner basis is used.

Flavor strings name the projection base (second factor) first, like the
models they match: "gG" is a torus fiber over a Lie-algebra base, "GGv" is a
dual-torus fiber over a torus base (the convolution-ring flavor).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Sequence
from weakref import WeakKeyDictionary

from .actions import GroupAction, Substitution
from .fractions import RingFraction
from .groebner import laurent_exact_divide
from .poly import LaurentPoly
from .rings import PresentedRing
from .rootdata import RootDatum
from .scalars import ONE, ZERO, gauss

FLAVORS = ("gg", "Gg", "gG", "GG", "GGv")

# flavor -> ((kind, variable) of the first factor, of the second); kinds: lie | group | dual-group
_FACTORS = {
    "gg": (("lie", "u"), ("lie", "x")),
    "Gg": (("lie", "x"), ("group", "z")),
    "gG": (("group", "y"), ("lie", "x")),
    "GG": (("group", "y"), ("group", "z")),
    "GGv": (("dual-group", "t"), ("group", "z")),
}


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


def _wall_equation(kind: str, v: str, datum: RootDatum, sign: int = 1) -> LaurentPoly:
    """The equation of the wall of sign*alpha on one factor with coordinate v: the
    simple-root functional v on a Lie algebra, v^root - 1 on the torus and
    v^coroot - 1 on the dual torus."""
    if kind == "lie":
        return LaurentPoly.var(v) * sign
    (e,) = datum.coroot if kind == "dual-group" else datum.root
    return LaurentPoly.monomial(ONE, {v: sign * e}) - 1


def build_blowup(datum: RootDatum, flavor: str) -> BlowupAlgebra:
    """Construct the blow-up algebra, presented by its relation wall*T - n (lemma 1)."""
    if flavor not in FLAVORS:
        raise BlowupError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    factors = (first_kind, f), (second_kind, s) = _FACTORS[flavor]
    num = _wall_equation(first_kind, f, datum)
    wall = _wall_equation(second_kind, s, datum)
    laurent = [v for kind, v in factors if kind != "lie"]
    poly = [v for kind, v in factors if kind == "lie"] + ["T"]

    algebra = BlowupAlgebra(
        flavor=flavor,
        datum=datum,
        first_vars=(f,),
        second_vars=(s,),
        gen_names=("T",),
        numerators=(num,),
        walls=(wall,),
        wall_product=wall,
        ring=PresentedRing(laurent, poly, [LaurentPoly.var("T") * wall - num]),
    )
    algebra.weyl = _weyl_action(algebra, factors)
    algebra.invariant_gens = _invariant_generators(algebra)
    return algebra


def _weyl_action(B: BlowupAlgebra, factors) -> GroupAction:
    """w acts by inversion/negation on the factors; T picks up the unit twist."""
    images: dict = {}
    for kind, v in factors:
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


def _invariant_generators(B: BlowupAlgebra) -> tuple[RingFraction, ...]:
    """W-invariant fraction generators of the undotted blow-up B = B-dot/W."""
    (f,) = B.first_vars
    (s,) = B.second_vars
    vars = B.ring.laurent_vars + B.ring.poly_vars  # one order for every operand, T included
    fv = LaurentPoly.var(f).with_vars(vars)
    sv = LaurentPoly.var(s).with_vars(vars)
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
    member: bool
    certificate: LaurentPoly | None

    def __bool__(self):
        return self.member


def _is_unit(p: LaurentPoly, laurent_vars: Sequence[str]) -> bool:
    return p.is_monomial() and all(v in laurent_vars for v in p.support_vars())


def _dense(p: LaurentPoly, v: str) -> tuple[int, list]:
    """p's lowest degree in v and its coefficients from there to its highest,
    one per degree, for p whose exponents in its other variables do not vary."""
    i = p.vars.index(v)
    degrees = {e[i]: c for e, c in p.terms.items()}
    low = min(degrees)
    return low, [degrees.get(e, ZERO) for e in range(low, max(degrees) + 1)]


class _WallPowers:
    """A wall in one variable v as v^low times its dense coefficients c (c[0], c[-1] != 0),
    and the dense coefficients c^k of its powers, kept per ring as they are asked for."""

    def __init__(self, wall: LaurentPoly, laurent_vars: Sequence[str]):
        support = wall.support_vars()
        if len(support) != 1:
            raise BlowupError(f"the wall {wall} does not lie in one variable")
        (self.var,) = support
        self.wall, self.invertible = wall, self.var in laurent_vars
        self.low, c = _dense(wall, self.var)
        # degree spans in v add up under products; a unit's is 0, as v is invertible
        self.span = len(c) - 1 + (0 if self.invertible else self.low)
        if self.span <= 0:
            raise BlowupError(f"the wall {wall} is a unit")
        self.powers: dict = {}  # k -> c^k, 1/c^k[0] and the other nonzero entries of c^k
        self.top = self.low + len(c) - 1  # the wall's top degree in v; lemma 3's window ends there
        self.lead, self.trail = c[-1].inverse(), c[0].inverse()
        nonzero = [(j, cj) for j, cj in enumerate(c) if cj]
        self.under, self.over = nonzero[:-1], nonzero[1:]  # all but the top entry; all but the bottom one

    def reduce(self, row: dict) -> tuple[dict, dict]:
        """(a, b) with row = wall * a + b, for polynomials in v held as {degree: coefficient},
        and b reduced (lemma 3): its degrees in [top - span, top). Terms at or above the top
        go first, by the wall's top coefficient; then, v being a unit, those under low."""
        b, a, low, top = dict(row), {}, self.low, self.top
        for e in range(max(b), top - 1, -1):
            x = b.pop(e, None)
            if x:
                a[e - top] = q = x * self.lead
                for j, cj in self.under:
                    b[e - top + low + j] = b.get(e - top + low + j, ZERO) - q * cj
        if self.invertible:
            for e in range(min(b, default=low), low):
                x = b.pop(e, None)
                if x:
                    a[e - low] = q = x * self.trail
                    for j, cj in self.over:
                        b[e + j] = b.get(e + j, ZERO) - q * cj
        return a, {e: x for e, x in b.items() if x}

    def quotient(self, column: list, k: int) -> list | None:
        """q with column = q * c^k as coefficient lists from index 0, or None if c^k does not
        divide column: long division from the bottom, since c^k[0] != 0."""
        if k not in self.powers:
            c = _dense(self.wall**k, self.var)[1]
            self.powers[k] = c, c[0].inverse(), [(j, cj) for j, cj in enumerate(c) if j and cj]
        c, inv, tail = self.powers[k]
        rest, size = list(column), max(len(column) - len(c) + 1, 0)
        q = [ZERO] * size
        for i in range(size):
            if rest[i]:
                q[i] = a = rest[i] * inv
                for j, cj in tail:
                    rest[i + j] = rest[i + j] - a * cj
        return None if any(rest[size:]) else q


def factor_wall_denominator(
    den: LaurentPoly, wall: LaurentPoly, laurent_vars: Sequence[str] = (), powers: _WallPowers | None = None
) -> tuple[int, LaurentPoly]:
    """Write den = unit * wall^k with unit a monomial in invertible variables.

    The wall lies in one variable v (``powers`` holds it, built here if not
    given). Degree spans in v add up under products, so den's is k times the
    wall's; one dense division of den's coefficients in v by those of wall^k
    checks the rest. Raises if den is no unit times a power of the wall.
    """
    w = powers or _WallPowers(wall, laurent_vars)
    k = rest = 0
    unit = den
    if w.var in den.vars:
        i = den.vars.index(w.var)
        low, column = _dense(den, w.var)
        k, rest = divmod(len(column) - 1 + (0 if w.invertible else low), w.span)
    if k and not rest:  # den / wall^k, if den is a monomial in its other variables times one column in v
        others = {e[:i] + e[i + 1 :] for e in den.terms}
        q = w.quotient(column, k) if len(others) == 1 else None
        shift = low - k * w.low  # the degree in v of q[0]; no q leaves unit zero
        unit = LaurentPoly(den.vars, {o[:i] + (shift + a,) + o[i:]: c for o in others for a, c in enumerate(q or ())})
    if rest or not unit or not _is_unit(unit, laurent_vars):
        raise BlowupError(f"denominator {den} is not a unit times a power of the wall {wall}")
    return k, unit


# keyed on the ring: a copy of a blow-up on another ring checks its own relation
_DIGITS: WeakKeyDictionary = WeakKeyDictionary()


def _digits_of(B: BlowupAlgebra) -> tuple:
    """B.ring's variables, the places of f, s and T in them, n, deg_f n, the (f-degree,
    negated coefficient) of n's lower terms, the wall's powers and the gather that orders an
    (f, s, T) exponent triple as the variables: built and checked on first use, the relation's
    vanishing by its being a generator of B.ring's ideal (no Gröbner basis is built)."""
    ctx = _DIGITS.get(B.ring)
    if ctx is not None:
        return ctx
    if len(B.gen_names) != 1 or len(B.ring.relations) != 1:
        raise BlowupError("digits need one blow-up generator and one relation")
    (f,), (s,), (T,), (relation,) = B.first_vars, B.second_vars, B.gen_names, B.ring.relations
    units, vars = B.ring.laurent_vars, B.ring.laurent_vars + B.ring.poly_vars
    wall = B.wall_product.with_vars(vars)
    n = (wall * LaurentPoly.var(T) - relation).with_vars(vars)
    terms = {e[vars.index(f)]: c for e, c in n.terms.items()} if n.support_vars() == (f,) else {}
    d = max(terms, default=0)
    if not B.ring.has_generator(relation):
        raise BlowupError(f"the relation {relation} is no generator of its ring's ideal")
    monic = d > 0 and min(terms) >= 0 and terms[d] == ONE and (f not in units or 0 in terms)
    if sorted(vars) != sorted((f, s, T)) or wall.support_vars() != (s,) or not monic:
        raise BlowupError(f"{relation} is no T*wall - n with the wall in {s} and n in {f} as the module says")
    tail = tuple((e, -c) for e, c in terms.items() if e < d)  # negated
    places = tuple(map(vars.index, (f, s, T)))
    order = itemgetter(*((f, s, T).index(v) for v in vars))
    ctx = _DIGITS[B.ring] = (vars, places, n, d, tail, _WallPowers(wall, units), order)
    return ctx


def membership(frac: RingFraction, B: BlowupAlgebra) -> MembershipResult:
    """Decide whether a wall-denominator fraction lies in the rank-1 blow-up ring, by n-adic digits.

    By lemma 1, B.ring needs no saturation and is the domain A[n/wall], so
    T = n/wall and the fraction is p/wall^k with p free of T. p, times the
    unit f^m/unit(den), is held as a grid of coefficients, row i for f^i and
    a column per power of s. Lemma 2's digits come from long division by the
    monic n, top row first; each nonzero row of the digit r_j must be divided
    by wall^(k-j) in k[s] or k[s^(+-)], and the first failure means no member.
    The certificate f^-m * (sum_(j<k) T^j r_j/wall^(k-j) + T^k q), q the
    rest after k digits, is returned in its wall-adic form (lemma 3): unique,
    so equal in B to the division engine's certificate, but found without
    one. Raises BlowupError unless B.ring is a rank-1 blow-up of the module's
    form whose ideal lists its relation as a generator (checked without a basis,
    so a ring whose ideal only contains the relation is refused).
    """
    ctx = _digits_of(B)
    vars, (fi, si, ti), n, d, tail, powers, _ = ctx
    wall = powers.wall
    num, den = B.ring.split(frac)
    num = num.with_vars(vars)
    top = max((e[ti] for e in num.terms), default=0)
    if top:  # p(T)/den = (wall^top * p(n/wall)) / (wall^top * den)
        parts = [{e[:ti] + (0,) + e[ti + 1 :]: c for e, c in num.terms.items() if e[ti] == j} for j in range(top + 1)]
        terms = (LaurentPoly(vars, t) * n**j * wall ** (top - j) for j, t in enumerate(parts))
        num, den = sum(terms, LaurentPoly.zero(vars)), den * wall**top
    k, unit = factor_wall_denominator(den, wall, B.ring.laurent_vars, powers)
    ((shift, uc),) = unit.monomial_inverse().with_vars(vars).terms.items()
    fs = [e[fi] + shift[fi] for e in num.terms] or [0]
    ss = [e[si] + shift[si] for e in num.terms] or [0]
    m, low = -min(min(fs), 0), min(ss)
    grid = [[ZERO] * (max(ss) - low + 1) for _ in range(max(fs) + m + 1)]
    for a, b, c in zip(fs, ss, num.terms.values()):
        grid[a + m][b - low] = c * uc
    cert: dict = {}  # T-degree -> f-degree -> {s-degree: coefficient}
    for j in range(k):
        for i in range(len(grid) - 1, (j + 1) * d - 1, -1):  # row[i-d+t] += (-c_t) * row[i]
            row = [(col, a) for col, a in enumerate(grid[i]) if a]
            for t, nc in tail:
                target = grid[i - d + t]
                for col, a in row if nc == ONE else [(col, nc * a) for col, a in row]:
                    target[col] += a
        base = low - (k - j) * powers.low  # the s-degree of a quotient's first entry
        for t, row in enumerate(grid[j * d : (j + 1) * d]):  # the digit r_j, final now
            if any(row):
                q = powers.quotient(row, k - j)
                if q is None or (not powers.invertible and any(q[: max(-base, 0)])):
                    return MembershipResult(False, None)
                cert.setdefault(j, {})[t - m] = {base + col: a for col, a in enumerate(q) if a}
    cert[k] = {i - m: {low + col: a for col, a in enumerate(row) if a} for i, row in enumerate(grid[k * d :])}
    return MembershipResult(True, _wall_adic(cert, ctx))


def _wall_adic(coeffs: dict, ctx: tuple) -> LaurentPoly:
    """The wall-adic form (lemma 3) of sum_j T^j c_j, given as {j: {f-degree: {s-degree:
    coefficient}}} and reduced in place: top power of T first, c_j = wall*a + b row by row
    in s, and T^j*c_j = T^j*b + T^(j-1)*n*a in B."""
    vars, (fi, _, _), n, _, _, powers, order = ctx
    nterms = [(e[fi], c) for e, c in n.terms.items()]
    for j in range(max(coeffs, default=0), 0, -1):
        rows, below = coeffs.get(j, {}), coeffs.setdefault(j - 1, {})
        for i, row in rows.items():
            if row:
                a, rows[i] = powers.reduce(row)
                for t, nc in nterms:
                    target = below.setdefault(i + t, {})
                    for e, x in a.items():
                        target[e] = target.get(e, ZERO) + nc * x
    terms = {order((i, e, j)): x for j, rows in coeffs.items() for i, row in rows.items() for e, x in row.items()}
    return LaurentPoly(vars, terms)


def wall_adic_form(p: LaurentPoly, B: BlowupAlgebra) -> LaurentPoly:
    """p's wall-adic normal form in B (lemma 3): equal to p in B, and the same polynomial
    for two elements of B.ring's polynomial ring iff they are equal in B. Raises
    BlowupError unless B.ring is a rank-1 blow-up of the module's form."""
    ctx = _digits_of(B)
    vars, (fi, si, ti) = ctx[0], ctx[1]
    places = [i for i, v in enumerate(vars) if v in B.ring.poly_vars]
    coeffs: dict = {}
    for e, c in p.with_vars(vars).terms.items():
        if any(e[i] < 0 for i in places):
            raise BlowupError(f"{p} has a negative power of a variable that is no unit in B")
        coeffs.setdefault(e[ti], {}).setdefault(e[fi], {})[e[si]] = c
    return _wall_adic(coeffs, ctx)


# -- Denis conditions --------------------------------------------------------------


def denis_check(unit: LaurentPoly, datum: RootDatum, flavor: str) -> bool:
    """The section constraint cutting the blow-up out of the naive product.

    ``unit`` is the unit-valued map in the second-factor coordinate s, a
    scalar c times s^e. Composed with the first factor's root character (its
    coroot's on a dual torus), of exponent a, it is c^a * s^(e*a): over a
    torus base it must be trivial on the wall, c^a = 1 and e*a a multiple of
    the root; over a Lie-algebra base units are constants, c^a = 1 and e = 0.
    A variable other than s raises. Flavors over a Lie-algebra fiber carry no
    constraint and return True.
    """
    if flavor not in FLAVORS:
        raise BlowupError(f"unknown flavor {flavor!r}")
    (first_kind, _), (second_kind, s) = _FACTORS[flavor]
    if first_kind == "lie":
        return True
    if not unit.is_monomial():
        raise BlowupError(f"{unit} is not a unit (scalar times monomial)")
    ((exps, c),) = unit.terms.items()
    named = {v: e for v, e in zip(unit.vars, exps) if e}
    if named.keys() - {s}:
        raise BlowupError(f"{unit} names {sorted(named.keys() - {s})}, not only the second-factor variable {s}")
    e = named.get(s, 0)
    (a,) = datum.coroot if first_kind == "dual-group" else datum.root
    (root,) = datum.root
    trivial = (e * a) % root == 0 if second_kind == "group" else e == 0
    return trivial and c**a == ONE


# -- discriminant and the unit identity ----------------------------------------------


def discriminant(datum: RootDatum, flavor: str) -> LaurentPoly:
    """The product of the second factor's wall equations at alpha and at -alpha:
    (alpha - 1)(alpha^-1 - 1) on a torus base, -alpha^2 on a Lie base."""
    _, (kind, s) = _FACTORS[flavor]
    return _wall_equation(kind, s, datum) * _wall_equation(kind, s, datum, -1)


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
