"""Verification suites: every machine-checkable identity behind the library.

Each suite returns a Report with one record per check. An optional corruption
target perturbs a single relation coefficient so the exit-code contract can
be exercised end to end; corrupted runs must fail.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations_with_replacement

from . import centralizer as cz
from .actions import GroupAction, Substitution, invariant_generators
from .blowup import FLAVORS, build_blowup, denis_check, discriminant, membership, unit_comparison
from .fractions import RingFraction
from .fusion import consistency_sweep, fusion_table
from .heisenberg import HeisenbergElement, commutes_at_q1, poisson_from_q, torus_monomial
from .homology import BMRing, bm_ring_ops
from .kring import KRing, abstract_ring, dictionary_rederivations, kring_multiply, subring_filter, v_dictionary
from .poisson import bracket_closure_check, torus_chart
from .poly import LaurentPoly, parse_poly
from .reports import Config, Report, Stopwatch
from .rings import PresentedRing
from .rootdata import sl2
from .scalars import gauss

SUITES = ("all", "blowup", "centralizer", "kring", "homology", "heisenberg", "steinberg")

# corruption target -> the suite whose relation it perturbs
CORRUPTION_TARGETS = {
    "kring": "kring",
    "homology": "homology",
    "centralizer:S": "centralizer",
    "centralizer:S-prime": "centralizer",
    **{f"blowup:{flavor}": "blowup" for flavor in FLAVORS},
}


def corrupt_constant(rel: LaurentPoly) -> LaurentPoly:
    """Shift the constant coefficient by one: a single-coefficient corruption."""
    return rel + 1


def _corrupted_blowup(datum, flavor):
    B = build_blowup(datum, flavor)
    (tname,) = B.gen_names
    rel = LaurentPoly.var(tname) * B.walls[0] - B.numerators[0]
    bad = corrupt_constant(rel)
    ring = PresentedRing(B.ring.laurent_vars, B.ring.poly_vars, [bad]).saturated(B.wall_product)
    B.ring = ring
    return B


def suite_blowup(cfg: Config, corrupt: str | None = None) -> Report:
    datum = sl2()
    report = Report("blowup")
    watch = Stopwatch(cfg.timing)
    for flavor in FLAVORS:
        if corrupt == f"blowup:{flavor}":
            B = _corrupted_blowup(datum, flavor)
        else:
            B = build_blowup(datum, flavor, term_cap=cfg.term_cap)
        (tname,) = B.gen_names
        rel = LaurentPoly.var(tname) * B.walls[0] - B.numerators[0]
        report.add(
            f"{flavor}: defining relation reduces to zero",
            B.ring.nf(rel).is_zero(),
            ms=watch.lap(),
        )
        frac = RingFraction(B.numerators[0], B.walls[0])
        res = membership(frac, B)
        report.add(
            f"{flavor}: wall-ratio generator is a member",
            res.member,
            witness=str(res.certificate),
            ms=watch.lap(),
        )
        closure = bracket_closure_check(B)
        for p in closure.pairs:
            report.add(
                f"{flavor}: bracket closure {{{p.f}, {p.g}}}",
                p.member,
                witness=f"bracket {p.bracket}; certificate {p.certificate}",
                ms=watch.lap(),
            )
        report.add(
            f"{flavor}: Jacobi sums vanish on generator triples",
            all(j.zero for j in closure.jacobi),
            ms=watch.lap(),
        )
        disc = discriminant(datum, flavor)
        if B.weyl is not None:
            inv = all(s(disc) == disc for s in B.weyl.generators)
            report.add(f"{flavor}: discriminant is W-invariant", inv, ms=watch.lap())

    B = build_blowup(datum, "GG")
    y, z = LaurentPoly.gens("y z")
    m1 = membership(RingFraction(y**2 - 1, z**2 - 1), B)
    report.add(
        "GG: (y^2-1)/(z^2-1) member with certificate T",
        m1.member and m1.certificate == LaurentPoly.var("T"),
        witness=str(m1.certificate),
        ms=watch.lap(),
    )
    m2 = membership(RingFraction(y - y**-1, z - z**-1), B)
    valid = False
    if m2.member:
        diff = B.ring.nf(
            B.ring.to_ambient(y - y**-1)
            - B.ring.to_ambient(z - z**-1) * m2.certificate
        )
        valid = diff.is_zero()
    report.add(
        "GG: (y-y^-1)/(z-z^-1) member, certificate verifies",
        m2.member and valid,
        witness=str(m2.certificate),
        ms=watch.lap(),
    )
    m3 = membership(RingFraction(LaurentPoly.const(1), z**2 - 1), B)
    report.add("GG: 1/(z^2-1) is not a member", not m3.member, ms=watch.lap())

    report.add("Denis condition: z^2 passes", denis_check(parse_poly("z^2"), datum, "GGv"), ms=watch.lap())
    report.add("Denis condition: z fails", not denis_check(parse_poly("z"), datum, "GGv"), ms=watch.lap())
    report.add(
        "Denis condition: 2*z^2 fails", not denis_check(parse_poly("2*z^2"), datum, "GGv"), ms=watch.lap()
    )
    return report


def suite_centralizer(cfg: Config, corrupt: str | None = None) -> Report:
    datum = sl2()
    report = Report("centralizer")
    watch = Stopwatch(cfg.timing)
    for flavor in ("group", "lie"):
        M = cz.kostant_slice(flavor)
        for constraint in ("none", "traceless"):
            basis = cz.commutant_basis(M, constraint)
            family = cz.closed_form_commutant_family(flavor, constraint)
            commute = all(b.commutator(M).is_zero() for b in basis)
            span = cz.same_span(basis, family)
            report.add(
                f"commutant {flavor}/{constraint}: solves [X,M]=0 and spans the closed-form family",
                commute and span,
                witness=str(basis),
                ms=watch.lap(),
            )
    det_g = cz.general_commutant_element("group").det()
    report.add(
        "det of general group commutant rewrites the cubic relation",
        det_g == parse_poly("a*b*c - b^2 - c^2"),
        witness=str(det_g),
        ms=watch.lap(),
    )
    det_l = cz.general_commutant_element("lie").det()
    report.add(
        "det of general Lie commutant is xi^2 - delta*eta^2",
        det_l == parse_poly("xi^2 - delta*eta^2"),
        witness=str(det_l),
        ms=watch.lap(),
    )
    for name in cz.MODEL_NAMES:
        m = cz.model(name)
        if corrupt == f"centralizer:{name}" and m.relation is not None:
            m = replace(m, relation=corrupt_constant(m.relation))
        report.add(
            f"{name}: parametrization satisfies the relation, involutions preserve it",
            cz.verify_parametrization(m),
            ms=watch.lap(),
        )
        kernel = cz.model_kernel(m)
        report.add(
            f"{name}: implicitization kernel equals the model relation",
            cz.kernel_matches_relation(m, kernel),
            witness="; ".join(str(g) for g in kernel.groebner()) or "0",
            ms=watch.lap(),
        )
        B = build_blowup(datum, m.blowup_flavor, term_cap=cfg.term_cap)
        match = cz.blowup_match(m, B, degree_bound=cfg.degree_bound)
        report.add(
            f"{name} <-> {m.blowup_flavor}: two-sided blow-up identification (bound {cfg.degree_bound})",
            match.passed,
            witness=str(match.certificates),
            ms=watch.lap(),
        )
    expected = {
        ("S", ("jmath",), 2): {"b", "a^2", "c^2", "a*c"},
        ("S-prime", ("iota",), 2): {"delta", "xi^2", "eta^2", "xi*eta"},
        ("S", ("iota", "jmath"), 3): {"a^2", "b^2", "c^2", "a*b*c"},
    }
    for (name, which, bound), want in expected.items():
        got = {str(g) for g in cz.isogeny_invariants(cz.model(name), which, degree_bound=bound)}
        report.add(
            f"{name}: invariants under {'+'.join(which)} are {sorted(want)}",
            got == want,
            witness=str(sorted(got)),
            ms=watch.lap(),
        )
    return report


def suite_kring(cfg: Config, corrupt: str | None = None) -> Report:
    report = Report("kring")
    watch = Stopwatch(cfg.timing)
    star = cz.model("S").relation
    if corrupt == "kring":
        star = corrupt_constant(star)
    ring = abstract_ring(star)
    a, b, c = (parse_poly(s, vars=("a", "b", "c")) for s in "abc")

    prod = kring_multiply(c, v_dictionary(-1, 1), ring)
    report.add(
        "v(1)_1 * v(-1)_1 = v(0)_2 + 1",
        ring.equal(prod, v_dictionary(0, 2) + 1),
        witness=str(prod),
        ms=watch.lap(),
    )
    report.add(
        "v(1)_0 * v(0)_1 = v(1)_1 + v(-1)_1",
        ring.equal(kring_multiply(a, b, ring), v_dictionary(1, 1) + v_dictionary(-1, 1)),
        ms=watch.lap(),
    )
    for n in (0, 1):
        vn1 = v_dictionary(n, 1)
        report.add(
            f"v({n})_1 * v({n})_1 = v({2*n})_2",
            ring.equal(kring_multiply(vn1, vn1, ring), v_dictionary(2 * n, 2)),
            ms=watch.lap(),
        )
    ivan_lhs = kring_multiply(kring_multiply(a, b, ring), c, ring)
    ivan_rhs = kring_multiply(c, c, ring) + kring_multiply(b, b, ring) + 1
    report.add("cubic product relation holds", ring.equal(ivan_lhs, ivan_rhs), ms=watch.lap())
    regenerated = a * b * c - (c * c + b * b + 1)
    report.add(
        "cubic product relation regenerates the model relation",
        regenerated == star,
        witness=str(regenerated),
        ms=watch.lap(),
    )
    for name, ok in dictionary_rederivations().items():
        report.add(f"dictionary: {name}", ok, ms=watch.lap())

    K = KRing()
    for gen in (a, b, c):
        loc = K.abstract_to_localized(gen)
        back = K.localized_to_abstract(loc)
        report.add(
            f"presentation round-trip abstract->localized->abstract on {gen}",
            back == gen,
            witness=str(loc),
            ms=watch.lap(),
        )
        blow = K.abstract_to_blowup(gen)
        back2 = K.blowup_to_abstract(blow)
        report.add(
            f"presentation round-trip abstract->blowup->abstract on {gen}",
            back2 == gen,
            witness=str(blow),
            ms=watch.lap(),
        )
    y, z = LaurentPoly.gens("y z")
    report.add(
        "localized image of v(1)_1 is -i (y-y^-1)/(z-z^-1)",
        K.abstract_to_localized(c) == RingFraction(y - y**-1, z - z**-1) * gauss(0, -1),
        ms=watch.lap(),
    )
    for name, ok in K.localization_checks().items():
        report.add(f"localization: {name}", ok, ms=watch.lap())

    report.add("v(1)_0 lies in the even-m subring", subring_filter(a, "G"), ms=watch.lap())
    report.add("v(1)_1 does not lie in the even-m subring", not subring_filter(c, "G"), ms=watch.lap())
    report.add("v(2)_2 lies in both parity subrings", subring_filter(c * c, "both"), ms=watch.lap())
    gens_even_m = [a, b * b, c * c, b * c]
    report.add(
        "the even-m generator list is fixed by the parity involution",
        all(subring_filter(g, "G") for g in gens_even_m),
        ms=watch.lap(),
    )

    lhs_reading = fusion_table("odin", n=2, l=1).lhs_str()
    report.add(
        "fusion table reading: the general rules pair consecutive degree-one classes",
        lhs_reading == "q^-1 * v(3)_1 * v(1)_1",
        witness=f"left side read as {lhs_reading}",
        ms=watch.lap(),
    )
    sweep = consistency_sweep()
    for rec in sweep:
        if rec.status == "skipped-ambiguous":
            report.add_skipped(
                "fusion recurrences at n = 1 (boundary ambiguity)", rec.detail
            )
        else:
            report.add(
                f"fusion recurrences agree at q=1 (n={rec.n}, l={rec.l})",
                rec.status == "pass",
                witness=rec.detail,
                ms=watch.lap(),
            )
    t_simple = fusion_table("tri", a=1, b=0, l=3)
    report.add(
        "closed product formula, single factor",
        str(t_simple) == "v(4)_1",
        witness=str(t_simple),
        ms=watch.lap(),
    )
    t_pair = fusion_table("tri", a=1, b=1, l=2)
    report.add(
        "closed product formula, consecutive pair",
        str(t_pair) == "q^-2 * v(5)_2",
        witness=str(t_pair),
        ms=watch.lap(),
    )
    return report


def suite_homology(cfg: Config, corrupt: str | None = None) -> Report:
    report = Report("homology")
    watch = Stopwatch(cfg.timing)
    rel = None
    if corrupt == "homology":
        rel = corrupt_constant(parse_poly("xi^2 - delta*eta^2 - 1", vars=("delta", "xi", "eta")))
    ring = BMRing(rel)
    g = ring.grading_check()
    report.add(
        "grading: relation homogeneous of degree 0",
        g["homogeneous"],
        witness=str(g["degrees"]),
        ms=watch.lap(),
    )
    b = ring.basis_check(bound=3)
    report.add(
        f"module basis: {b['expected']} independent normal forms at bound 3",
        b["passed"],
        witness=f"count {b['count']}",
        ms=watch.lap(),
    )
    inv = bm_ring_ops("invariant_subalgebra", ring=ring)
    report.add(
        "even subalgebra generated by delta, xi^2, eta^2, xi*eta",
        inv["passed"],
        witness=str(inv["generators"]),
        ms=watch.lap(),
    )
    kernel = cz.model_kernel(cz.model("S-prime"))
    expected = [str(p) for p in kernel.groebner()]
    from .groebner import Ideal

    got = Ideal(kernel.ring, [ring.relation.with_vars(kernel.ring.vars)])
    report.add(
        "homology relation matches the hypersurface-model kernel",
        [str(p) for p in got.groebner()] == expected,
        witness="; ".join(expected),
        ms=watch.lap(),
    )
    return report


def _random_heisenberg(rng: random.Random, datum, max_terms=3) -> HeisenbergElement:
    e = HeisenbergElement(datum, {})
    for _ in range(rng.randint(1, max_terms)):
        e = e + HeisenbergElement.basis(
            datum,
            q_power=rng.randint(-2, 2),
            coweight=tuple(rng.randint(-2, 2) for _ in range(datum.rank)),
            weight=tuple(rng.randint(-2, 2) for _ in range(datum.rank)),
            coeff=gauss(rng.randint(-3, 3), rng.randint(-1, 1)),
        )
    return e


def suite_heisenberg(cfg: Config, corrupt: str | None = None) -> Report:
    report = Report("heisenberg")
    watch = Stopwatch(cfg.timing)
    datum = sl2()
    rng = random.Random(cfg.seed)

    ealpha = HeisenbergElement.basis(datum, weight=(2,))
    ealphach = HeisenbergElement.basis(datum, coweight=(1,))
    prod = ealpha * ealphach
    report.add(
        "central extension rule: e^alpha * e^alphach lands in q^2",
        prod == HeisenbergElement.basis(datum, q_power=2, coweight=(1,), weight=(2,)),
        witness=str(prod),
        ms=watch.lap(),
    )
    one = HeisenbergElement.one(datum)
    report.add("identity element is neutral", one * ealpha == ealpha, ms=watch.lap())
    rev = ealphach * ealpha
    report.add(
        "reversed order picks up no twist",
        rev == HeisenbergElement.basis(datum, coweight=(1,), weight=(2,)),
        witness=str(rev),
        ms=watch.lap(),
    )

    assoc_fail = 0
    for _ in range(100):
        x, y, z = (_random_heisenberg(rng, datum) for _ in range(3))
        if (x * y) * z != x * (y * z):
            assoc_fail += 1
    report.add("associativity on 100 random triples", assoc_fail == 0, ms=watch.lap())

    comm_fail = 0
    for _ in range(50):
        x, y = (_random_heisenberg(rng, datum) for _ in range(2))
        if not commutes_at_q1(x, y):
            comm_fail += 1
    report.add("every commutator vanishes at q = 1 (50 random pairs)", comm_fail == 0, ms=watch.lap())

    chart = torus_chart(datum, 1)
    match_fail = 0
    for _ in range(10):
        lam1, mu1 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
        lam2, mu2 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
        u = HeisenbergElement.basis(datum, coweight=lam1, weight=mu1)
        v = HeisenbergElement.basis(datum, coweight=lam2, weight=mu2)
        derived = poisson_from_q(u, v)
        expected = chart.bracket(torus_monomial(datum, lam1, mu1), torus_monomial(datum, lam2, mu2))
        if RingFraction(derived) != expected:
            match_fail += 1
    report.add(
        "q-deformation bracket equals the chart bracket (kappa=1, 10 monomial pairs)",
        match_fail == 0,
        ms=watch.lap(),
    )

    anti_ok = True
    u = _random_heisenberg(rng, datum)
    anti_ok = poisson_from_q(u, u).is_zero()
    report.add("q-deformation bracket is antisymmetric ({u,u} = 0)", anti_ok, ms=watch.lap())

    jacobi_fail = 0
    for _ in range(20):
        monos = [torus_monomial(datum, (rng.randint(-2, 2),), (rng.randint(-2, 2),)) for _ in range(3)]
        if not chart.jacobi_sum(*monos).is_zero():
            jacobi_fail += 1
    report.add("Jacobi identity on 20 random monomial triples", jacobi_fail == 0, ms=watch.lap())
    return report


def suite_steinberg(cfg: Config, corrupt: str | None = None) -> Report:
    report = Report("steinberg")
    watch = Stopwatch(cfg.timing)
    w = Substitution.parse({"t": "t^-1", "z": "z^-1"})
    action = GroupAction([w])
    gens = invariant_generators(action, laurent_vars=["t", "z"], degree_bound=2)
    got = {str(g) for g in gens}
    want = {"t + t^-1", "z + z^-1", "t*z + t^-1*z^-1", "t*z^-1 + t^-1*z"}
    report.add(
        "diagonal Weyl invariants of the double torus: the four orbit sums",
        got == want,
        witness=str(sorted(got)),
        ms=watch.lap(),
    )
    f = parse_poly("t*z^2 + 3 - t^-1*z")
    r1 = action.reynolds(f)
    report.add(
        "Reynolds operator is an idempotent projector",
        action.reynolds(r1) == r1 and action.is_invariant(r1),
        ms=watch.lap(),
    )
    z = LaurentPoly.var("z")
    failures = 0
    total = 0
    for length in range(0, 5):
        for exps in combinations_with_replacement(range(-3, 4), length):
            total += 1
            try:
                unit_comparison([z**e for e in exps])
            except AssertionError:
                failures += 1
    report.add(
        f"unit identity Delta_1 = Delta_2 * prod(-chi) for {total} character lists",
        failures == 0,
        witness=f"{failures} failures",
        ms=watch.lap(),
    )
    return report


_SUITE_FUNCS = {
    "blowup": suite_blowup,
    "centralizer": suite_centralizer,
    "kring": suite_kring,
    "homology": suite_homology,
    "heisenberg": suite_heisenberg,
    "steinberg": suite_steinberg,
}


def run_suite(name: str, cfg: Config, corrupt: str | None = None) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    if name != "all":
        return _SUITE_FUNCS[name](cfg, corrupt)
    combined = Report("all")
    for sub in SUITES[1:]:
        part = _SUITE_FUNCS[sub](cfg, corrupt)
        for check in part.checks:
            check.name = f"{sub}: {check.name}"
        combined.extend(part)
    return combined
