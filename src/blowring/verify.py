"""Verification suites: every machine-checkable identity behind the library.

Each suite returns a Report with one record per check. A check is a name and
a thunk passed to ``Report.check``, which runs the thunk at once; with timing
on, a record's ``ms`` covers that thunk's own work only. Set-up that several
checks share (blow-ups, bracket closures, the K-ring) runs in the suite body
and is charged to no check.

``run_suite`` hands every suite one memoized blow-up builder, so a run builds
each flavor once, whichever suites ask for it. The subalgebra oracles hang off
the blow-up's ring, which builds each of them once too: the ``S <-> GG``
identification and the K-ring share one. The builder lives for one
``run_suite`` call.

``CONTROLS`` declares the negative controls. Each names its suite and a
perturbation of one model datum (a model's relation plus one, a slice entry or
a blow-up's defining relation plus one), which the suite reads through
``read(control, datum)``: the kring and homology suites read the declared S and
S-prime rows, the centralizer suite each model. It is perturbed in a run of
that control, unchanged otherwise. A perturbed blow-up is a new object, so
only its read site sees it. Controlled runs must fail.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import cache, partial
from itertools import combinations_with_replacement
from typing import Callable

from . import centralizer as cz
from .actions import GroupAction, Substitution, invariant_generators
from .blowup import (
    FLAVORS,
    BlowupAlgebra,
    build_blowup,
    denis_check,
    discriminant,
    membership,
    unit_comparison,
)
from .fractions import RingFraction
from .fusion import consistency_sweep, fusion_table
from .heisenberg import HeisenbergElement, commutes_at_q1, poisson_from_q, torus_monomial
from .homology import GRADING, basis_check, weight_of
from .kring import KRing, dictionary_rederivations, subring_filter, v_dictionary
from .poisson import bracket_closure_check, torus_chart
from .poly import LaurentPoly, parse_poly
from .reports import Config, Report, UsageError
from .rings import PresentedRing
from .rootdata import sl2
from .scalars import gauss

SUITES = ("all", "blowup", "centralizer", "kring", "homology", "heisenberg", "steinberg")


def _defining_relation(B: BlowupAlgebra) -> LaurentPoly:
    (tname,) = B.gen_names
    return LaurentPoly.var(tname) * B.walls[0] - B.numerators[0]


def _shift_defining_relation(B: BlowupAlgebra) -> BlowupAlgebra:
    """B on the ring presented by its defining relation plus one."""
    return replace(B, ring=PresentedRing(B.ring.laurent_vars, B.ring.poly_vars, [_defining_relation(B) + 1]))


# control -> (its suite, the perturbation of the datum the suite reads under that name)
CONTROLS: dict[str, tuple[str, Callable]] = {
    **{
        control: (control.partition(":")[0], lambda m: replace(m, relation=m.relation + 1))
        for control in ("kring", "homology", "centralizer:S", "centralizer:S-prime")
    },
    "centralizer:slice": ("centralizer", lambda M: M + cz.ParametricMatrix([[0, 1], [0, 0]])),
    **{f"blowup:{flavor}": ("blowup", _shift_defining_relation) for flavor in FLAVORS},
}


def suite_blowup(cfg: Config, read: Callable, blowup: Callable[[str], BlowupAlgebra]) -> Report:
    datum = sl2()
    report = Report("blowup", cfg.timing)
    for flavor in FLAVORS:
        B = read(f"blowup:{flavor}", blowup(flavor))
        rel = _defining_relation(B)
        report.check(f"{flavor}: defining relation reduces to zero", lambda: B.ring.nf(rel).is_zero())

        def wall_ratio():
            res = membership(RingFraction(B.numerators[0], B.walls[0]), B)
            return res.member, str(res.certificate)

        report.check(f"{flavor}: wall-ratio generator is a member", wall_ratio)
        closure = bracket_closure_check(B)
        for p in closure.pairs:
            report.check(
                f"{flavor}: bracket closure {{{p.f}, {p.g}}}",
                lambda: (p.member, f"bracket {p.bracket}; certificate {p.certificate}"),
            )
        report.check(
            f"{flavor}: Jacobi sums vanish on generator triples", lambda: all(j.zero for j in closure.jacobi)
        )

        def w_invariant():
            disc = discriminant(datum, flavor)
            return all(s(disc) == disc for s in B.weyl.generators)

        report.check(f"{flavor}: discriminant is W-invariant", w_invariant)

    B = read("blowup:GG", blowup("GG"))
    y, z = LaurentPoly.gens("y z")

    def certificate_is_T():
        m = membership(RingFraction(y**2 - 1, z**2 - 1), B)
        return m.member and m.certificate == LaurentPoly.var("T"), str(m.certificate)

    def certificate_verifies():
        m = membership(RingFraction(y - y**-1, z - z**-1), B)
        valid = m.member and B.ring.equal(y - y**-1, (z - z**-1) * m.certificate)
        return valid, str(m.certificate)

    report.check("GG: (y^2-1)/(z^2-1) member with certificate T", certificate_is_T)
    report.check("GG: (y-y^-1)/(z-z^-1) member, certificate verifies", certificate_verifies)
    report.check(
        "GG: 1/(z^2-1) is not a member",
        lambda: not membership(RingFraction(LaurentPoly.const(1), z**2 - 1), B).member,
    )
    report.check("Denis condition: z^2 passes", lambda: denis_check(parse_poly("z^2"), datum, "GGv"))
    report.check("Denis condition: z fails", lambda: not denis_check(parse_poly("z"), datum, "GGv"))
    report.check("Denis condition: 2*z^2 fails", lambda: not denis_check(parse_poly("2*z^2"), datum, "GGv"))
    return report


def suite_centralizer(cfg: Config, read: Callable, blowup: Callable[[str], BlowupAlgebra]) -> Report:
    report = Report("centralizer", cfg.timing)
    slices = {flavor: read("centralizer:slice", cz.kostant_slice(flavor)) for flavor in ("group", "lie")}
    for flavor, M in slices.items():
        for constraint in ("none", "traceless"):

            def commutant():
                basis = cz.commutant_basis(M, constraint)
                family = cz.closed_form_commutant_family(flavor, constraint)
                return cz.is_commutant_basis(family, M, constraint), str(basis)

            report.check(
                f"commutant {flavor}/{constraint}: solves [X,M]=0 and spans the closed-form family", commutant
            )

    def det_is(flavor, want):
        det = cz.general_commutant_element(flavor, slices[flavor]).det()
        return det == parse_poly(want), str(det)

    report.check(
        "det of general group commutant rewrites the cubic relation",
        lambda: det_is("group", "a*b*c - b^2 - c^2"),
    )
    report.check(
        "det of general Lie commutant is xi^2 - delta*eta^2",
        lambda: det_is("lie", "xi^2 - delta*eta^2"),
    )
    for name in cz.MODEL_NAMES:
        m = read(f"centralizer:{name}", cz.model(name, blowup))
        report.check(
            f"{name}: parametrization satisfies the relation, involutions preserve it",
            lambda: cz.verify_parametrization(m),
        )

        def kernel_is_relation():
            kernel = cz.model_kernel(m)
            return cz.kernel_matches_relation(m, kernel), "; ".join(str(g) for g in kernel.groebner()) or "0"

        report.check(f"{name}: implicitization kernel equals the model relation", kernel_is_relation)

        def identification():
            match = cz.blowup_match(m, m.blowup)
            return match.passed, str(match.certificates)

        report.check(
            f"{name} <-> {m.blowup_flavor}: two-sided blow-up identification (bound {cz.MATCH_BOX_HEIGHT})",
            identification,
        )
    expected = {
        ("S", ("jmath",)): {"b", "a^2", "c^2", "a*c"},
        ("S-prime", ("iota",)): {"delta", "xi^2", "eta^2", "xi*eta"},
        ("S", ("iota", "jmath")): {"a^2", "b^2", "c^2", "a*b*c"},
    }
    for (name, which), want in expected.items():

        def invariants():
            got = {str(g) for g in cz.isogeny_invariants(cz.declared(name), which)}
            return got == want, str(sorted(got))

        report.check(f"{name}: invariants under {'+'.join(which)} are {sorted(want)}", invariants)
    return report


def suite_kring(cfg: Config, read: Callable, blowup: Callable[[str], BlowupAlgebra]) -> Report:
    report = Report("kring", cfg.timing)
    row = read("kring", cz.declared("S"))
    ring = row.coordinate_ring()
    a, b, c = (parse_poly(s, vars=("a", "b", "c")) for s in "abc")

    def product_with_unit():
        prod = ring.nf(c * v_dictionary(-1, 1))
        return ring.equal(prod, v_dictionary(0, 2) + 1), str(prod)

    report.check("v(1)_1 * v(-1)_1 = v(0)_2 + 1", product_with_unit)
    report.check(
        "v(1)_0 * v(0)_1 = v(1)_1 + v(-1)_1",
        lambda: ring.equal(a * b, v_dictionary(1, 1) + v_dictionary(-1, 1)),
    )
    for n in (0, 1):
        vn1 = v_dictionary(n, 1)
        report.check(
            f"v({n})_1 * v({n})_1 = v({2*n})_2",
            lambda: ring.equal(vn1 * vn1, v_dictionary(2 * n, 2)),
        )
    report.check("cubic product relation holds", lambda: ring.equal(a * b * c, c * c + b * b + 1))

    def regenerates():
        regenerated = a * b * c - (c * c + b * b + 1)
        return regenerated == row.relation, str(regenerated)

    report.check("cubic product relation regenerates the model relation", regenerates)
    for name, thunk in dictionary_rederivations().items():
        report.check(f"dictionary: {name}", thunk)

    K = KRing(blowup("GG"))

    def round_trip(gen, there, back):
        image = there(gen)
        return back(image) == gen, str(image)

    for gen in (a, b, c):
        report.check(
            f"presentation round-trip abstract->localized->abstract on {gen}",
            lambda: round_trip(gen, K.abstract_to_localized, K.localized_to_abstract),
        )
        report.check(
            f"presentation round-trip abstract->blowup->abstract on {gen}",
            lambda: round_trip(gen, K.abstract_to_blowup, K.blowup_to_abstract),
        )
    y, z = LaurentPoly.gens("y z")
    report.check(
        "localized image of v(1)_1 is -i (y-y^-1)/(z-z^-1)",
        lambda: K.abstract_to_localized(c) == RingFraction(y - y**-1, z - z**-1) * gauss(0, -1),
    )
    for name, thunk in K.localization_checks().items():
        report.check(f"localization: {name}", thunk)

    report.check("v(1)_0 lies in the even-m subring", lambda: subring_filter(a, "G"))
    report.check("v(1)_1 does not lie in the even-m subring", lambda: not subring_filter(c, "G"))
    report.check("v(2)_2 lies in both parity subrings", lambda: subring_filter(c * c, "both"))
    report.check(
        "the even-m generator list is fixed by the parity involution",
        lambda: all(subring_filter(g, "G") for g in [a, b * b, c * c, b * c]),
    )

    def fusion_reading():
        lhs = fusion_table("odin", n=2, l=1).lhs_str()
        return lhs == "q^-1 * v(3)_1 * v(1)_1", f"left side read as {lhs}"

    report.check(
        "fusion table reading: the general rules pair consecutive degree-one classes", fusion_reading
    )
    for rec in consistency_sweep():
        if rec.status == "skipped-ambiguous":
            report.add_skipped("fusion recurrences at n = 1 (boundary ambiguity)", rec.detail)
        else:
            report.check(
                f"fusion recurrences agree at q=1 (n={rec.n}, l={rec.l})",
                lambda: (rec.status == "pass", rec.detail),
            )

    def closed_form(want, **params):
        got = str(fusion_table("tri", **params))
        return got == want, got

    report.check("closed product formula, single factor", lambda: closed_form("v(4)_1", a=1, b=0, l=3))
    report.check(
        "closed product formula, consecutive pair", lambda: closed_form("q^-2 * v(5)_2", a=1, b=1, l=2)
    )
    return report


def suite_homology(cfg: Config, read: Callable, blowup: Callable[[str], BlowupAlgebra]) -> Report:
    report = Report("homology", cfg.timing)
    row = read("homology", cz.declared("S-prime"))
    bound = 3

    def module_basis():
        b = basis_check(row.relation, bound)
        return b["passed"], f"count {b['count']}"

    def even_subalgebra():
        got = {str(g) for g in cz.isogeny_invariants(row)}
        return got == {"delta", "xi^2", "eta^2", "xi*eta"}, str(sorted(got))

    def matches_model():
        kernel = cz.model_kernel(cz.model("S-prime", blowup))
        return cz.kernel_matches_relation(row, kernel), "; ".join(str(p) for p in kernel.groebner())

    report.check("grading: relation homogeneous of degree 0", lambda: (weight_of(row.relation) == 0, str(GRADING)))
    report.check(
        f"module basis: {2 * (bound + 1) ** 2} independent normal forms at bound {bound}", module_basis
    )
    report.check("even subalgebra generated by delta, xi^2, eta^2, xi*eta", even_subalgebra)
    report.check("homology relation matches the hypersurface-model kernel", matches_model)
    return report


def _random_heisenberg(rng: random.Random, max_terms=3) -> HeisenbergElement:
    e = HeisenbergElement(LaurentPoly.zero())
    for _ in range(rng.randint(1, max_terms)):
        e = e + HeisenbergElement.basis(
            q_power=rng.randint(-2, 2),
            coweight=(rng.randint(-2, 2),),
            weight=(rng.randint(-2, 2),),
            coeff=gauss(rng.randint(-3, 3), rng.randint(-1, 1)),
        )
    return e


def suite_heisenberg(cfg: Config, read: Callable, blowup: Callable[[str], BlowupAlgebra]) -> Report:
    report = Report("heisenberg", cfg.timing)
    rng = random.Random(cfg.seed)

    def draws(count, size):
        return [[_random_heisenberg(rng) for _ in range(size)] for _ in range(count)]

    def monomial_exponents(bound):
        return (rng.randint(-bound, bound),), (rng.randint(-bound, bound),)

    ealpha = HeisenbergElement.basis(weight=(2,))
    ealphach = HeisenbergElement.basis(coweight=(1,))

    def central_extension():
        prod = ealpha * ealphach
        return prod == HeisenbergElement.basis(q_power=2, coweight=(1,), weight=(2,)), str(prod)

    def reversed_order():
        rev = ealphach * ealpha
        return rev == HeisenbergElement.basis(coweight=(1,), weight=(2,)), str(rev)

    chart = torus_chart()

    def chart_bracket():
        pairs = [(monomial_exponents(3), monomial_exponents(3)) for _ in range(10)]

        def agrees(u, v):
            derived = poisson_from_q(
                HeisenbergElement.basis(coweight=u[0], weight=u[1]),
                HeisenbergElement.basis(coweight=v[0], weight=v[1]),
            )
            expected = chart.bracket(torus_monomial(*u), torus_monomial(*v))
            return RingFraction(derived) == expected

        return all(agrees(u, v) for u, v in pairs)

    def antisymmetric():
        u = _random_heisenberg(rng)
        return poisson_from_q(u, u).is_zero()

    def jacobi():
        triples = [[torus_monomial(*monomial_exponents(2)) for _ in range(3)] for _ in range(20)]
        return all(chart.jacobi_sum(*monos).is_zero() for monos in triples)

    report.check("central extension rule: e^alpha * e^alphach lands in q^2", central_extension)
    report.check("identity element is neutral", lambda: HeisenbergElement.one() * ealpha == ealpha)
    report.check("reversed order picks up no twist", reversed_order)
    report.check(
        "associativity on 100 random triples",
        lambda: all((x * y) * z == x * (y * z) for x, y, z in draws(100, 3)),
    )
    report.check(
        "every commutator vanishes at q = 1 (50 random pairs)",
        lambda: all(commutes_at_q1(x, y) for x, y in draws(50, 2)),
    )
    report.check("q-deformation bracket equals the chart bracket (kappa=1, 10 monomial pairs)", chart_bracket)
    report.check("q-deformation bracket is antisymmetric ({u,u} = 0)", antisymmetric)
    report.check("Jacobi identity on 20 random monomial triples", jacobi)
    return report


def suite_steinberg(cfg: Config, read: Callable, blowup: Callable[[str], BlowupAlgebra]) -> Report:
    report = Report("steinberg", cfg.timing)
    action = GroupAction([Substitution.parse({"t": "t^-1", "z": "z^-1"})])
    z = LaurentPoly.var("z")
    char_lists = [exps for length in range(5) for exps in combinations_with_replacement(range(-3, 4), length)]

    def orbit_sums():
        got = {str(g) for g in invariant_generators(action, laurent_vars=["t", "z"])}
        return got == {"t + t^-1", "z + z^-1", "t*z + t^-1*z^-1", "t*z^-1 + t^-1*z"}, str(sorted(got))

    def reynolds_projects():
        r1 = action.reynolds(parse_poly("t*z^2 + 3 - t^-1*z"))
        return action.reynolds(r1) == r1 and action.is_invariant(r1)

    def unit_identity():
        failures = 0
        for exps in char_lists:
            try:
                unit_comparison([z**e for e in exps])
            except AssertionError:
                failures += 1
        return failures == 0, f"{failures} failures"

    report.check("diagonal Weyl invariants of the double torus: the four orbit sums", orbit_sums)
    report.check("Reynolds operator is an idempotent projector", reynolds_projects)
    report.check(
        f"unit identity Delta_1 = Delta_2 * prod(-chi) for {len(char_lists)} character lists", unit_identity
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
    """Run suite ``name``, or every suite for ``all``, under the control ``corrupt``."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; expected one of {SUITES}")
    if corrupt is not None and (corrupt not in CONTROLS or name not in (CONTROLS[corrupt][0], "all")):
        raise UsageError(
            f"corruption target {corrupt!r} is not in suite {name!r}; expected one of {sorted(CONTROLS)}"
        )
    blowup = cache(partial(build_blowup, sl2()))

    def read(control, datum):
        return CONTROLS[control][1](datum) if control == corrupt else datum

    if name != "all":
        return _SUITE_FUNCS[name](cfg, read, blowup)
    combined = Report("all")
    for sub in SUITES[1:]:
        part = _SUITE_FUNCS[sub](cfg, read, blowup)
        for check in part.checks:
            check.name = f"{sub}: {check.name}"
        combined.extend(part)
    return combined
