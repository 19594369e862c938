"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is exact: identities are zero remainders, basis comparisons
are reduced-Gröbner equalities, and randomized property checks use fixed
seeds so reruns are bit-identical.
"""

import json
import random

from blowring.blowup import FLAVORS, unit_comparison
from blowring.centralizer import (
    MODEL_NAMES,
    blowup_match,
    commutant_basis,
    isogeny_invariants,
    kernel_matches_relation,
    kostant_slice,
    model,
    model_kernel,
    closed_form_commutant_family,
    declared,
    is_commutant_basis,
)
from blowring.fractions import RingFraction
from blowring.fusion import consistency_sweep, fusion_table
from blowring.heisenberg import HeisenbergElement, commutes_at_q1, poisson_from_q, torus_monomial
from blowring.homology import basis_check, weight_of
from blowring.kring import v_dictionary
from blowring.poisson import bracket_closure_check, torus_chart
from blowring.poly import LaurentPoly, parse_poly
from blowring.actions import GroupAction, Substitution, invariant_generators

from conftest import FAILED_UNDER

PASSED = []


def verdict(number: int, description: str, ok: bool):
    line = f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    print(line)
    assert ok, line


def test_criterion_01_hypersurface_identities():
    m_s = model("S")
    lhs = m_s.parametrization(parse_poly("a*b*c - b^2 - c^2"))
    ok_s = lhs == RingFraction(LaurentPoly.const(1))
    m_p = model("S-prime")
    ok_p = m_p.parametrization(parse_poly("xi^2 - delta*eta^2")) == RingFraction(
        LaurentPoly.const(1)
    )
    verdict(1, "diagonalization substitutions reproduce both hypersurface relations exactly", ok_s and ok_p)


def test_criterion_02_implicitization():
    ok = all(kernel_matches_relation(m, model_kernel(m)) for m in map(model, MODEL_NAMES))
    s_gb = [str(g) for g in model_kernel(model("S")).groebner()]
    ok = ok and s_gb == ["a*b*c - b^2 - c^2 - 1"]
    ok = ok and not model_kernel(model("A2-Gg")).groebner()
    ok = ok and not model_kernel(model("A2-gg")).groebner()
    verdict(2, "kernels are exactly the model relations (reduced bases compared)", ok)


def test_criterion_03_commutants():
    ok = True
    for flavor in ("group", "lie"):
        M = kostant_slice(flavor)
        for constraint in ("none", "traceless"):
            basis = commutant_basis(M, constraint)
            ok = ok and all(b.commutator(M).is_zero() for b in basis)
            ok = ok and is_commutant_basis(closed_form_commutant_family(flavor, constraint), M, constraint)
    verdict(3, "commutant computations reproduce the closed-form families, [X,M] = 0", ok)


def test_criterion_04_blowup_coincidence(blowups):
    ok = True
    for name in MODEL_NAMES:
        m = model(name)
        report = blowup_match(m, blowups[m.blowup_flavor], degree_bound=4)
        ok = ok and report.passed
    verdict(4, "two-sided blow-up identification passes for all four models at degree bound 4", ok)


def test_criterion_05_kring_relations():
    row = declared("S")
    ring = row.coordinate_ring()
    a, b, c = (parse_poly(s, vars=("a", "b", "c")) for s in "abc")
    ok = ring.equal(c * v_dictionary(-1, 1), v_dictionary(0, 2) + 1)
    ok = ok and ring.equal(a * b, v_dictionary(1, 1) + v_dictionary(-1, 1))
    for n in (0, 1):
        vn1 = v_dictionary(n, 1)
        ok = ok and ring.equal(vn1 * vn1, v_dictionary(2 * n, 2))
    ok = ok and ring.equal(a * b * c, c * c + b * b + 1)
    regenerated = a * b * c - (c * c + b * b + 1)
    ok = ok and regenerated == row.relation
    verdict(5, "basis-class products hold and the triple product regenerates the relation", ok)


def test_criterion_06_involutions_and_isogenies():
    ok = True
    for name in ("S", "S-prime"):
        m = model(name)
        ring = m.coordinate_ring()
        ok = ok and all(ring.nf(s(m.relation)).is_zero() for s in m.involutions.values())
    ok = ok and {str(g) for g in isogeny_invariants(model("S"), ["jmath"])} == {
        "b", "a^2", "c^2", "a*c",
    }
    ok = ok and {str(g) for g in isogeny_invariants(model("S"), ["iota"])} == {
        "a", "b^2", "c^2", "b*c",
    }
    ok = ok and {str(g) for g in isogeny_invariants(model("S-prime"), ["iota"])} == {
        "delta", "xi^2", "eta^2", "xi*eta",
    }
    verdict(6, "involutions preserve relations; invariant subrings match the derived lists", ok)


def test_criterion_07_heisenberg_poisson():
    rng = random.Random(0)

    def rand_elt():
        e = HeisenbergElement(LaurentPoly.zero())
        for _ in range(rng.randint(1, 3)):
            e = e + HeisenbergElement.basis(
                q_power=rng.randint(-2, 2),
                coweight=(rng.randint(-2, 2),),
                weight=(rng.randint(-2, 2),),
                coeff=rng.randint(1, 5),
            )
        return e

    ok = True
    for _ in range(100):
        u, v, w = rand_elt(), rand_elt(), rand_elt()
        ok = ok and (u * v) * w == u * (v * w)
        ok = ok and commutes_at_q1(u, v)
    chart = torus_chart()
    for _ in range(10):
        lam1, mu1 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
        lam2, mu2 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
        u = HeisenbergElement.basis(coweight=lam1, weight=mu1)
        v = HeisenbergElement.basis(coweight=lam2, weight=mu2)
        ok = ok and RingFraction.of(poisson_from_q(u, v)) == chart.bracket(
            torus_monomial(lam1, mu1), torus_monomial(lam2, mu2)
        )
    for _ in range(20):
        monos = [
            torus_monomial((rng.randint(-2, 2),), (rng.randint(-2, 2),)) for _ in range(3)
        ]
        ok = ok and chart.jacobi_sum(*monos).is_zero()
    verdict(
        7,
        "q-algebra associative; commutators vanish at q=1; bracket matches chart; Jacobi holds",
        ok,
    )


def test_criterion_08_poisson_closure(blowups):
    ok = True
    for flavor in FLAVORS:
        report = bracket_closure_check(blowups[flavor])
        ok = ok and report.passed
    verdict(8, "all generator-pair brackets are members and Jacobi sums vanish, five flavors", ok)


def test_criterion_09_steinberg():
    w = Substitution.parse({"t": "t^-1", "z": "z^-1"})
    gens = invariant_generators(GroupAction([w]), laurent_vars=["t", "z"])
    ok = {str(g) for g in gens} == {
        "t + t^-1", "z + z^-1", "t*z + t^-1*z^-1", "t*z^-1 + t^-1*z",
    }
    from itertools import combinations_with_replacement

    z = LaurentPoly.var("z")
    count = 0
    for length in range(0, 5):
        for exps in combinations_with_replacement(range(-3, 4), length):
            unit_comparison([z**e for e in exps])  # raises on failure
            count += 1
    verdict(9, f"double-torus invariants are the four orbit sums; unit identity on {count} lists", ok)


def test_criterion_10_homology_ring():
    row = declared("S-prime")
    b = basis_check(row.relation, bound=3)
    inv = {str(x) for x in isogeny_invariants(row)}
    ok = weight_of(row.relation) == 0 and b["passed"] and b["count"] == 32
    ok = ok and inv == {"delta", "xi^2", "eta^2", "xi*eta"}
    verdict(10, "grading homogeneous; 32 independent normal forms; subalgebra generators", ok)


def test_criterion_11_fusion_table():
    one = fusion_table("tri", a=1, b=0, l=4)
    pair = fusion_table("tri", a=1, b=1, l=2)
    ok = str(one) == "v(5)_1" and str(pair) == "q^-2 * v(5)_2"
    records = consistency_sweep()
    ok = ok and all(r.status == "pass" for r in records if r.status != "skipped-ambiguous")
    ok = ok and any(r.status == "skipped-ambiguous" for r in records)
    ok = ok and fusion_table("odin", n=1, l=1).ambiguous
    verdict(11, "closed-formula specializations match; sweep passes; n=1 reported ambiguous", ok)


def test_criterion_12_negative_controls(capsys):
    from blowring.cli import EXIT_FAIL, main
    from blowring.verify import CONTROLS

    assert sorted(CONTROLS) == sorted(FAILED_UNDER)
    missed = []
    for control, (suite, _) in sorted(CONTROLS.items()):
        code = main(["verify", suite, "--corrupt", control, "--output", "json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        if code != EXIT_FAIL or [c["name"] for c in checks if c["status"] == "fail"] != FAILED_UNDER[control]:
            missed.append(control)
    failed = sum(map(len, FAILED_UNDER.values()))
    with capsys.disabled():
        verdict(
            12,
            f"each of the {len(CONTROLS)} controls makes its suite exit 1 and fails exactly its pinned records"
            f" ({failed} in all)"
            + (f"; missed: {', '.join(missed)}" if missed else ""),
            not missed,
        )
