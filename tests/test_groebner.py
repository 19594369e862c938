import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from blowring import groebner
from blowring.blowup import FLAVORS
from blowring.groebner import (
    BlockOrder,
    Elimination,
    GrevLex,
    Ideal,
    PolyRing,
    ResourceLimitError,
    buchberger,
    laurent_exact_divide,
    normal_form,
    term_budget,
)
from blowring.poly import LaurentPoly, parse_poly
from blowring.rings import PresentedRing
from blowring.scalars import gauss

from conftest import random_gaussian


def ideal(var_names, gen_texts, order=None):
    ring = PolyRing(tuple(var_names), order)
    return Ideal(ring, [parse_poly(t).with_vars(ring.vars) for t in gen_texts])


class TestGroebnerBasics:
    def test_principal_monomial_ideal(self):
        I = ideal(("x",), ["x"])
        assert [str(g) for g in I.groebner()] == ["x"]

    def test_unit_pair_collapse(self):
        # <y y' - 1, y - 1>: y' = 1 in the quotient
        I = ideal(("y", "y'"), ["y*y' - 1", "y - 1"])
        assert [str(g) for g in I.groebner()] == ["y' - 1", "y - 1"]

    def test_hypersurface_already_reduced(self):
        I = ideal(("delta", "xi", "eta"), ["xi^2 - delta*eta^2 - 1"])
        gb = I.groebner()
        assert len(gb) == 1
        # grevlex monic form; same principal ideal either way
        assert str(gb[0]) == "delta*eta^2 - xi^2 + 1"
        # an order with xi leading keeps the relation monic in xi^2
        order = BlockOrder([(1,), (0, 2)])
        J = ideal(("delta", "xi", "eta"), ["xi^2 - delta*eta^2 - 1"], order)
        (g,) = J.groebner()
        assert g == parse_poly("xi^2 - delta*eta^2 - 1")

    def test_generators_reduce_to_zero(self):
        I = ideal(("a", "b", "c"), ["a*b*c - b^2 - c^2 - 1", "a^2 - b*c"])
        for g in I.gens:
            assert I.normal_form(g).is_zero()

    def test_normal_form_idempotent(self):
        I = ideal(("a", "b", "c"), ["a*b*c - b^2 - c^2 - 1"])
        f = parse_poly("a^2*b*c + a*b - 3").with_vars(I.ring.vars)
        r = I.normal_form(f)
        assert I.normal_form(r) == r

    def test_normal_form_examples(self):
        order = BlockOrder([(1,), (0, 2)])  # xi^2 leads
        I = ideal(("delta", "xi", "eta"), ["xi^2 - delta*eta^2 - 1"], order)
        assert str(I.normal_form(parse_poly("xi^2").with_vars(I.ring.vars))) == "delta*eta^2 + 1"
        star = ideal(("a", "b", "c"), ["a*b*c - b^2 - c^2 - 1"])
        assert str(star.normal_form(parse_poly("a*b*c").with_vars(star.ring.vars))) == "b^2 + c^2 + 1"


class TestElimination:
    def test_free_element_has_no_relation(self):
        # a = z + z^-1 is algebraically free
        I = ideal(("z", "z'", "a"), ["a - z - z'", "z*z' - 1"])
        assert not I.eliminate(["a"]).groebner()

    def test_free_element_oracle(self):
        """Independent oracle: no polynomial P(a) of degree <= 4 vanishes on z+1/z.

        Solve for coefficients of P interpolating 0 at many sample points;
        exact linear algebra must force P = 0.
        """
        rng = random.Random(11)
        samples = []
        while len(samples) < 9:
            zv = random_gaussian(rng)
            if zv:
                samples.append(zv + zv.inverse())
        degree = 4
        rows = [[a**k for k in range(degree + 1)] for a in samples]
        # Gaussian elimination over Q(i): rank must be degree+1 (only P=0 works)
        rank = 0
        width = degree + 1
        m = [row[:] for row in rows]
        for col in range(width):
            piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = m[rank][col].inverse()
            m[rank] = [e * inv for e in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][col]:
                    f = m[r][col]
                    m[r] = [e - f * p for e, p in zip(m[r], m[rank])]
            rank += 1
        assert rank == width

    def test_substitution_ideal(self):
        I = ideal(("x", "delta", "t"), ["delta - x^2", "t - x"])
        E = I.eliminate(["delta", "t"])
        expected = ideal(("delta", "t"), ["delta - t^2"])
        assert [str(g) for g in E.groebner()] == [str(g) for g in expected.groebner()]

    @pytest.mark.parametrize(
        "vars, gens, keep, expected",
        [
            # hand-computable substitution ideals
            (("x", "u", "v"), ["u - x^2", "v - x^3"], ("u", "v"), ["u^3 - v^2"]),
            (("x", "y", "s", "p"), ["s - x - y", "p - x*y", "y^2 - 1"], ("s",), []),
            (("x", "a", "b"), ["a - x - 1", "b - x + 1"], ("a", "b"), ["a - b - 2"]),
            (("x", "y", "u"), ["u - x*y", "y - x"], ("u",), []),
            (("t", "c", "s"), ["c - t^2 - 1", "s - t^2 + 1"], ("c", "s"), ["c - s - 2"]),
        ],
    )
    def test_elimination_library(self, vars, gens, keep, expected):
        I = ideal(vars, gens)
        E = I.eliminate(keep)
        got = [str(g) for g in E.groebner()]
        if expected:
            want = ideal(keep, expected)
            assert got == [str(g) for g in want.groebner()]
        else:
            assert got == []


class TestEliminationPrimitive:
    def test_name_kept_and_eliminated_rejected(self):
        # a tag equal to an ambient variable would claim y in k[x^2]
        x = LaurentPoly.var("x")
        ring = PresentedRing((), ("x", "y"))
        with pytest.raises(ValueError):
            ring.subalgebra_oracle([x**2], ["y"])

    def test_auxiliary_names_are_fresh(self):
        w0 = LaurentPoly.var("_w0")
        E = Elimination((), ("_w0",), [], [w0 + 1])
        assert E.aux == ("_w1",)
        assert E.certificate(w0 * LaurentPoly.var("_w1")) is None
        assert not E.kept().groebner()

    @pytest.mark.parametrize("power", [1, 2])
    def test_divide_certificate_remultiplies(self, power):
        # a ring variable may carry any name an auxiliary inverse could have had
        ring = PresentedRing(("x",), ("_inv0", "_w0"))
        x, u, w = LaurentPoly.gens("x _inv0 _w0")
        den = x - 1
        num = (u + w) * (x**2 - 1) ** power
        cert = ring.divide(num, den, power)
        assert cert is not None
        assert ring.nf(num - den**power * cert).is_zero()
        assert ring.divide(u, den) is None


class TestSaturation:
    def test_textbook_saturation(self):
        I = ideal(("x", "t"), ["x*t"])
        S = I.saturate(parse_poly("x").with_vars(I.ring.vars))
        assert [str(g) for g in S.groebner()] == ["t"]

    def test_saturation_by_unit(self):
        I = ideal(("x", "t"), ["x*t - 1"])
        S = I.saturate(LaurentPoly.const(1, I.ring.vars))
        assert [str(g) for g in S.groebner()] == [str(g) for g in I.groebner()]

    def test_saturation_keeps_a_non_grevlex_order(self):
        # the elimination leaves a grevlex basis; under y > (x, t) the basis differs
        I = ideal(("x", "y", "t"), ["x*y - x*t^2", "x*y*t - x"], BlockOrder([[1], [0, 2]]))
        S = I.saturate(parse_poly("x").with_vars(I.ring.vars))
        assert S.ring is I.ring
        assert [str(g) for g in S.groebner()] == ["t^3 - 1", "-t^2 + y"]
        assert S.groebner() == buchberger(S.gens, S.ring)
        assert len(Ideal(PolyRing(I.ring.vars), S.gens).groebner()) == 3

    def test_blowup_saturation_oracle(self, blowups):
        """The saturated GG quotient agrees with ten hand-checked memberships.

        Hand reasoning: on the wall z^2 = 1 the relation forces y^2 = 1 with
        the generator free, so a fraction num/(z^2-1)^k is regular iff num
        vanishes to order k against that locus.
        """
        from blowring.blowup import membership
        from blowring.fractions import RingFraction

        y, z = LaurentPoly.gens("y z")
        B = blowups["GG"]
        hand_checked = [
            (RingFraction(y**2 - 1, z**2 - 1), True),
            (RingFraction(y - y**-1, z - z**-1), True),
            (RingFraction(LaurentPoly.const(1), z**2 - 1), False),
            (RingFraction((y**2 - 1) ** 2, z**2 - 1), True),
            (RingFraction(y**2 - 1, (z**2 - 1) ** 2), False),
            (RingFraction((y**2 - 1) ** 2, (z**2 - 1) ** 2), True),
            (RingFraction(y**4 - 1, z**2 - 1), True),
            (RingFraction(z**2 - 1, z**2 - 1), True),
            (RingFraction(y**-2 * (y**2 - 1), z**2 - 1), True),
            (RingFraction(y**2 - y, z**2 - 1), False),
        ]
        for frac, expected in hand_checked:
            res = membership(frac, B)
            assert res.member is expected, str(frac)
            if expected:
                diff = B.ring.nf(frac.num - frac.den * res.certificate)
                assert diff.is_zero(), str(frac)


class TestLaurentSupport:
    def test_laurent_normal_form_round_trips(self):
        f = parse_poly("y^-2 + 3*y*z^-1")
        assert PresentedRing(("y", "z"), ()).nf(f) == f
        with pytest.raises(ValueError, match="non-invertible"):
            PresentedRing((), ("x",)).nf(parse_poly("x^-1"))
        with pytest.raises(ValueError, match="not in target list"):
            PresentedRing(("y",), ()).nf(parse_poly("q"))

    def test_exact_division(self):
        y, z = LaurentPoly.gens("y z")
        q = laurent_exact_divide(y**2 - y**-2, y - y**-1)
        assert q == y + y**-1
        assert laurent_exact_divide(y**2 - 1, z - 1) is None

    def test_term_cap(self):
        I = ideal(("x", "t"), ["x*t - 1"])
        big = parse_poly("x^5 + x^4 + x^3 + x^2 + x + 1").with_vars(I.ring.vars)
        with pytest.raises(ResourceLimitError):
            with term_budget(2):
                I.normal_form(big)
        # leaving the block, even by an exception, restores the previous budget
        assert I.normal_form(big) == big
        with term_budget(6):
            assert I.normal_form(big) == big

    def test_ring_mismatch_rejected(self):
        I = ideal(("x", "t"), ["x*t - 1"])
        with pytest.raises(ValueError):
            I.normal_form(parse_poly("q^2 + 1"))
        from blowring.groebner import OrderMismatchError

        with pytest.raises(OrderMismatchError):
            I.normal_form(parse_poly("x^-1"))


class TestBuchbergerProperties:
    """The definitional Gröbner test on random ideals.

    Stronger than any fixed example: minimal, self-reduced, deterministic,
    and every S-polynomial of the output reduces to zero.
    """

    def test_random_ideals(self):
        from blowring.groebner import _divides, _spoly, leading
        from blowring.scalars import gauss

        rng = random.Random(2024)

        def random_poly(vars, n_terms, deg):
            terms = {}
            for _ in range(n_terms):
                exps = tuple(rng.randint(0, deg) for _ in vars)
                terms[exps] = gauss(rng.randint(-4, 4), rng.randint(-2, 2))
            return LaurentPoly(vars, terms)

        checked = 0
        for _ in range(15):
            nv = rng.choice([2, 3])
            vars = tuple("xyzw"[:nv])
            ring = PolyRing(vars)
            gens = [random_poly(vars, rng.randint(1, 3), 3) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g.terms]
            if not gens:
                continue
            I = Ideal(ring, gens)
            gb = I.groebner()
            if not gb:
                continue
            for g in gens:
                assert I.normal_form(g).is_zero()
            f = random_poly(vars, 4, 4)
            r = I.normal_form(f)
            assert I.normal_form(r) == r
            assert I.normal_form(f - r).is_zero()
            leads = [leading(g, ring.order)[0] for g in gb]
            for i, gi in enumerate(gb):
                for j, lj in enumerate(leads):
                    if i == j:
                        continue
                    for mono in gi.terms:
                        assert not _divides(lj, mono)
            assert [str(g) for g in Ideal(ring, gens).groebner()] == [str(g) for g in gb]
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    li, ci = leading(gb[i], ring.order)
                    lj, cj = leading(gb[j], ring.order)
                    s = _spoly(gb[i], li, ci, gb[j], lj, cj, ring.order)
                    assert normal_form(s, gb, ring).is_zero()
            checked += 1
        assert checked >= 10


# -- reference models of the orders and of division ------------------------------


def reference_key(order):
    """The order keys as plain generator expressions, one element at a time."""
    if isinstance(order, GrevLex):
        return lambda exps: (sum(exps), tuple(-e for e in reversed(exps)))
    return lambda exps: tuple(
        (sum(exps[i] for i in block), tuple(-exps[i] for i in reversed(block)))
        for block in order.blocks
    )


def reference_neg_key(order):
    if isinstance(order, GrevLex):
        return lambda exps: (-sum(exps), tuple(reversed(exps)))
    return lambda exps: tuple(
        (-sum(exps[i] for i in block), tuple(exps[i] for i in reversed(block)))
        for block in order.blocks
    )


def reference_division(f, basis, ring):
    """Remainder of f by the first element of ``basis`` (in list order) whose lead divides."""
    key = reference_key(ring.order)
    p, remainder = dict(f.terms), {}
    while p:
        lm = max(p, key=key)
        for g in basis:
            if not g.terms:
                continue
            glm = max(g.terms, key=key)
            if all(a <= b for a, b in zip(glm, lm)):
                factor = p[lm] / g.terms[glm]
                for ge, gc in g.terms.items():
                    ke = tuple(x - a + b for x, a, b in zip(lm, glm, ge))
                    nv = p.get(ke, gauss(0)) - gc * factor
                    if nv:
                        p[ke] = nv
                    else:
                        p.pop(ke, None)
                break
        else:
            remainder[lm] = p.pop(lm)
    return LaurentPoly(ring.vars, remainder)


@st.composite
def orders(draw, nvars):
    """Grevlex, or blocks from a shuffled, cut variable list (often non-contiguous, sometimes empty)."""
    if draw(st.booleans()):
        return GrevLex()
    perm = draw(st.permutations(range(nvars)))
    cuts = sorted(draw(st.lists(st.integers(0, nvars), max_size=3)))
    bounds = [0, *cuts, nvars]
    return BlockOrder([perm[a:b] for a, b in zip(bounds, bounds[1:])])


exponents = st.integers(0, 3)
small_gaussians = st.builds(gauss, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def polys(draw, nvars, max_terms, exps=exponents):
    terms = draw(
        st.dictionaries(st.tuples(*[exps] * nvars), small_gaussians, min_size=1, max_size=max_terms)
    )
    return LaurentPoly(tuple("abcde"[:nvars]), {e: c for e, c in terms.items() if c})


@st.composite
def rings_with(draw, max_vars=5):
    nvars = draw(st.integers(1, max_vars))
    return PolyRing(tuple("abcde"[:nvars]), draw(orders(nvars)))


class TestOrderKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keys_match_the_reference(self, data):
        ring = data.draw(rings_with())
        n = len(ring.vars)
        monos = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=12, unique=True))
        order = ring.order
        key, neg_key = reference_key(order), reference_neg_key(order)
        for e in monos:
            assert order.key(e) == key(e)
            assert order.neg_key(e) == neg_key(e)
        assert sorted(monos, key=order.neg_key) == sorted(monos, key=order.key, reverse=True)

    def test_homology_layout(self):
        # the homology ring orders (delta, xi, eta) by the blocks (xi), (delta, eta)
        order = BlockOrder([(1,), (0, 2)])
        for e in [(2, 0, 1), (0, 3, 0), (1, 1, 1), (0, 0, 0)]:
            assert order.key(e) == reference_key(order)(e)
            assert order.neg_key(e) == reference_neg_key(order)(e)


class TestDivisionReference:
    """``normal_form`` against a plain division by the basis in list order."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_unreduced_bases(self, data):
        ring = data.draw(rings_with(max_vars=4))
        n = len(ring.vars)
        basis = data.draw(st.lists(polys(n, 3), min_size=1, max_size=4))
        f = data.draw(polys(n, 6, st.integers(0, 5)))
        assert normal_form(f, basis, ring) == reference_division(f, basis, ring)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cached_table_matches_the_basis(self, data):
        ring = data.draw(rings_with(max_vars=3))
        n = len(ring.vars)
        gens = data.draw(st.lists(polys(n, 3, st.integers(0, 2)), min_size=1, max_size=3))
        fs = data.draw(st.lists(polys(n, 5, st.integers(0, 4)), min_size=1, max_size=3))
        I = Ideal(ring, gens)
        gb = I.groebner()
        for f in fs:
            r = I.normal_form(f)
            assert r == normal_form(f, gb, ring) == reference_division(f, gb, ring)


class TestBuchbergerInputs:
    """Inputs enter the basis through the step that S-polynomials take.

    Each is reduced by the basis so far, so no two elements share a lead; an
    element that reduced another to zero must not itself be reduced away.
    """

    @pytest.mark.parametrize(
        "gens, basis",
        [
            (["x^2", "2*x^2"], ["x^2"]),
            (["x^2 + y", "x^2 + y"], ["x^2 + y"]),
            (["0", "x"], ["x"]),
            (["0"], []),
            # x reduces x^2*y to zero and x^2*y + y^2 to y^2
            (["x^2*y", "x^2*y + y^2", "x"], ["x", "y^2"]),
        ],
    )
    def test_pinned_inputs(self, gens, basis):
        ring = PolyRing(("x", "y"))
        got = buchberger([parse_poly(g).with_vars(ring.vars) for g in gens], ring)
        assert [str(g) for g in got] == basis

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_permuted_duplicated_scaled_generators(self, data):
        """The reduced basis depends on the ideal only, not on how its generators are listed."""
        ring = data.draw(rings_with(max_vars=3))
        n = len(ring.vars)
        gens = data.draw(st.lists(polys(n, 3, st.integers(0, 2)), min_size=1, max_size=3))
        listed = gens + data.draw(st.lists(st.sampled_from(gens), max_size=2))
        scales = data.draw(st.lists(small_gaussians.filter(bool), min_size=len(listed), max_size=len(listed)))
        varied = data.draw(st.permutations([g * c for g, c in zip(listed, scales)]))
        assert buchberger(varied, ring) == buchberger(gens, ring)


def _gg_wall_division_ideal(blowups):
    """J = I + (wall*w - 1) for the GG blow-up: the ideal its saturation is eliminated from."""
    B = blowups["GG"]
    ring = B.ring
    unsaturated = PresentedRing(ring.laurent_vars, ring.poly_vars, ring.relations).ideal
    return Elimination((), ring._ambient, unsaturated.gens, [ring._encode(B.wall_product)])


def _kring_oracle_ideal(blowups):
    from blowring.kring import KRing

    return KRing(blowups["GG"])._blowup_oracle().ideal


def _homology_kernel_ideal(blowups):
    """The ideal whose elimination gives the homology model's kernel, as Buchberger receives it."""
    from blowring.centralizer import model, model_kernel

    with mock.patch.object(groebner, "buchberger", wraps=groebner.buchberger) as spy:
        model_kernel(model("S-prime"))
    ((gens, ring),) = [call.args for call in spy.call_args_list]
    return Ideal(ring, gens)


class TestPruningCounts:
    """The exact work of one Buchberger call on three fixed ideals of the suites.

    A reduced basis is unique, so no result shows whether the coprime and chain
    criteria prune pairs; these counts do.
    """

    @pytest.mark.parametrize(
        "build, size, normal_forms, chain_calls, chain_hits",
        [
            (_gg_wall_division_ideal, 10, 40, 42, 18),
            (_kring_oracle_ideal, 13, 104, 165, 96),
            (_homology_kernel_ideal, 4, 8, 0, 0),
        ],
        ids=["GG wall division", "K-ring oracle", "homology kernel"],
    )
    def test_counts(self, blowups, monkeypatch, build, size, normal_forms, chain_calls, chain_hits):
        I = build(blowups)
        counts = Counter()
        real_nf, real_chain = groebner.normal_form, groebner._chain_criterion

        def counted_nf(*args):
            counts["normal_form"] += 1
            return real_nf(*args)

        def counted_chain(*args):
            hit = real_chain(*args)
            counts["chain"] += 1
            counts["chain_hits"] += hit
            return hit

        monkeypatch.setattr(groebner, "normal_form", counted_nf)
        monkeypatch.setattr(groebner, "_chain_criterion", counted_chain)
        basis = buchberger(I.gens, I.ring)
        monkeypatch.undo()
        assert len(basis) == size
        assert (counts["normal_form"], counts["chain"], counts["chain_hits"]) == (normal_forms, chain_calls, chain_hits)


# -- an independent engine: sympy ------------------------------------------------


laurent_exponents = st.integers(-2, 2)


class TestLaurentExactDivide:
    def test_quotients_with_negative_exponents(self):
        # both were None while the division shifted to non-negative exponents
        y, z = LaurentPoly.gens("y z")
        assert laurent_exact_divide(y, z) == y * z**-1
        assert laurent_exact_divide(z**2 * y + 1, z) == z * y + z**-1

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product_divides_back(self, data):
        f = data.draw(polys(data.draw(st.integers(1, 3)), 4, laurent_exponents))
        g = data.draw(polys(data.draw(st.integers(1, 3)), 3, laurent_exponents).filter(bool))
        assert laurent_exact_divide(f * g, g) == f

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_a_quotient_is_exact(self, data):
        f = data.draw(polys(data.draw(st.integers(1, 3)), 4, laurent_exponents))
        g = data.draw(polys(data.draw(st.integers(1, 3)), 2, laurent_exponents).filter(bool))
        if data.draw(st.booleans()):
            f = f * g
        q = laurent_exact_divide(f, g)
        assert q is None or q * g == f

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_no_quotient_off_a_multiple(self, data):
        """A g of two or more terms is no unit, so it does not divide 1, nor f*g + 1."""
        f = data.draw(polys(data.draw(st.integers(1, 3)), 4, laurent_exponents))
        g = data.draw(polys(data.draw(st.integers(1, 3)), 3, laurent_exponents).filter(lambda g: len(g.terms) > 1))
        assert laurent_exact_divide(f * g + 1, g) is None


def _sympy_polys(polys, vars):
    from sympy import Poly, symbols
    from sympy.polys.domains import QQ, QQ_I

    def coeff(c):
        return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))

    syms = symbols(vars)
    return [Poly.from_dict({e: coeff(c) for e, c in f.with_vars(vars).terms.items()}, *syms, domain=QQ_I)
            for f in polys if f.terms]


def _sympy_groebner(polys, vars, order):
    """sympy's reduced basis, each element monic under ``order``, as a set of term sets in our scalars."""
    import sympy

    if not any(f.terms for f in polys):
        return set(), []
    G = sympy.groebner(_sympy_polys(polys, vars), *sympy.symbols(vars), order=order, domain="QQ_I")
    basis = set()
    for p in G.polys:
        terms = p.rep.to_dict()
        lc = terms[p.monoms(order=order)[0]]
        basis.add(frozenset((e, _our_scalar(c / lc)) for e, c in terms.items()))
    return basis, G.polys


def _our_scalar(c):
    return gauss(Fraction(int(c.x.numerator), int(c.x.denominator)),
                 Fraction(int(c.y.numerator), int(c.y.denominator)))


def _our_basis(basis):
    return {frozenset(g.terms.items()) for g in basis}


def _sympy_elimination_basis(gens, drop, keep):
    """The elimination ideal via a lex basis, then its reduced grevlex basis in the kept variables."""
    vars = tuple(drop) + tuple(keep)
    _, lex = _sympy_groebner(gens, vars, "lex")
    n = len(drop)
    kept = []
    for p in lex:
        terms = p.rep.to_dict()
        if all(not any(e[:n]) for e in terms):
            kept.append(LaurentPoly(tuple(keep), {e[n:]: _our_scalar(c) for e, c in terms.items()}))
    return _sympy_groebner(kept, tuple(keep), "grevlex")[0]


class TestSympyOracle:
    """Reduced bases and elimination ideals against sympy's independent engine."""

    @pytest.fixture(autouse=True, scope="class")
    def sympy(self):
        pytest.importorskip("sympy")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_grevlex_bases(self, data):
        n = data.draw(st.integers(1, 3))
        ring = PolyRing(tuple("abc"[:n]))
        gens = data.draw(st.lists(polys(n, 3, st.integers(0, 2)), min_size=1, max_size=3))
        assert _our_basis(Ideal(ring, gens).groebner()) == _sympy_groebner(gens, ring.vars, "grevlex")[0]

    @pytest.mark.parametrize(
        "gens",
        [
            ["a^2*b + 1", "a*b*c^2 + b"],
            ["a + b + c", "a*b + b*c + c*a", "a*b*c - 1"],
            ["a*b*c - b^2 - c^2 - 1", "a^2 - b*c"],
            ["i*a^2 - b", "a*b - c^2", "b^3 + (1+i)*a*c"],
        ],
    )
    def test_fixed_grevlex_bases(self, gens):
        ring = PolyRing(("a", "b", "c"))
        gens = [parse_poly(g).with_vars(ring.vars) for g in gens]
        assert _our_basis(Ideal(ring, gens).groebner()) == _sympy_groebner(gens, ring.vars, "grevlex")[0]

    def test_gg_blowup_ambient_ideal(self, blowups):
        I = blowups["GG"].ring.ideal
        ours = _our_basis(I.groebner())
        assert len(ours) == 6
        assert ours == _sympy_groebner(I.gens, I.ring.vars, "grevlex")[0]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_elimination_ideals(self, data):
        # three variables at most: sympy's lex basis of one 4-variable ideal ran past 100 s
        n = data.draw(st.integers(2, 3))
        vars = tuple("abc"[:n])
        k = data.draw(st.integers(1, n - 1))
        gens = data.draw(st.lists(polys(n, 3, st.integers(0, 2)), min_size=1, max_size=3))
        gens = [LaurentPoly(vars, g.terms) for g in gens]
        kept = Elimination(vars[:k], vars[k:], gens, ()).kept()
        assert _our_basis(kept.groebner()) == _sympy_elimination_basis(gens, vars[:k], vars[k:])

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_blowup_saturation(self, blowups, flavor):
        # I : wall^infinity from sympy: eliminate w from I + (wall*w - 1) by lex, then grevlex
        B = blowups[flavor]
        ring = B.ring
        unsaturated = PresentedRing(ring.laurent_vars, ring.poly_vars, ring.relations).ideal
        J = Elimination((), ring._ambient, unsaturated.gens, [ring._encode(B.wall_product)])
        ours = _our_basis(ring.ideal.groebner())
        assert ours == _sympy_elimination_basis(J.gens, J.aux, ring._ambient)

    def test_kring_oracle_elimination_ideal(self):
        # the relation among the K-ring generators inside the GG blow-up: the S model's cubic
        from blowring.kring import KRing

        I = KRing()._blowup_oracle().ideal
        drop = I.ring.vars[: len(I.ring.vars) - len(I.keep)]
        ours = _our_basis(I.kept().groebner())
        assert ours == _our_basis([parse_poly("a*b*c - b^2 - c^2 - 1").with_vars(I.keep)])
        assert ours == _sympy_elimination_basis(I.gens, drop, I.keep)
