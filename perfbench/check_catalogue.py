"""Check the expected answers of the compute-cold catalogue with sympy.

The benchmark never records an expected answer from blowring's own output.
The answers in ``compute_cold.py`` come from the README or are confirmed
here, with sympy's Groebner bases over Q(i) (``QQ_I``), an implementation
independent of blowring's. Run once after changing the catalogue:

    python3 perfbench/check_catalogue.py

It needs sympy; the benchmark itself does not.
"""

from __future__ import annotations

import os
import random
import sys

import sympy as sp
from sympy import I, QQ_I, groebner

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compute_cold  # noqa: E402
import oracle  # noqa: E402

y, z, t, x, u, T, w = sp.symbols("y z t x u T w")
yi, zi, ti = sp.symbols("yi zi ti")
a, b, c, delta, xi, eta, zeta = sp.symbols("a b c delta xi eta zeta")
INVERSES = {y: yi, z: zi, t: ti}


def kernel(images: dict, units, poly_vars) -> list:
    """Relations among the images: eliminate the source variables (lex, sources first)."""
    gens, dens = [], sp.Integer(1)
    for coord, image in images.items():
        num, den = sp.fraction(sp.together(image))
        gens.append(sp.expand(coord * den - num))
        dens *= den
    gens.append(sp.expand(w * dens - 1))
    gens += [v * INVERSES[v] - 1 for v in units]
    elim = [w, *units, *(INVERSES[v] for v in units), *poly_vars]
    G = groebner(gens, *elim, *images, order="lex", domain=QQ_I)
    return [g for g in G.exprs if not g.free_symbols & set(elim)]


def same_ideal(got: list, want: list, coords) -> bool:
    if not want:
        return not got
    return groebner(got, *coords, order="grevlex", domain=QQ_I) == groebner(
        want, *coords, order="grevlex", domain=QQ_I
    )


def main() -> int:
    problems = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    # kernels of the model parametrizations (centralizer.py)
    dz = z - 1 / z
    S = {
        a: z + 1 / z,
        b: -I * ((y + 1 / y) * dz + (y - 1 / y) * (z + 1 / z)) / (2 * dz),
        c: -I * (y - 1 / y) / dz,
    }
    expect(same_ideal(kernel(S, [y, z], []), [a * b * c - b**2 - c**2 - 1], [a, b, c]),
           "kernel S is (a*b*c - b^2 - c^2 - 1)")
    Sp = {delta: x**2, xi: (y + 1 / y) / 2, eta: (y - 1 / y) / (2 * x)}
    expect(same_ideal(kernel(Sp, [y], [x]), [xi**2 - delta * eta**2 - 1], [delta, xi, eta]),
           "kernel S-prime is (xi^2 - delta*eta^2 - 1)")
    A2 = {a: z + 1 / z, zeta: x / (z - 1 / z)}
    expect(kernel(A2, [z], [x]) == [], "kernel A2-Gg is zero")

    # the abstract K-ring product: c * (a*b - c) modulo the model relation, grevlex a > b > c
    _, rem = sp.reduced(sp.expand(c * (a * b - c)), [a * b * c - b**2 - c**2 - 1], a, b, c, order="grevlex")
    expect(sp.expand(rem - (b**2 + 1)) == 0, "multiply abstract c * (a*b-c) = b^2 + 1")

    # T = (y^2-1)/(z^2-1) is not fixed by the Weyl inversion, so it is not in the convolution subring
    Tgg = (y**2 - 1) / (z**2 - 1)
    expect(sp.simplify(Tgg.subs({y: 1 / y, z: 1 / z}, simultaneous=True) - Tgg) != 0,
           "T is not Weyl-invariant")

    # invariants of S under jmath (a, c) -> (-a, -c), degree <= 2
    monos = [a, b, c, a**2, b**2, c**2, a * b, a * c, b * c]
    inv = [m for m in monos if sp.expand(m.subs({a: -a, c: -c}, simultaneous=True) - m) == 0]
    gens = [m for m in inv if not any(
        g != m and sp.expand(m / g).is_polynomial(a, b, c) and sp.expand(m / g) in inv for g in inv)]
    expect(sorted(map(str, gens)) == sorted(["b", "a**2", "c**2", "a*c"]),
           "invariants of S under jmath are b, a^2, c^2, a*c")

    # membership truths, with the wall fractions of blowup.py
    flavor_rings = {
        "gg": ([], [u, x], u, x),
        "Gg": ([z], [x], x, z**2 - 1),
        "gG": ([y], [x], y**2 - 1, x),
        "GG": ([y, z], [], y**2 - 1, z**2 - 1),
        "GGv": ([t, z], [], t - 1, z**2 - 1),
    }
    cases = [(f, frac, True) for f, frac in compute_cold.MEMBERS.items()]
    cases += [(f, frac, False) for f, frac in compute_cold.NON_MEMBERS.items()]
    for flavor, text, member in cases:
        units, poly_vars, num, wall = flavor_rings[flavor]
        expect(membership(sp.sympify(text.replace("^", "**")), units, poly_vars, num, wall) is member,
               f"{flavor}: {text} {'is' if member else 'is not'} a member")

    # the oracle's bracket against sympy's derivatives
    rng = random.Random(0)
    for flavor, (f, g) in compute_cold.BRACKET_ARGS.items():
        axes, gen, wall_fraction = compute_cold.FLAVOR_DATA[flavor]
        names = [v for v, _ in axes]
        env = oracle.random_point(rng, names, deriv=names, extra={gen: wall_fraction})
        (v1, k1), (v2, k2) = axes
        s1, s2 = sp.Symbol(v1), sp.Symbol(v2)
        F, G = (sp.sympify(e.replace("^", "**")) for e in (f, g))

        def D(e, s, kind):
            return s * sp.diff(e, s) if kind == "log" else sp.diff(e, s)

        br = -(D(F, s1, k1) * D(G, s2, k2) - D(F, s2, k2) * D(G, s1, k1))
        point = {sp.Symbol(n): env[n].v[0] + I * env[n].v[1] for n in names}
        want = sp.nsimplify(sp.expand(br.subs(point)))
        got = oracle.bracket_at(f, g, env, axes)
        expect(sp.expand(want - (got[0] + I * got[1])) == 0, f"oracle bracket {flavor} {{{f}, {g}}}")
    print("all expectations hold" if not problems else f"{len(problems)} expectations fail")
    return 1 if problems else 0


def membership(fraction, units, poly_vars, num, wall) -> bool:
    fnum, fden = sp.fraction(sp.together(fraction))
    # the denominator must be a unit monomial times a power of the wall
    k, rest = 0, sp.factor(fden)
    def is_unit(p):
        return p.is_monomial and not any(p.degree(v) for v in poly_vars)

    while not is_unit(sp.Poly(rest, *units, *poly_vars)):
        q, r = sp.div(sp.expand(rest), sp.expand(wall), *units, *poly_vars)
        if r != 0:
            raise ValueError(f"{fden} is not a unit times a power of {wall}")
        rest, k = q, k + 1
    mono = sp.Poly(rest, *units, *poly_vars)
    rel = [sp.expand(T * wall - num), sp.expand(w * wall - 1)] + [v * INVERSES[v] - 1 for v in units]
    (exps,), (coeff,) = mono.monoms(), mono.coeffs()
    rep = fnum * w**k / coeff
    for v, e in zip(units, exps):
        rep *= INVERSES[v] ** e
    ring = [w, *units, *(INVERSES[v] for v in units), *poly_vars, T]
    G = groebner(rel, *ring, order="lex", domain=QQ_I)
    _, remainder = G.reduce(sp.expand(rep))
    return w not in remainder.free_symbols


if __name__ == "__main__":
    sys.exit(main())
