"""An exact evaluator for blowring's text output, independent of blowring.

It reads the canonical text of Laurent polynomials and fractions
(``(1+2i)*y^2*z^-1 + 3``, ``(y - y^-1) / (z - z^-1)``, unit partners
``y'``) and evaluates it at a Gaussian-rational point with first
derivatives, using only ``fractions.Fraction``. The benchmark checks answers
with it: two texts agree when they agree at seeded random points
(Schwartz-Zippel), and a Poisson bracket is recomputed from the derivatives
of its operands.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction


class Jet:
    """A value in Q(i) with its partial derivatives along a fixed list of variables."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v  # (re, im)
        self.d = d  # tuple of (re, im)

    @staticmethod
    def const(re, im=0, width=0):
        zero = (Fraction(0), Fraction(0))
        return Jet((Fraction(re), Fraction(im)), (zero,) * width)

    def __add__(self, o):
        return Jet(_add(self.v, o.v), tuple(_add(a, b) for a, b in zip(self.d, o.d)))

    def __sub__(self, o):
        return Jet(_sub(self.v, o.v), tuple(_sub(a, b) for a, b in zip(self.d, o.d)))

    def __neg__(self):
        return Jet(_neg(self.v), tuple(_neg(a) for a in self.d))

    def __mul__(self, o):
        return Jet(
            _mul(self.v, o.v),
            tuple(_add(_mul(a, o.v), _mul(self.v, b)) for a, b in zip(self.d, o.d)),
        )

    def __truediv__(self, o):
        inv = _inv(o.v)
        v = _mul(self.v, inv)
        # (f/g)' = (f' - (f/g) g') / g
        return Jet(v, tuple(_mul(_sub(a, _mul(v, b)), inv) for a, b in zip(self.d, o.d)))

    def __pow__(self, n: int):
        if n < 0:
            return Jet.const(1, 0, len(self.d)) / (self ** -n)
        out = Jet.const(1, 0, len(self.d))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _neg(a):
    return (-a[0], -a[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if n == 0:
        raise ZeroDivisionError("division by zero at the evaluation point")
    return (a[0] / n, -a[1] / n)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?i?)|(?P<i>i)(?![A-Za-z_0-9])"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*'*)|(?P<op>[-+*/^()]))"
)


class OracleParseError(ValueError):
    pass


def _tokens(text: str):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise OracleParseError(f"cannot read {text[pos:pos + 12]!r}")
        pos = m.end()
        if m.group("num"):
            lit = m.group("num")
            imag = lit.endswith("i")
            q = Fraction(lit.rstrip("i"))
            out.append(("num", (Fraction(0), q) if imag else (q, Fraction(0))))
        elif m.group("i"):
            out.append(("num", (Fraction(0), Fraction(1))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


def evaluate(text: str, env: dict[str, Jet]) -> Jet:
    """Evaluate ``text`` with every variable looked up in ``env``."""
    toks = _tokens(text)
    pos = 0
    width = len(next(iter(env.values())).d) if env else 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        sign = 1
        while peek() in (("op", "-"), ("op", "+")):
            if take()[1] == "-":
                sign = -sign
        val = term()
        if sign < 0:
            val = -val
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term():
        val = factor()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def factor():
        kind, value = take()
        if kind == "num":
            base = Jet.const(value[0], value[1], width)
        elif kind == "name":
            if value not in env:
                raise OracleParseError(f"unknown variable {value!r}")
            base = env[value]
        elif (kind, value) == ("op", "("):
            base = expr()
            if take() != ("op", ")"):
                raise OracleParseError("expected ')'")
        elif (kind, value) == ("op", "-"):
            return -factor()
        else:
            raise OracleParseError(f"unexpected {value!r}")
        if peek() == ("op", "^"):
            take()
            neg = peek() == ("op", "-")
            if neg:
                take()
            kind, value = take()
            if kind != "num" or value[1] or value[0].denominator != 1:
                raise OracleParseError("exponent must be an integer")
            base = base ** (-int(value[0]) if neg else int(value[0]))
        return base

    val = expr()
    if peek()[0] != "end":
        raise OracleParseError(f"trailing {peek()[1]!r}")
    return val


def random_point(rng: random.Random, names, deriv=(), extra=None) -> dict[str, Jet]:
    """A seeded Gaussian-rational point; ``deriv`` names the variables differentiated.

    Every coordinate gets a nonzero imaginary part, so no wall of a blow-up
    (``x``, ``z^2 - 1``) vanishes there. Unit partners ``v'`` evaluate to ``1/v``. ``extra`` maps further names
    (blow-up generators) to texts evaluated at the point, such as wall fractions.
    """
    width = len(deriv)
    env: dict[str, Jet] = {}
    for name in names:
        re_ = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        im_ = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
        zero = (Fraction(0), Fraction(0))
        one = (Fraction(1), Fraction(0))
        d = tuple(one if name == v else zero for v in deriv)
        env[name] = Jet((re_, im_), d)
        env[name + "'"] = Jet.const(1, 0, width) / env[name]
    for name, text in (extra or {}).items():
        env[name] = evaluate(text, env)
    return env


def values_only(env: dict[str, Jet]) -> dict[str, Jet]:
    """The same point without derivatives: cheaper for texts that need none."""
    return {name: Jet(j.v, ()) for name, j in env.items()}


def bracket_at(f: str, g: str, env: dict[str, Jet], chart: tuple[tuple[str, str], ...], kappa=1):
    """{f, g} at the point, for the chart {l(first), l(second)} = -kappa.

    ``chart`` is ((first, kind), (second, kind)) and ``env`` must differentiate
    along (first, second); a "log" coordinate derives by v d/dv, a "linear"
    one by d/dv.
    """
    fj, gj = evaluate(f, env), evaluate(g, env)

    def d(j, k):
        name, kind = chart[k]
        return _mul(env[name].v, j.d[k]) if kind == "log" else j.d[k]

    cross = _sub(_mul(d(fj, 0), d(gj, 1)), _mul(d(fj, 1), d(gj, 0)))
    return _mul((Fraction(-kappa), Fraction(0)), cross)

