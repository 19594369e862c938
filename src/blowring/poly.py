"""Sparse multivariate Laurent polynomials over Gaussian rationals.

Terms are stored as a map from integer exponent vectors (negative exponents
allowed) to nonzero GaussianRational coefficients. Values are immutable by
discipline; every operation returns a fresh canonical polynomial.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, neg
from typing import Mapping, Sequence

from .scalars import GaussianRational, ONE, ZERO, gauss, power

Exps = tuple[int, ...]


class LaurentPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exps, GaussianRational] | None = None):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable name in {vars}")
        clean: dict[Exps, GaussianRational] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != len(vars):
                    raise ValueError("exponent vector length mismatch")
                if coeff:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def _make(vars: tuple[str, ...], terms: dict[Exps, GaussianRational]) -> "LaurentPoly":
        """The polynomial on ``terms`` as given: a fresh dict, owned from now on by
        the result, of nonzero coefficients keyed by tuples of width len(vars)."""
        p = _new(LaurentPoly)
        _set_vars(p, vars)
        _set_terms(p, terms)
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str] = ()) -> "LaurentPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, value, vars: Sequence[str] = ()) -> "LaurentPoly":
        c = value if isinstance(value, GaussianRational) else gauss(value)
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, name: str) -> "LaurentPoly":
        return cls((name,), {(1,): ONE})

    @classmethod
    def monomial(cls, coeff, exps: Mapping[str, int]) -> "LaurentPoly":
        c = coeff if isinstance(coeff, GaussianRational) else gauss(coeff)
        names = tuple(sorted(exps))
        return cls(names, {tuple(exps[n] for n in names): c})

    @classmethod
    def gens(cls, names: str | Sequence[str]) -> list["LaurentPoly"]:
        if isinstance(names, str):
            names = names.split()
        return [cls.var(n) for n in names]

    # -- variable alignment -----------------------------------------------

    def with_vars(self, vars: Sequence[str]) -> "LaurentPoly":
        """Re-express over a list of distinct variables containing all used variables."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable name in {vars}")
        where = {v: i for i, v in enumerate(self.vars)}
        pad = len(self.vars)  # the place of the 0 appended to every exponent tuple
        picks = [where.pop(v, pad) for v in vars]
        for v, i in where.items():
            if any(e[i] for e in self.terms):
                raise ValueError(f"variable {v!r} not in target list")
        gather = itemgetter(*picks) if len(picks) > 1 else lambda e: tuple(e[i] for i in picks)
        return LaurentPoly._make(vars, {gather(e + (0,)): c for e, c in self.terms.items()})

    def support_vars(self) -> tuple[str, ...]:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    @staticmethod
    def merge_vars(a: "LaurentPoly", b: "LaurentPoly") -> tuple[str, ...]:
        merged = list(a.vars)
        seen = set(merged)
        for v in b.vars:
            if v not in seen:
                merged.append(v)
                seen.add(v)
        return tuple(merged)

    def _pair(self, other) -> tuple["LaurentPoly", "LaurentPoly"] | None:
        """Both operands over one variable list; None if other is no scalar or polynomial."""
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return None
            other = LaurentPoly.const(other, self.vars)
        if self.vars == other.vars:
            return self, other
        vars = LaurentPoly.merge_vars(self, other)
        return self.with_vars(vars), other.with_vars(vars)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            s = terms.get(exps, ZERO) + coeff
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return LaurentPoly._make(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            prev = terms.get(exps)
            if prev is None:
                terms[exps] = -coeff
            elif s := prev - coeff:
                terms[exps] = s
            else:
                del terms[exps]
        return LaurentPoly._make(a.vars, terms)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else gauss(other)
            if not c:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._make(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._pair(other)
        terms: dict[Exps, GaussianRational] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(map(add, e1, e2))
                prev = terms.get(key)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return LaurentPoly._make(a.vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else gauss(other)
            return self * c.inverse()
        if isinstance(other, LaurentPoly):
            return self * other.monomial_inverse()
        return NotImplemented

    def __pow__(self, n: int) -> "LaurentPoly":
        return power(self if n >= 0 else self.monomial_inverse(), abs(n), LaurentPoly.const(1, self.vars))

    def monomial_inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise ValueError("only single-term polynomials are invertible")
        ((exps, coeff),) = self.terms.items()
        return LaurentPoly._make(self.vars, {tuple(map(neg, exps)): coeff.inverse()})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def min_degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return min((exps[i] for exps in self.terms), default=0)

    # -- equality -----------------------------------------------------------

    def _canonical_items(self):
        out = []
        for exps, coeff in self.terms.items():
            named = tuple(sorted((v, e) for v, e in zip(self.vars, exps) if e))
            out.append((named, coeff))
        # the monomials are distinct, so the sort never compares coefficients
        out.sort()
        return tuple(out)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._canonical_items() == other._canonical_items()

    def __hash__(self):
        return hash(self._canonical_items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus & substitution --------------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        """d/d(name); valid on Laurent terms (y^-1 -> -y^-2)."""
        i = self.vars.index(name)
        terms: dict[Exps, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = coeff * exps[i]
        return LaurentPoly._make(self.vars, terms)

    def log_derivative(self, name: str) -> "LaurentPoly":
        """The invariant derivation v * d/dv, exponent-multiplication on terms."""
        i = self.vars.index(name)
        terms: dict[Exps, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            if exps[i]:
                terms[exps] = coeff * exps[i]
        return LaurentPoly._make(self.vars, terms)

    def substitute_monomials(
        self,
        images: Mapping[str, tuple[GaussianRational, Mapping[str, int]]],
        out_vars: Sequence[str] | None = None,
    ) -> "LaurentPoly":
        """Apply a signed-monomial substitution v -> c * prod(w^e).

        Unmapped variables go to themselves. Exact on Laurent terms since the
        image coefficients are units.
        """
        if out_vars is None:
            seen = list(self.vars)
            have = set(seen)
            for _, mono in images.values():
                for w in mono:
                    if w not in have:
                        seen.append(w)
                        have.add(w)
            out_vars = tuple(seen)
        else:
            out_vars = tuple(out_vars)
        index = {v: i for i, v in enumerate(out_vars)}
        terms: dict[Exps, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            c = coeff
            acc = [0] * len(out_vars)
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v in images:
                    ic, mono = images[v]
                    c = c * ic ** e
                    for w, we in mono.items():
                        acc[index[w]] += we * e
                else:
                    acc[index[v]] += e
            key = tuple(acc)
            prev = terms.get(key)
            s = c if prev is None else prev + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return LaurentPoly(out_vars, terms)

    # -- normalization ------------------------------------------------------

    def scaled_primitive(self) -> tuple[GaussianRational, "LaurentPoly"]:
        """Factor out a scalar making coefficients integral Gaussian with content 1.

        The sign is fixed so the display-leading coefficient has positive real
        part (or positive imaginary part when purely imaginary).
        Returns (unit, primitive) with self == unit * primitive.
        """
        if not self.terms:
            return ONE, self
        parts = [q for c in self.terms.values() for q in (c.re, c.im)]
        scale = lcm(*(q.denominator for q in parts))
        g = gcd(*(q.numerator * scale // q.denominator for q in parts))
        factor = gauss(Fraction(g, scale)) if g else ONE
        prim = self * factor.inverse()
        lead = prim.terms[_display_leader(prim)]
        if lead.re < 0 or (lead.re == 0 and lead.im < 0):
            factor = -factor
            prim = -prim
        return factor, prim

    # -- text forms -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<LaurentPoly {format_poly(self)}>"


_new = object.__new__
_set_vars = LaurentPoly.vars.__set__
_set_terms = LaurentPoly.terms.__set__


def _display_key(exps: Exps):
    # grevlex-style ordering used only for stable display
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _display_leader(p: LaurentPoly) -> Exps:
    return max(p.terms, key=_display_key)


# -- canonical textual form ----------------------------------------------------

def format_poly(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    order = sorted(p.terms, key=_display_key, reverse=True)
    chunks: list[str] = []
    for exps, first in zip(order, [True] + [False] * (len(order) - 1)):
        coeff = p.terms[exps]
        body = _term_str(coeff, exps, p.vars)
        if first:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(f" - {body[1:]}")
        else:
            chunks.append(f" + {body}")
    return "".join(chunks)


def _term_str(coeff: GaussianRational, exps: Exps, vars: tuple[str, ...]) -> str:
    factors = []
    for v, e in zip(vars, exps):
        if e == 0:
            continue
        factors.append(v if e == 1 else f"{v}^{e}")
    if not factors:
        return str(coeff)
    if coeff == ONE:
        return "*".join(factors)
    if coeff == -ONE:
        return "-" + "*".join(factors)
    return f"{coeff}*" + "*".join(factors)


_TOKEN = _re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?(?P<imag>i)?)|(?P<ivar>i)(?![A-Za-z_0-9])"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*'*)|(?P<op>\^|\*|\+|-|\(|\)))"
)


class PolyParseError(ValueError):
    pass


def parse_poly(text: str, vars: Sequence[str] | None = None) -> LaurentPoly:
    """Parse the canonical textual form, e.g. ``(1+2i)*y^2*z^-1 + 3``."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    poly = parser.parse_expr()
    parser.expect_end()
    if vars is not None:
        poly = poly.with_vars(tuple(vars))
    return poly


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise PolyParseError(f"cannot tokenize near {rest[:12]!r}")
        pos = m.end()
        if m.group("number"):
            lit = m.group("number")
            imag = lit.endswith("i")
            if imag:
                lit = lit[:-1]
            q = Fraction(lit)
            out.append(("num", gauss(0, q) if imag else gauss(q)))
        elif m.group("ivar"):
            out.append(("num", gauss(0, 1)))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        if self.peek()[0] != "end":
            raise PolyParseError(f"unexpected trailing token {self.peek()[1]!r}")

    def parse_expr(self) -> LaurentPoly:
        sign = 1
        while self.peek() == ("op", "-") or self.peek() == ("op", "+"):
            if self.next()[1] == "-":
                sign = -sign
        poly = self.parse_term() * sign
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.next()[1]
            term = self.parse_term()
            poly = poly + term if op == "+" else poly - term
        return poly

    def parse_term(self) -> LaurentPoly:
        poly = self.parse_factor()
        while self.peek() == ("op", "*"):
            self.next()
            poly = poly * self.parse_factor()
        return poly

    def parse_factor(self) -> LaurentPoly:
        kind, value = self.next()
        if kind == "num":
            base = LaurentPoly.const(value)
        elif kind == "name":
            base = LaurentPoly.var(value)
        elif (kind, value) == ("op", "("):
            base = self.parse_expr()
            if self.next() != ("op", ")"):
                raise PolyParseError("expected ')'")
        elif (kind, value) == ("op", "-"):
            return -self.parse_factor()
        else:
            raise PolyParseError(f"unexpected token {value!r}")
        if self.peek() == ("op", "^"):
            self.next()
            base = base ** self._parse_int()
        return base

    def _parse_int(self) -> int:
        sign = 1
        if self.peek() == ("op", "-"):
            self.next()
            sign = -1
        kind, value = self.next()
        if kind != "num" or not value.is_rational() or value.re.denominator != 1:
            raise PolyParseError("exponent must be an integer")
        return sign * value.re.numerator
