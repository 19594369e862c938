"""Poisson brackets in blow-up coordinates.

A chart fixes a constant antisymmetric base bracket on logarithmic (torus)
and linear (Lie-algebra) coordinates; the bracket of arbitrary fractions is
the biderivation extension. Constant base brackets in flat coordinates make
the Jacobi identity automatic, which the checks verify symbolically anyway.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .blowup import _FACTORS, BlowupAlgebra, membership
from .fractions import RingFraction
from .poly import LaurentPoly
from .scalars import GaussianRational, gauss


class ChartError(ValueError):
    pass


class PoissonChart:
    """Variables with kinds ("log" or "linear") and a constant base bracket."""

    def __init__(self, kinds: dict[str, str], base: dict[tuple[str, str], GaussianRational | int]):
        for v, kind in kinds.items():
            if kind not in ("log", "linear"):
                raise ChartError(f"unknown coordinate kind {kind!r} for {v!r}")
        self.kinds = dict(kinds)
        self.pairs: list[tuple[str, str, GaussianRational]] = []  # one orientation of each
        given: dict[tuple[str, str], GaussianRational] = {}
        for (a, b), c in base.items():
            if a not in self.kinds or b not in self.kinds:
                raise ChartError(f"base bracket names unknown variable in {(a, b)}")
            if a == b:
                raise ChartError("base bracket of a variable with itself")
            c = c if isinstance(c, GaussianRational) else gauss(c)
            existing = given.get((a, b))
            if existing is not None and existing != c:
                raise ChartError(f"conflicting base bracket for {(a, b)}")
            if existing is None:
                self.pairs.append((a, b, c))
            given[(a, b)] = c
            given[(b, a)] = -c

    def _numerator(self, f: RingFraction, var: str) -> LaurentPoly:
        """The chart derivation of f along var (v d/dv on log, d/dv on linear), times den(f)^2."""
        d = LaurentPoly.log_derivative if self.kinds[var] == "log" else LaurentPoly.derivative
        dn = d(f.num, var) if var in f.num.vars else LaurentPoly.zero(f.num.vars)
        if f.is_polynomial():
            return dn
        dd = d(f.den, var) if var in f.den.vars else LaurentPoly.zero(f.den.vars)
        return dn * f.den - f.num * dd

    def bracket(self, f: RingFraction | LaurentPoly, g: RingFraction | LaurentPoly) -> RingFraction:
        f = RingFraction.of(f)
        g = RingFraction.of(g)
        df = {v: self._numerator(f, v) for v in self.kinds}
        dg = {v: self._numerator(g, v) for v in self.kinds}
        total = None
        for a, b, c in self.pairs:
            part = df[a] * dg[b] - df[b] * dg[a]
            if part.terms:
                total = part * c if total is None else total + part * c
        if total is None:
            return RingFraction(LaurentPoly.zero(LaurentPoly.merge_vars(f.num, g.num)))
        if f.is_polynomial() and g.is_polynomial():
            return RingFraction(total)
        # every part lies over (den(f) * den(g))^2, formed once
        den = f.den * g.den
        den = den * den
        return RingFraction(total, den)

    def jacobi_sum(self, f, g, h) -> RingFraction:
        f, g, h = (RingFraction.of(x) for x in (f, g, h))
        return (
            self.bracket(f, self.bracket(g, h))
            + self.bracket(g, self.bracket(h, f))
            + self.bracket(h, self.bracket(f, g))
        )


def standard_chart(B: BlowupAlgebra, kappa: GaussianRational | int = 1) -> PoissonChart:
    """The chart pairing the two factors.

    The base bracket is {l(first), l(second)} = -kappa, the orientation in
    which the q-deformation commutator of the convolution ring reproduces the
    bracket at kappa = 1.
    """
    (first_kind, f), (second_kind, s) = _FACTORS[B.flavor]
    kinds = {
        f: "linear" if first_kind == "lie" else "log",
        s: "linear" if second_kind == "lie" else "log",
    }
    return PoissonChart(kinds, {(f, s): -kappa})


def torus_chart() -> PoissonChart:
    """The dual-torus-times-torus chart, coordinates t and z.

    Base bracket {log t, log z} = -1, matching the q-deformation bracket
    of the loop-rotation Heisenberg algebra.
    """
    return PoissonChart({"t": "log", "z": "log"}, {("t", "z"): -1})


# -- closure reports -----------------------------------------------------------------


@dataclass
class PairRecord:
    f: str
    g: str
    bracket: str
    member: bool
    certificate: str | None


@dataclass
class JacobiRecord:
    triple: tuple[str, str, str]
    zero: bool


@dataclass
class ClosureReport:
    flavor: str
    pairs: list[PairRecord] = field(default_factory=list)
    jacobi: list[JacobiRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.member for p in self.pairs) and all(j.zero for j in self.jacobi)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def bracket_closure_check(B: BlowupAlgebra, kappa: GaussianRational | int = 1) -> ClosureReport:
    """Brackets of all invariant generator pairs must land back in the ring.

    The generators are the W-invariant fraction generators of the undotted
    blow-up; their brackets are automatically W-invariant, so membership in
    the blow-up quotient certifies closure of the Poisson structure.
    Failures are reported per pair, never silently dropped.
    """
    chart = standard_chart(B, kappa)
    gens = list(B.invariant_gens)
    if not gens:
        raise ChartError(f"no invariant generators known for flavor {B.flavor}")
    report = ClosureReport(B.flavor)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = chart.bracket(gens[i], gens[j])
            if br.is_zero():
                report.pairs.append(PairRecord(str(gens[i]), str(gens[j]), "0", True, "0"))
                continue
            res = membership(br, B)
            report.pairs.append(
                PairRecord(
                    str(gens[i]),
                    str(gens[j]),
                    str(br),
                    res.member,
                    str(res.certificate) if res.certificate is not None else None,
                )
            )
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for k in range(j + 1, len(gens)):
                s = chart.jacobi_sum(gens[i], gens[j], gens[k])
                report.jacobi.append(
                    JacobiRecord((str(gens[i]), str(gens[j]), str(gens[k])), s.is_zero())
                )
    return report
