"""Span recorder for the traced runs, installed from outside the package.

The recorder wraps public functions and methods of ``blowring`` after the
package is imported. Modules import names directly (``membership`` is bound
in ``centralizer``, ``poisson``, ``kring``, ``verify`` and ``cli``), so a
function wrapper is rebound wherever a ``blowring.*`` module holds the
original, including module-level dicts such as the suite table of
``verify``. Methods are patched on their class, under every attribute name
that holds the original (``__radd__ = __add__`` patches both).

Each span records name, start, end, parent and operation id. Spans stay in
memory and are written out once, by ``Tracer.dump``, when the run ends.
Scalar arithmetic is counted, not timed: there are hundreds of thousands of
scalar operations in one ``verify all``.
"""

from __future__ import annotations

import bisect
import importlib
import json
import sys
import time
from array import array
from collections import Counter

SUITES = ("blowup", "centralizer", "kring", "homology", "heisenberg", "steinberg")

# (span name, module, attribute path) of every timed wrapper
TIMED = (
    ("groebner.buchberger", "blowring.groebner", "buchberger"),
    ("groebner.normal_form", "blowring.groebner", "normal_form"),
    ("groebner.eliminate", "blowring.groebner", "Ideal.eliminate"),
    ("groebner.saturate", "blowring.groebner", "Ideal.saturate"),
    ("groebner.exact_divide", "blowring.groebner", "laurent_exact_divide"),
    ("rings.rewrite", "blowring.rings", "SubalgebraOracle.rewrite"),
    ("rings.divide", "blowring.rings", "PresentedRing.divide"),
    ("poly.mul", "blowring.poly", "LaurentPoly.__mul__"),
    ("poly.add", "blowring.poly", "LaurentPoly.__add__"),
    ("poly.add", "blowring.poly", "LaurentPoly.__sub__"),
    ("poly.add", "blowring.poly", "LaurentPoly.__rsub__"),
    ("fractions.add", "blowring.fractions", "RingFraction.__add__"),
    ("fractions.mul", "blowring.fractions", "RingFraction.__mul__"),
    ("blowup.build", "blowring.blowup", "build_blowup"),
    ("blowup.membership", "blowring.blowup", "membership"),
    ("poisson.bracket", "blowring.poisson", "PoissonChart.bracket"),
    ("poisson.jacobi", "blowring.poisson", "PoissonChart.jacobi_sum"),
    ("centralizer.blowup_match", "blowring.centralizer", "blowup_match"),
    ("centralizer.kernel", "blowring.centralizer", "kernel_of_map"),
    ("kring.init", "blowring.kring", "KRing.__init__"),
    ("kring.convert", "blowring.kring", "KRing.convert"),
    ("kring.convert", "blowring.kring", "KRing.abstract_to_localized"),
    ("kring.convert", "blowring.kring", "KRing.abstract_to_blowup"),
    ("kring.convert", "blowring.kring", "KRing.localized_to_blowup"),
    ("kring.convert", "blowring.kring", "KRing.blowup_to_abstract"),
    ("kring.convert", "blowring.kring", "KRing.localized_to_abstract"),
    ("kring.convert", "blowring.kring", "KRing.blowup_to_localized"),
    ("actions.invariant_generators", "blowring.actions", "invariant_generators"),
    ("heisenberg.mul", "blowring.heisenberg", "HeisenbergElement.__mul__"),
) + tuple((f"verify.suite.{s}", "blowring.verify", f"suite_{s}") for s in SUITES)

# (counter name, module, attribute path) of every count-only wrapper
COUNTED = (
    ("scalars.mul", "blowring.scalars", "GaussianRational.__mul__"),
    ("scalars.add", "blowring.scalars", "GaussianRational.__add__"),
    ("scalars.sub", "blowring.scalars", "GaussianRational.__sub__"),
    ("scalars.sub", "blowring.scalars", "GaussianRational.__rsub__"),
    ("scalars.div", "blowring.scalars", "GaussianRational.__truediv__"),
    ("scalars.div", "blowring.scalars", "GaussianRational.__rtruediv__"),
    ("scalars.div", "blowring.scalars", "GaussianRational.inverse"),
    ("actions.reynolds", "blowring.actions", "GroupAction.reynolds"),
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, op: int = 0):
        self.op = op
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.repeat_spans: set[int] = set()
        self._seen_bases: set = set()
        self.windows: list[tuple[float, float]] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(span, args)`` and ``after(span, args, result)`` add counts."""
        nid = self.name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            if before is not None:
                before(i, args)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a span that no wrapper created."""
        return self.timed(name, fn)(*args)

    def window(self, fn, *args):
        """Run ``fn(*args)`` as one traced window; coverage is measured against it."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.windows.append((t0, time.perf_counter()))

    # -- counters attached to particular wrappers ---------------------------

    def _add_max(self, name: str, value: int):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def _buchberger_hook(self, fn):
        """Flag a basis already computed in this process, up to renaming variables by position."""

        def mark(span, args):
            if repeat:
                self.repeat_spans.add(span)

        timed = self.timed("groebner.buchberger", fn, before=mark, after=self._buchberger_after)

        def wrapper(gens, ring, *args, **kwargs):
            nonlocal repeat
            gens = list(gens)
            key = (
                repr(ring.order),
                len(ring.vars),
                tuple(sorted(
                    tuple(sorted((e, c.re, c.im) for e, c in ring.align(g).terms.items()))
                    for g in gens
                )),
            )
            repeat = key in self._seen_bases
            self._seen_bases.add(key)
            return timed(gens, ring, *args, **kwargs)

        repeat = False
        return wrapper

    def _buchberger_after(self, span, args, basis):
        self.counts["groebner.buchberger.basis_terms"] += sum(len(g.terms) for g in basis)

    def _normal_form_after(self, span, args, result):
        self.counts["groebner.normal_form.terms_out"] += len(result.terms)

    def _poly_mul_after(self, span, args, result):
        self.counts["poly.mul.terms_out"] += len(result.terms)

    def _fraction_after(self, span, args, result):
        self._add_max("fractions.den_terms", len(result.den.terms))

    def _membership_after(self, span, args, result):
        self.counts["blowup.membership.members"] += bool(result.member)

    def _rewrite_hook(self, fn):
        """Time the lazy oracle basis apart from the rewrite that triggers it."""
        rewrite = self.timed("rings.rewrite", fn, after=self._rewrite_after)

        def wrapper(oracle, f):
            if getattr(oracle.ideal, "_gb", ()) is None:
                self.counts["rings.oracle.builds"] += 1
                self.span("rings.oracle.build", oracle.ideal.groebner)
            return rewrite(oracle, f)

        return wrapper

    def _rewrite_after(self, span, args, result):
        self.counts["rings.rewrite.hits"] += result is not None

    def _divide_hook(self, fn):
        """Count division contexts built, from the size of the ring's context cache."""
        divide = self.timed("rings.divide", fn)

        def wrapper(ring, *args, **kwargs):
            before = len(getattr(ring, "_division_cache", ()))
            try:
                return divide(ring, *args, **kwargs)
            finally:
                self.counts["rings.divide.ctx_builds"] += (
                    len(getattr(ring, "_division_cache", ())) > before
                )

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Import ``blowring`` and rebind every wrapped name."""
        import blowring  # noqa: F401  (loads every submodule)

        hooks = {
            "groebner.normal_form": dict(after=self._normal_form_after),
            "poly.mul": dict(after=self._poly_mul_after),
            "fractions.add": dict(after=self._fraction_after),
            "fractions.mul": dict(after=self._fraction_after),
            "blowup.membership": dict(after=self._membership_after),
        }
        for name, module, path in TIMED:
            if name == "groebner.buchberger":
                self._patch(module, path, self._buchberger_hook)
            elif name == "rings.rewrite":
                self._patch(module, path, self._rewrite_hook)
            elif name == "rings.divide":
                self._patch(module, path, self._divide_hook)
            else:
                self._patch(module, path, lambda fn, n=name: self.timed(n, fn, **hooks.get(n, {})))
        for name, module, path in COUNTED:
            self._patch(module, path, lambda fn, n=name: self.counted(n, fn))

    def _patch(self, module_name: str, path: str, make):
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            # a later refactor may remove the name; its metrics then read 0
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make(original)
        if owner_name:
            containers = [owner]
        else:
            containers = [mod for name, mod in list(sys.modules.items())
                          if mod is not None and (name == "blowring" or name.startswith("blowring."))]
            # module-level tables, such as the suite table of verify, hold functions too
            containers += [v for mod in containers for v in vars(mod).values() if isinstance(v, dict)]
        for container in containers:
            items = container if isinstance(container, dict) else vars(container)
            for key, value in list(items.items()):
                if value is original:
                    self._bindings.append((container, key, original, wrapper))
        self.bind(True)

    def bind(self, active: bool):
        """Point every patched name at its wrapper (recording) or at the original."""
        for container, key, original, wrapper in self._bindings:
            value = wrapper if active else original
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    # -- output -------------------------------------------------------------

    def dump(self, path: str):
        """Write every span and counter: a JSON header line, then the raw span arrays."""
        n = len(self.span_start)
        header = {
            "names": self.names,
            "spans": n,
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "repeat_spans": sorted(self.repeat_spans),
            "windows": self.windows,
            "missing": self.missing,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = {}
        for key, code in (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i")):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays[key] = arr
    return header, arrays


class Totals:
    """Per-layer sums over the span files of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()  # outermost spans per name
        self.incl: Counter = Counter()  # inclusive seconds of outermost spans
        self.self_s: Counter = Counter()  # self seconds of every span
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.build_self = 0.0  # normal_form self time under a buchberger span
        self.repeat_calls = 0
        self.repeat_s = 0.0
        self.window_s = 0.0
        self.covered_s = 0.0
        self.spans = 0
        self.missing: set[str] = set()

    def add_file(self, path: str):
        header, a = load(path)
        names = header["names"]
        nid = {n: i for i, n in enumerate(names)}
        bb = nid.get("groebner.buchberger", -1)
        nf = nid.get("groebner.normal_form", -1)
        name, start, end, parent = a["name"], a["start"], a["end"], a["parent"]
        n = len(start)
        child = array("d", bytes(8 * n))
        under_bb = bytearray(n)
        # ancestors of span i have smaller indices, so one forward pass sees them first
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                under_bb[i] = under_bb[p] or name[p] == bb
        same_name_ancestor = _same_name_ancestor(name, parent)
        windows = sorted(header["windows"])
        starts_of_windows = [w[0] for w in windows]
        for i in range(n):
            dur = end[i] - start[i]
            label = names[name[i]]
            own = dur - child[i]
            self.self_s[label] += own
            if name[i] == nf and under_bb[i]:
                self.build_self += own
            if not same_name_ancestor[i]:
                self.calls[label] += 1
                self.incl[label] += dur
            if parent[i] < 0 and _inside(windows, starts_of_windows, start[i], end[i]):
                self.covered_s += dur
        for i in header["repeat_spans"]:
            self.repeat_calls += 1
            self.repeat_s += end[i] - start[i]
        self.counts.update(header["counts"])
        for key, value in header["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)
        self.window_s += sum(t1 - t0 for t0, t1 in header["windows"])
        self.spans += n
        self.missing.update(header["missing"])

    def info(self) -> dict:
        return {"spans": self.spans, "not_wrapped": sorted(self.missing)}

    def metrics(self, overhead_share: float) -> dict[str, tuple[float, str]]:
        c, incl, own, cnt = self.calls, self.incl, self.self_s, self.counts

        def share(num, den):
            return num / den if den else 0.0

        m = {
            "groebner.buchberger.calls": (c["groebner.buchberger"], "count"),
            "groebner.buchberger.self_s": (own["groebner.buchberger"], "s"),
            "groebner.buchberger.basis_terms": (cnt["groebner.buchberger.basis_terms"], "count"),
            "groebner.buchberger.repeat_share": (share(self.repeat_calls, c["groebner.buchberger"]), "ratio"),
            "groebner.buchberger.repeat_s": (self.repeat_s, "s"),
            "groebner.normal_form.calls": (c["groebner.normal_form"], "count"),
            "groebner.normal_form.terms_out": (cnt["groebner.normal_form.terms_out"], "count"),
            "groebner.normal_form.build_self_s": (self.build_self, "s"),
            "groebner.normal_form.reduce_self_s": (own["groebner.normal_form"] - self.build_self, "s"),
            "groebner.eliminate.s": (incl["groebner.eliminate"], "s"),
            "groebner.saturate.s": (incl["groebner.saturate"], "s"),
            "groebner.exact_divide.self_s": (own["groebner.exact_divide"], "s"),
            "rings.oracle.builds": (cnt["rings.oracle.builds"], "count"),
            "rings.oracle.build_s": (incl["rings.oracle.build"], "s"),
            "rings.rewrite.calls": (c["rings.rewrite"], "count"),
            "rings.rewrite.s": (incl["rings.rewrite"], "s"),
            "rings.rewrite.hit_share": (share(cnt["rings.rewrite.hits"], c["rings.rewrite"]), "ratio"),
            "rings.divide.calls": (c["rings.divide"], "count"),
            "rings.divide.ctx_builds": (cnt["rings.divide.ctx_builds"], "count"),
            "rings.divide.s": (incl["rings.divide"], "s"),
            "scalars.mul.calls": (cnt["scalars.mul"], "count"),
            "scalars.add.calls": (cnt["scalars.add"], "count"),
            "scalars.sub.calls": (cnt["scalars.sub"], "count"),
            "scalars.div.calls": (cnt["scalars.div"], "count"),
            "poly.mul.calls": (c["poly.mul"], "count"),
            "poly.mul.self_s": (own["poly.mul"], "s"),
            "poly.mul.terms_out": (cnt["poly.mul.terms_out"], "count"),
            "poly.add.self_s": (own["poly.add"], "s"),
            "fractions.add.calls": (c["fractions.add"], "count"),
            "fractions.add.s": (incl["fractions.add"], "s"),
            "fractions.mul.calls": (c["fractions.mul"], "count"),
            "fractions.mul.s": (incl["fractions.mul"], "s"),
            "fractions.den_terms.max": (self.maxima.get("fractions.den_terms", 0), "count"),
            "blowup.build.s": (incl["blowup.build"], "s"),
            "blowup.membership.calls": (c["blowup.membership"], "count"),
            "blowup.membership.s": (incl["blowup.membership"], "s"),
            "blowup.membership.member_share": (
                share(cnt["blowup.membership.members"], c["blowup.membership"]), "ratio"),
            "poisson.bracket.calls": (c["poisson.bracket"], "count"),
            "poisson.bracket.s": (incl["poisson.bracket"], "s"),
            "poisson.jacobi.s": (incl["poisson.jacobi"], "s"),
            "centralizer.blowup_match.s": (incl["centralizer.blowup_match"], "s"),
            "centralizer.kernel.s": (incl["centralizer.kernel"], "s"),
            "kring.init.s": (incl["kring.init"], "s"),
            "kring.convert.s": (incl["kring.convert"], "s"),
            "actions.invariant_generators.s": (incl["actions.invariant_generators"], "s"),
            "actions.reynolds.calls": (cnt["actions.reynolds"], "count"),
            "heisenberg.mul.s": (incl["heisenberg.mul"], "s"),
        }
        for s in SUITES:
            m[f"verify.suite.{s}.s"] = (incl[f"verify.suite.{s}"], "s")
        m["trace.overhead_share"] = (overhead_share, "ratio")
        m["trace.coverage_share"] = (share(self.covered_s, self.window_s), "ratio")
        return {k: (float(v) if unit != "count" else v, unit) for k, (v, unit) in m.items()}


def _inside(windows, window_starts, t0: float, t1: float) -> bool:
    """Whether [t0, t1] lies in one of the sorted traced windows."""
    k = bisect.bisect_right(window_starts, t0) - 1
    return k >= 0 and t1 <= windows[k][1]


def _same_name_ancestor(name, parent) -> bytearray:
    """Flag spans nested, at any depth, inside a span of the same name."""
    n = len(name)
    flags = bytearray(n)
    # the set of names open above each span; few distinct sets exist, so share them
    interned: dict = {}
    empty = frozenset()
    above = [empty] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            key = (above[p], name[p])
            s = interned.get(key)
            if s is None:
                s = interned[key] = above[p] | {name[p]}
            above[i] = s
            flags[i] = name[i] in s
    return flags


def count_metrics(metrics: dict) -> dict:
    """The exact counters among the per-layer metrics (they must repeat run to run)."""
    return {k: v for k, v in metrics.items() if v[1] == "count"}
