"""brackets-warm: a stream of Poisson brackets against bases built beforehand.

Runs in this process. Set-up builds the five blow-ups and their standard
charts and warms every division context, so the stream reads bases without
writing them: fraction and polynomial multiplication dominate. Operation k
brackets two operands of flavor k mod 5, each a generator, a sum or a product
of two of the flavor's Weyl-invariant generators, then decides membership of
the result. ``setup_s`` is the median of set-ups in fresh processes, run
between the brackets.

Checks, outside the timed region: the result is a member; the bracket equals
the one recomputed from the operands' derivatives at a seeded point; the
certificate equals it there too, with the blow-up generator replaced by its
wall fraction; and {g, f} = -{f, g}.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

import oracle
from common import SRC, Outcome, latency_metrics, run_child, self_peak_rss_mb, span_path, spread
from compute_cold import FLAVOR_DATA, GENERATORS
from tracer import Totals, Tracer

# brackets per second on the seed code at the slow end of a 2-core host's
# speed range (32 to 52 seen); sizes a run from --seconds
NOMINAL_OPS_PER_S = 32


def _blowring():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from blowring import blowup, fractions, poisson, rootdata

    return blowup, fractions, poisson, rootdata


def setup() -> dict:
    """Build every flavor's blow-up and chart, and warm its division context."""
    blowup, fractions, poisson, rootdata = _blowring()
    out = {}
    for flavor in blowup.FLAVORS:
        B = blowup.build_blowup(rootdata.sl2(), flavor)
        chart = poisson.standard_chart(B)
        res = blowup.membership(fractions.RingFraction(B.numerators[0], B.walls[0]), B)
        if not res.member:
            raise RuntimeError(f"{flavor}: the wall-ratio generator is not a member")
        out[flavor] = (B, chart)
    return out


def fresh_setup_s() -> float:
    """Time of ``setup()`` in a fresh process that has imported blowring.

    A fresh process, so that nothing an earlier set-up left behind in a
    process, such as a cache of bases, can make it cheaper.
    """
    code, stdout, stderr = run_child([sys.executable, os.path.abspath(__file__)], capture=True)
    if code != 0:
        raise RuntimeError(f"set-up failed with exit code {code}: {stderr.strip()[-200:]}")
    return float(stdout)


def stream(seed: int, n: int, world: dict) -> list[tuple]:
    """n operations: (flavor, f, g, text of f, text of g), round-robin over flavors.

    The operand pairs are drawn once, with seed 0, so that the cost of a run
    does not depend on the seed: a few products of wall fractions cost a
    hundred times a plain bracket, and even swapping f and g changes the cost
    of the stream by a tenth. The seed orders the pairs of each flavor and
    picks the points the answers are checked at.
    """
    pairs_rng, rng = random.Random(0), random.Random(seed)
    flavors = list(world)

    def operand(B, texts):
        gens = list(B.invariant_gens)
        kind = pairs_rng.randrange(3)
        i = pairs_rng.randrange(len(gens))
        if kind == 0:
            return gens[i], texts[i]
        j = pairs_rng.randrange(len(gens))
        if kind == 1:
            return gens[i] + gens[j], f"({texts[i]}) + ({texts[j]})"
        return gens[i] * gens[j], f"({texts[i]})*({texts[j]})"

    queues = {flavor: [] for flavor in flavors}
    for k in range(n):
        flavor = flavors[k % len(flavors)]
        B, _ = world[flavor]
        (f, ftext), (g, gtext) = operand(B, GENERATORS[flavor]), operand(B, GENERATORS[flavor])
        queues[flavor].append((flavor, f, g, ftext, gtext))
    for queue in queues.values():
        rng.shuffle(queue)
    return [queues[flavors[k % len(flavors)]][k // len(flavors)] for k in range(n)]


def check(op, br, res, world, rng) -> str | None:
    flavor, f, g, ftext, gtext = op
    B, chart = world[flavor]
    axes, gen, wall_fraction = FLAVOR_DATA[flavor]
    names = [v for v, _ in axes]
    env = oracle.random_point(rng, names, deriv=names, extra={gen: wall_fraction})
    at = oracle.values_only(env)
    try:
        if oracle.evaluate(str(f), at).v != oracle.evaluate(ftext, at).v:
            return f"operand {f} is not {ftext}"
        if oracle.evaluate(str(g), at).v != oracle.evaluate(gtext, at).v:
            return f"operand {g} is not {gtext}"
        want = oracle.bracket_at(ftext, gtext, env, axes)
        if oracle.evaluate(str(br), at).v != want:
            return f"{{{ftext}, {gtext}}} = {br} is wrong"
        if not res.member:
            return f"{{{ftext}, {gtext}}} is not a member"
        if oracle.evaluate(str(res.certificate), at).v != want:
            return f"certificate {res.certificate} of {{{ftext}, {gtext}}} is wrong"
        swapped = oracle.evaluate(str(chart.bracket(g, f)), at).v
        if swapped != (-want[0], -want[1]):
            return f"{{g, f}} != -{{f, g}} for f={ftext}, g={gtext}"
    except (ZeroDivisionError, oracle.OracleParseError) as exc:
        return f"unreadable answer ({type(exc).__name__}: {exc})"
    return None


def _timed_ops(ops, world, blowup) -> tuple[list[float], list]:
    latencies, results = [], []
    for flavor, f, g, _, _ in ops:
        B, chart = world[flavor]
        t0 = time.perf_counter()
        br = chart.bracket(f, g)
        results.append((br, blowup.membership(br, B)))
        latencies.append(time.perf_counter() - t0)
    return latencies, results


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    n = max(1, round(seconds * NOMINAL_OPS_PER_S))
    blowup = _blowring()[0]
    check_rng = random.Random(seed + 1)
    if trace:
        return _run_traced(seed, max(1, n // 4), blowup, check_rng, out)
    world = setup()
    ops = stream(seed, n, world)
    setups = []
    latencies, results = _timed_ops(spread(ops, fresh_setup_s, setups), world, blowup)
    for k, (op, (br, res)) in enumerate(zip(ops, results)):
        out.check(f"bracket {k} ({op[0]})", check(op, br, res, world, check_rng))
    metrics, labels = latency_metrics(latencies)
    out.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **metrics,
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    out.info.update(labels)
    return out


def _run_traced(seed, n, blowup, check_rng, out: Outcome) -> Outcome:
    """Set-up under the span recorder, then n brackets, each untraced and then at once traced.

    Set-up is traced so that the layers it moves (``blowup.build``, division
    contexts, Buchberger) show. Back-to-back copies of each bracket keep
    host-speed drift out of ``trace.overhead_share``.
    """
    tracer = Tracer()
    tracer.install()
    tracer.op = -1
    world = tracer.window(setup)
    plain = traced = 0.0
    for k, op in enumerate(stream(seed, n, world)):
        tracer.bind(False)
        (lat,), ((br, res),) = _timed_ops([op], world, blowup)
        out.check(f"bracket {k} ({op[0]})", check(op, br, res, world, check_rng))
        tracer.bind(True)
        tracer.op = k
        (lat_traced,), ((br_traced, _),) = tracer.window(_timed_ops, [op], world, blowup)
        tracer.bind(False)
        out.check(f"bracket {k} (traced)", None if str(br) == str(br_traced) else "tracing changed the result")
        plain += lat
        traced += lat_traced
    path = span_path("brackets-warm.spans")
    tracer.dump(path)
    totals = Totals()
    totals.add_file(path)
    os.remove(path)
    out.metrics = totals.metrics(traced / plain - 1)
    out.info.update(totals.info())
    return out


if __name__ == "__main__":
    # one sample of fresh_setup_s
    _blowring()
    t0 = time.perf_counter()
    setup()
    print(time.perf_counter() - t0)
