"""compute-cold: one-off ``blowring compute`` calls, each in a fresh process.

Every call builds its rings and bases from nothing and throws them away, so
import and basis construction dominate. A run goes through whole rounds of
the catalogue below, each round in a seeded order: a draw with replacement
would change the mix of cheap and expensive calls from seed to seed, and the
tail percentile with it.

Expected answers come from the README or were checked with sympy
(``check_catalogue.py``); none was recorded from blowring's own output. The
answers are compared by exact evaluation at seeded Gaussian-rational points
(``oracle.py``), so a change of print form does not count as a wrong answer.
"""

from __future__ import annotations

import json
import random
import statistics

import oracle
from common import Outcome, children_peak_rss_mb, cold_import_s, latency_metrics, run_cli, run_traced_calls, spread

# a round of the catalogue takes about this long on the seed code (2-core host)
NOMINAL_ROUND_S = 10.5

# flavor -> (chart (first var, kind), (second var, kind), generator name, wall fraction)
FLAVOR_DATA = {
    "gg": ((("u", "linear"), ("x", "linear")), "T", "u/x"),
    "Gg": ((("x", "linear"), ("z", "log")), "T", "x/(z^2 - 1)"),
    "gG": ((("y", "log"), ("x", "linear")), "T", "(y^2 - 1)/x"),
    "GG": ((("y", "log"), ("z", "log")), "T", "(y^2 - 1)/(z^2 - 1)"),
    "GGv": ((("t", "log"), ("z", "log")), "T", "(t - 1)/(z^2 - 1)"),
}

# the Weyl-invariant generators of each flavor, in the order of BlowupAlgebra.invariant_gens
GENERATORS = {
    "gg": ["x^2", "u/x"],
    "Gg": ["z + z^-1", "x/(z - z^-1)"],
    "gG": ["x^2", "(y + y^-1)/2", "(y - y^-1)/(2*x)"],
    "GG": ["y + y^-1", "z + z^-1", "(y - y^-1)/(z - z^-1)"],
    "GGv": ["z + z^-1", "t + t^-1", "(t - t^-1)/(z - z^-1)", "(t - 2 + t^-1)/(z^2 - 2 + z^-2)"],
}
CLOSURE_FLAVORS = ("gg", "GG", "GGv")

BRACKET_ARGS = {
    "gg": ("x^2", "u*x^-1"),
    "Gg": ("z+z^-1", "x/(z-z^-1)"),
    "gG": ("x^2", "(y-y^-1)/(2*x)"),
    "GG": ("y + y^-1", "z + z^-1"),
    "GGv": ("t+t^-1", "(t-2+t^-1)/(z^2-2+z^-2)"),
}

# fractions that lie in the blow-up ring, and two that do not
MEMBERS = {
    "gg": "u/x",
    "Gg": "x/(z-z^-1)",
    "gG": "(y-y^-1)/x",
    "GG": "(y^2-1)/(z^2-1)",
    "GGv": "(t-t^-1)/(z-z^-1)",
}
NON_MEMBERS = {"GG": "1/(z^2-1)", "GGv": "1/(z-z^-1)"}

KRING_GENERATOR = "(y^2 - 1)/(z^2 - 1)"  # the GG wall fraction behind T


def _flavor_point(rng, flavor):
    chart, gen, wall_fraction = FLAVOR_DATA[flavor]
    names = [v for v, _ in chart]
    return oracle.random_point(rng, names, deriv=names, extra={gen: wall_fraction}), chart


def _equal(got: str, want_value, env) -> bool:
    return oracle.evaluate(got, oracle.values_only(env)).v == want_value


def _kernel(expected: list[str], coords: str):
    def checker(data, rng):
        got = data["kernel"]
        if len(got) != len(expected):
            return f"kernel {got}, expected {expected}"
        env = oracle.random_point(rng, coords.split())
        for g, e in zip(got, expected):
            if not _equal(g, oracle.evaluate(e, env).v, env):
                return f"kernel {got}, expected {expected}"
        return None

    return checker


def _product_of_inputs(presentation: str, left: str, right: str, expected: str | None):
    def checker(data, rng):
        got = data["product"]
        if presentation == "abstract":
            env = oracle.random_point(rng, ["a", "b", "c"])
            want = oracle.evaluate(expected, env).v
        else:
            extra = {"T": KRING_GENERATOR} if presentation == "blowup" else None
            env = oracle.random_point(rng, ["y", "z"], extra=extra)
            want = (oracle.evaluate(left, env) * oracle.evaluate(right, env)).v
        return None if _equal(got, want, env) else f"product {got!r} is wrong"

    return checker


def _membership(flavor: str, fraction: str, member: bool):
    def checker(data, rng):
        if data["member"] is not member:
            return f"member={data['member']}, expected {member}"
        if not member:
            return None
        env, _ = _flavor_point(rng, flavor)
        want = oracle.evaluate(fraction, env).v
        cert = data["certificate"]
        return None if _equal(cert, want, env) else f"certificate {cert!r} does not equal {fraction}"

    return checker


def _bracket(flavor: str, f: str, g: str):
    def checker(data, rng):
        env, chart = _flavor_point(rng, flavor)
        want = oracle.bracket_at(f, g, env, chart)
        if not _equal(data["bracket"], want, env):
            return f"bracket {data['bracket']!r} is wrong"
        if data["member"] is not True:
            return "bracket is not a member"
        if not _equal(data["certificate"], want, env):
            return f"certificate {data['certificate']!r} does not equal the bracket"
        return None

    return checker


def _closure(flavor: str):
    gens = GENERATORS[flavor]

    def checker(data, rng):
        env, chart = _flavor_point(rng, flavor)
        want_gens = sorted(str(oracle.evaluate(x, env).v) for x in gens)
        seen = set()
        for p in data["pairs"]:
            seen.update((p["f"], p["g"]))
            want = oracle.bracket_at(p["f"], p["g"], env, chart)
            if not _equal(p["bracket"], want, env):
                return f"bracket {{{p['f']}, {p['g']}}} is wrong"
            if p["member"] is not True or not _equal(p["certificate"], want, env):
                return f"certificate of {{{p['f']}, {p['g']}}} is wrong"
        if sorted(str(oracle.evaluate(x, env).v) for x in seen) != want_gens:
            return f"bracketed generators {sorted(seen)}, expected {gens}"
        n = len(gens)
        if len(data["pairs"]) != n * (n - 1) // 2 or len(data["jacobi"]) != n * (n - 1) * (n - 2) // 6:
            return "wrong number of pairs or triples"
        if not all(j["zero"] for j in data["jacobi"]) or data["passed"] is not True:
            return "closure did not pass"
        return None

    return checker


def _invariants(coords: str, expected: list[str]):
    def checker(data, rng):
        env = oracle.random_point(rng, coords.split())
        got = sorted(str(oracle.evaluate(x, env).v) for x in data["generators"])
        want = sorted(str(oracle.evaluate(x, env).v) for x in expected)
        return None if got == want else f"generators {data['generators']}, expected {expected}"

    return checker


def _table(expected_terms):
    def checker(data, rng):
        got = [(t["q_power"], t["n"], t["m"]) for t in data["terms"]]
        return None if got == expected_terms and not data["ambiguous"] else f"terms {got}"

    return checker


def catalogue() -> list[tuple[str, list[str], int, object]]:
    """(label, CLI args, expected exit code, answer check or None)."""
    cat = [
        ("kernel S", ["kernel", "--model", "S"], 0, _kernel(["a*b*c - b^2 - c^2 - 1"], "a b c")),
        ("kernel S-prime", ["kernel", "--model", "S-prime"], 0,
         _kernel(["xi^2 - delta*eta^2 - 1"], "delta xi eta")),
        ("kernel A2-Gg", ["kernel", "--model", "A2-Gg"], 0, _kernel([], "a zeta")),
        ("multiply abstract", ["multiply", "--presentation", "abstract", "c", "a*b-c"], 0,
         _product_of_inputs("abstract", "c", "a*b-c", "b^2 + 1")),
        ("multiply localized",
         ["multiply", "--presentation", "localized", "z+z^-1", "-i*(y-y^-1)/(z-z^-1)"], 0,
         _product_of_inputs("localized", "z+z^-1", "-i*(y-y^-1)/(z-z^-1)", None)),
        ("multiply blowup", ["multiply", "--presentation", "blowup", "z+z^-1", "y+y^-1"], 0,
         _product_of_inputs("blowup", "z+z^-1", "y+y^-1", None)),
        # T is not Weyl-invariant, so it is outside the convolution subring
        ("multiply blowup T", ["multiply", "--presentation", "blowup", "T", "z+z^-1"], 1, None),
        ("invariants S jmath", ["invariants", "--model", "S", "--which", "jmath", "--degree-bound", "2"], 0,
         _invariants("a b c", ["b", "a^2", "c^2", "a*c"])),
        ("table tri", ["table", "--kind", "tri", "--a", "1", "--b", "1", "--l", "2"], 0, _table([(-2, 5, 2)])),
    ]
    for flavor, fraction in MEMBERS.items():
        cat.append((f"membership {flavor}", ["membership", "--flavor", flavor, fraction], 0,
                    _membership(flavor, fraction, True)))
    for flavor, fraction in NON_MEMBERS.items():
        cat.append((f"non-membership {flavor}", ["membership", "--flavor", flavor, fraction], 1,
                    _membership(flavor, fraction, False)))
    for flavor, (f, g) in BRACKET_ARGS.items():
        cat.append((f"bracket {flavor}", ["bracket", "--flavor", flavor, f, g], 0, _bracket(flavor, f, g)))
    for flavor in CLOSURE_FLAVORS:
        cat.append((f"closure {flavor}", ["closure", "--flavor", flavor], 0, _closure(flavor)))
    return [(label, ["compute", *args, "--output", "json"], code, chk) for label, args, code, chk in cat]


def check(call, code: int, checker, rng) -> str | None:
    if call.code != code:
        return f"exit {call.code}, expected {code}: {call.stderr.strip()[-200:]}"
    if checker is None:
        return None
    try:
        return checker(json.loads(call.stdout), rng)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, oracle.OracleParseError) as exc:
        return f"unreadable answer ({type(exc).__name__}: {exc})"


def schedule(seed: int, rounds: int) -> list[tuple]:
    """Whole rounds of the catalogue, each in its own seeded order."""
    rng = random.Random(seed)
    cat = catalogue()
    calls = []
    for _ in range(rounds):
        order = list(cat)
        rng.shuffle(order)
        calls.extend(order)
    return calls


def run(seed: int, seconds: int, trace: bool, limit: int | None = None) -> Outcome:
    """``limit`` keeps only the first calls of the schedule (for the smoke test)."""
    out = Outcome()
    rounds = max(1, round(seconds / NOMINAL_ROUND_S))
    check_rng = random.Random(seed + 1)
    if trace:
        return _run_traced(schedule(seed, 1)[:limit], check_rng, out)
    cold_import_s()  # compiles the byte code; not counted
    setups, latencies = [], []
    for label, args, code, checker in spread(schedule(seed, rounds)[:limit], cold_import_s, setups):
        call = run_cli(args)
        latencies.append(call.seconds)
        out.check(label, check(call, code, checker, check_rng))
    metrics, labels = latency_metrics(latencies)
    out.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **metrics,
        "peak_rss_mb": (children_peak_rss_mb(), "MB"),
    }
    out.info.update(labels)
    out.info["rounds"] = rounds
    return out


def _run_traced(calls, check_rng, out: Outcome) -> Outcome:
    checked = [(label, args, lambda call, c=code, k=checker: check(call, c, k, check_rng))
               for label, args, code, checker in calls]
    return run_traced_calls("compute-cold", checked, out)
