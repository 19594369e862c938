"""Command-line front end: batch verification and one-off computations.

Exit codes: 0 all checks pass, 1 any check or semantic operation fails,
2 on malformed input or a resource-bound abort. The CLI holds no
mathematical logic; every computation is a library call.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .blowup import FLAVORS, build_blowup, membership
from .centralizer import MODEL_NAMES, declared, kernel_matches_relation, model, model_kernel
from .actions import invariant_generators
from .fractions import RingFraction, parse_fraction
from .fusion import fusion_table
from .groebner import ResourceLimitError, term_budget
from .kring import KRing
from .poisson import bracket_closure_check, standard_chart
from .poly import PolyParseError, parse_poly
from .reports import Config, UsageError
from .rootdata import sl2
from .verify import CONTROLS, SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser's unset copy of a shared flag from clobbering
    # a value given before the subcommand
    S = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=S, help="JSON config file")
    common.add_argument("--output", choices=("json", "csv", "text"), default=S, help="output format")
    common.add_argument("--seed", type=int, default=S, help="verify: seed for randomized property checks")
    common.add_argument("--term-cap", type=int, dest="term_cap", default=S)
    common.add_argument(
        "--timing", action="store_true", default=S, help="verify: report real timings (nondeterministic)"
    )

    parser = argparse.ArgumentParser(
        prog="blowring",
        description="Exact verification of blow-up algebra, centralizer-model and convolution-ring identities.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite", parents=[common])
    v.add_argument("suite", choices=SUITES)
    v.add_argument(
        "--corrupt",
        help=f"negative control: perturb the model datum it names ({', '.join(sorted(CONTROLS))}); "
        "its suite must then fail",
    )

    c = sub.add_parser("compute", help="run one computation", parents=[common])
    c.add_argument("task", choices=tuple(COMPUTE_TASKS))
    c.add_argument("args", nargs="*", help="positional element arguments")
    c.add_argument("--model", choices=MODEL_NAMES + ("S'",))
    c.add_argument("--flavor", choices=FLAVORS)
    c.add_argument("--presentation", choices=("abstract", "localized", "blowup"), default="abstract")
    c.add_argument("--which", default="iota", help="comma-separated involutions for invariants")
    c.add_argument(
        "--degree-bound", type=int, dest="degree_bound",
        help="invariants: exponent-height bound (default |G|, Noether's bound)",
    )
    c.add_argument("--kind", choices=("odin", "dva", "tri"))
    c.add_argument("--a", type=int)
    c.add_argument("--b", type=int)
    c.add_argument("--l", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--kappa", type=int, default=1)
    return parser


def make_config(args) -> tuple[Config, set[str]]:
    """The run configuration, and the names of the settings given as config
    keys or flags (flags win)."""
    settings = Config.read_settings(args.config) if hasattr(args, "config") else {}
    flags = {f.name: getattr(args, f.name) for f in fields(Config) if hasattr(args, f.name)}
    return replace(Config(**settings), **flags), set(settings) | set(flags)  # replace revalidates


def cmd_verify(args, cfg: Config) -> int:
    report = run_suite(args.suite, cfg, corrupt=args.corrupt)
    print(report.render(cfg.output))
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_compute(args, cfg: Config, given: set[str]) -> int:
    unread = [f"--{name}" for name in ("seed", "timing") if name in given]
    unread += ["--output csv"] if cfg.output == "csv" and args.task != "table" else []
    unread += ["--degree-bound"] if args.degree_bound is not None and args.task != "invariants" else []
    _require(not unread, f"compute {args.task} does not read {', '.join(unread)}")
    arity = ELEMENT_ARGUMENTS.get(args.task, 0)
    _require(len(args.args) == arity, f"{args.task} takes {arity} element argument(s), got {args.args}")
    return COMPUTE_TASKS[args.task](args, cfg)


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _parse_fractions(texts, allowed, where: str, parse=parse_fraction, units=None):
    """Parse fraction arguments, rejecting any variable outside ``allowed`` and,
    when ``units`` is given, a negative power of any variable outside it."""
    fracs = []
    for text in texts:
        try:
            fracs.append(RingFraction.of(parse(text)))
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in {text!r}") from None
    foreign = {v for f in fracs for p in (f.num, f.den) for v in p.support_vars()} - set(allowed)
    _require(not foreign, f"variables {sorted(foreign)} are not in the {where} {sorted(allowed)}")
    if units is not None:
        bad = {v for f in fracs for p in (f.num, f.den) for v in p.support_vars() if p.min_degree_in(v) < 0}
        _require(bad <= set(units), f"negative power of a non-unit {sorted(bad - set(units))} in the {where}")
    return fracs


def _compute_kernel(args, cfg) -> int:
    _require(args.model, "kernel requires --model")
    m = model(args.model)
    kernel = model_kernel(m)
    ok = m.relation is None or kernel_matches_relation(m, kernel)
    gens = [m.relation_str] if ok and m.relation else [str(g) for g in kernel.groebner()]
    _emit(cfg, "; ".join(gens) or "0", {"model": m.name, "kernel": gens})
    return EXIT_OK if ok else EXIT_FAIL


def _compute_invariants(args, cfg) -> int:
    _require(args.model, "invariants requires --model")
    row = declared(args.model)
    action = row.action(w for w in args.which.split(",") if w)
    bound = args.degree_bound
    if bound is not None:
        _require(bound >= 1, f"--degree-bound must be positive, got {bound}")
        if bound < action.order():
            print(f"note: degree bound {bound} is below the group order {action.order()} "
                  "(Noether's bound); the list may be incomplete", file=sys.stderr)
    gens = invariant_generators(action, poly_vars=row.coords, degree_bound=bound)
    _emit(cfg, ", ".join(str(g) for g in gens), {"model": row.name, "generators": [str(g) for g in gens]})
    return EXIT_OK


def _compute_multiply(args, cfg) -> int:
    K = KRing()
    units, others = {
        "abstract": ((), ("a", "b", "c")),
        "localized": (("y", "z"), ()),
        "blowup": (K.blowup.ring.laurent_vars, K.blowup.ring.poly_vars),
    }[args.presentation]
    localized = args.presentation == "localized"
    where = f"{args.presentation} presentation"
    parse = parse_fraction if localized else parse_poly
    fracs = _parse_fractions(args.args, units + others, where, parse, units)
    values = [K.convert(f if localized else f.num, args.presentation, "abstract") for f in fracs]
    product = K.ring.nf(values[0] * values[1])
    result = K.convert(product, "abstract", args.presentation)
    _emit(cfg, str(result), {"presentation": args.presentation, "product": str(result)})
    return EXIT_OK


def _compute_bracket(args, cfg) -> int:
    _require(args.flavor, "bracket requires --flavor")
    B = build_blowup(sl2(), args.flavor)
    chart = standard_chart(B, args.kappa)
    parsed = _parse_fractions(args.args, chart.kinds, f"{args.flavor} chart coordinates")
    # over the ring's variable order, as `compute closure` brackets, so both print alike
    ring_vars = B.ring.laurent_vars + B.ring.poly_vars
    f, g = (RingFraction(h.num.with_vars(ring_vars), h.den.with_vars(ring_vars)) for h in parsed)
    br = chart.bracket(f, g)
    res = membership(br, B) if not br.is_zero() else None
    payload = {
        "flavor": args.flavor,
        "bracket": str(br),
        "member": True if res is None else res.member,
        "certificate": "0" if res is None else str(res.certificate),
    }
    _emit(cfg, f"{br}  [member={payload['member']}]", payload)
    return EXIT_OK


def _compute_closure(args, cfg) -> int:
    _require(args.flavor, "closure requires --flavor")
    B = build_blowup(sl2(), args.flavor)
    report = bracket_closure_check(B, kappa=args.kappa)
    data = report.to_dict()
    if cfg.output == "json":
        print(json.dumps(data, indent=2))
    else:
        for p in data["pairs"]:
            print(f"{{{p['f']}, {p['g']}}} = {p['bracket']}  member={p['member']}")
        print(f"passed={data['passed']}")
    return EXIT_OK if data["passed"] else EXIT_FAIL


def _compute_membership(args, cfg) -> int:
    _require(args.flavor, "membership requires --flavor")
    B = build_blowup(sl2(), args.flavor)
    ring_vars = B.ring.laurent_vars + B.ring.poly_vars
    (frac,) = _parse_fractions(args.args, ring_vars, f"{args.flavor} variables")
    res = membership(frac, B)
    payload = {
        "flavor": args.flavor,
        "member": res.member,
        "certificate": str(res.certificate) if res.certificate is not None else None,
    }
    _emit(cfg, f"member={res.member} certificate={payload['certificate']}", payload)
    return EXIT_OK if res.member else EXIT_FAIL


def _compute_table(args, cfg) -> int:
    _require(args.kind, "table requires --kind")
    params = {k: getattr(args, k) for k in (("a", "b", "l") if args.kind == "tri" else ("n", "l"))}
    _require(None not in params.values(), f"{args.kind} requires " + " ".join(f"--{k}" for k in params))
    exp = fusion_table(args.kind, **params)
    if cfg.output == "csv":
        rows = ["kind,params,coeff_q_power,n,m"]
        ptxt = ";".join(f"{k}={v}" for k, v in exp.params.items())
        for t in exp.terms:
            rows.append(f"{exp.kind},{ptxt},{t.q_power},{t.v.n},{t.v.m}")
        print("\n".join(rows))
        if exp.ambiguous:
            print(f"# ambiguous: {exp.note}", file=sys.stderr)
        return EXIT_OK
    payload = {
        "kind": exp.kind,
        "params": exp.params,
        "lhs": exp.lhs_str(),
        "terms": [{"q_power": t.q_power, "n": t.v.n, "m": t.v.m} for t in exp.terms],
        "ambiguous": exp.ambiguous,
        "note": exp.note,
    }
    _emit(cfg, str(exp), payload)
    return EXIT_OK


ELEMENT_ARGUMENTS = {"multiply": 2, "bracket": 2, "membership": 1}

COMPUTE_TASKS = {
    "kernel": _compute_kernel,
    "invariants": _compute_invariants,
    "multiply": _compute_multiply,
    "bracket": _compute_bracket,
    "membership": _compute_membership,
    "table": _compute_table,
    "closure": _compute_closure,
}


def _emit(cfg: Config, text: str, payload: dict):
    if cfg.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # argparse cannot intermix options with trailing element positionals
        # inside a subparser; collect the leftovers ourselves
        args, extra = parser.parse_known_args(argv)
        if args.command == "compute":
            args.args = list(getattr(args, "args", ())) + extra
        elif extra:
            print(f"error: unrecognized arguments {extra}", file=sys.stderr)
            return EXIT_ERROR
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        cfg, given = make_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with term_budget(cfg.term_cap):
            if args.command == "verify":
                return cmd_verify(args, cfg)
            return cmd_compute(args, cfg, given)
    except (UsageError, PolyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
