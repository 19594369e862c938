"""verify-batch: the certification users run, then its five negative controls.

One cold ``verify all --seed <seed>``, then each control in a fresh process.
An operation is the whole batch, as a certification job runs it: timing
each of the six processes as an operation of its own would make the median
and the tail single picks among processes of very different lengths, which
host-speed drift moves by up to a fifth from run to run. The times of
``verify all`` and of the controls are reported apart, for information.

Every seed check must be present and have its seed status; each control
must exit 1 with its targeted check failed. Witness text is not compared:
later changes may reword it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics

from common import (HERE, Outcome, children_peak_rss_mb, cold_import_s, latency_metrics, run_cli, run_traced_calls,
                    spread)

# one batch takes about this long on the seed code (2-core host)
NOMINAL_BATCH_S = 22

# corruption target -> (suite, the check the corruption must fail)
CONTROLS = (
    ("kring", "kring", "cubic product relation regenerates the model relation"),
    ("homology", "homology", "homology relation matches the hypersurface-model kernel"),
    ("centralizer:S", "centralizer", "S: parametrization satisfies the relation, involutions preserve it"),
    ("blowup:GG", "blowup", "GG: defining relation reduces to zero"),
    ("blowup:GGv", "blowup", "GGv: defining relation reduces to zero"),
)


def _seed_checks() -> dict[str, str]:
    with open(os.path.join(HERE, "verify_all_checks.json")) as fh:
        return json.load(fh)


def operations(seed: int) -> list[tuple[str, list[str], int, str | None]]:
    """(label, CLI args, expected exit code, targeted check) of one batch."""
    common = ["--seed", str(seed), "--output", "json"]
    ops = [("verify all", ["verify", "all", *common], 0, None)]
    for target, suite, check in CONTROLS:
        ops.append((f"control {target}", ["verify", suite, "--corrupt", target, *common], 1, check))
    return ops


def check(call, expected_code: int, target: str | None, seed_checks: dict) -> str | None:
    if call.code != expected_code:
        return f"exit {call.code}, expected {expected_code}: {call.stderr.strip()[-200:]}"
    try:
        statuses = {c["name"]: c["status"] for c in json.loads(call.stdout)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if target is not None:
        if statuses.get(target) != "fail":
            return f"targeted check {target!r} is {statuses.get(target)!r}, expected 'fail'"
        return None
    for name, status in seed_checks.items():
        if statuses.get(name) != status:
            return f"check {name!r} is {statuses.get(name)!r}, expected {status!r}"
    return None


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    seed_checks = _seed_checks()
    ops = operations(seed)
    if trace:
        return _run_traced(ops, seed_checks, out)
    cold_import_s()  # compiles the byte code; not counted
    setups, batches, verify_all, controls, times = [], [], [], [], []
    n_batches = max(1, round(seconds / NOMINAL_BATCH_S))
    for label, args, code, target in spread(ops * n_batches, cold_import_s, setups):
        call = run_cli(args)
        times.append(call.seconds)
        out.check(label, check(call, code, target, seed_checks))
        if target is None:
            out.info["verify_all_stdout_sha256"] = hashlib.sha256(call.stdout.encode()).hexdigest()
        if len(times) == len(ops):
            batches.append(sum(times))
            verify_all.append(times[0])
            controls.append(sum(times[1:]))
            times = []
    metrics, labels = latency_metrics(batches)
    out.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **metrics,
        "peak_rss_mb": (children_peak_rss_mb(), "MB"),
    }
    out.info["verify_all_s"] = {"value": statistics.median(verify_all), "unit": "s", "samples": len(verify_all)}
    out.info["negative_controls_s"] = {
        "value": statistics.median(controls), "unit": "s", "samples": len(controls)}
    out.info.update(labels)
    return out


def _run_traced(ops, seed_checks, out: Outcome) -> Outcome:
    calls = [(label, args, lambda call, c=code, t=target: check(call, c, t, seed_checks))
             for label, args, code, target in ops]
    return run_traced_calls("verify-batch", calls, out)
