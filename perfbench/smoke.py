"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks that each workload answers correctly in both modes, that tracing
leaves the bytes of ``verify all --output json`` unchanged (timing off), and
that two traced runs with the same seed give identical counts. Takes about a
minute and a half; ``verify all`` cannot be made smaller.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import brackets_warm  # noqa: E402
import compute_cold  # noqa: E402
import verify_batch  # noqa: E402
from tracer import count_metrics  # noqa: E402

SEED = 7


def main() -> int:
    problems = []

    def expect(ok: bool, what: str, detail=""):
        print(("PASS " if ok else "FAIL ") + what + (f": {detail}" if detail and not ok else ""), flush=True)
        if not ok:
            problems.append(what)

    def correct(outcome, what):
        expect(outcome.attempted > 0 and not outcome.failures, what, "; ".join(outcome.failures[:3]))
        return outcome

    correct(brackets_warm.run(SEED, 1, False), "brackets-warm")
    counts = [count_metrics(correct(brackets_warm.run(SEED, 1, True), "brackets-warm traced").metrics)
              for _ in range(2)]
    expect(counts[0] == counts[1], "brackets-warm: counts repeat across traced runs")

    correct(compute_cold.run(SEED, 1, False, limit=4), "compute-cold, 4 calls")
    counts = [count_metrics(correct(compute_cold.run(SEED, 1, True, limit=4), "compute-cold traced").metrics)
              for _ in range(2)]
    expect(counts[0] == counts[1], "compute-cold: counts repeat across traced runs")

    # the traced batch also compares traced and untraced `verify all --output json` bytes
    traced = correct(verify_batch.run(SEED, 1, True), "verify-batch traced, output bytes unchanged")
    coverage = traced.metrics["trace.coverage_share"][0]
    expect(coverage >= 0.9, "verify-batch: named spans cover at least 90% of traced time", f"{coverage:.3f}")
    expect(traced.metrics["groebner.buchberger.repeat_share"][0] > 0, "verify-batch: repeated bases are seen")

    print("smoke test passed" if not problems else f"{len(problems)} smoke checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
