"""The blowring benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-batch --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``verify-batch``: a cold ``verify all`` and the five negative controls;
- ``compute-cold``: rounds of one-off ``compute`` calls in fresh processes;
- ``brackets-warm``: a stream of Poisson brackets and memberships in this
  process, against bases built in set-up.

Each is a closed loop with one client. blowring is driven through its CLI
(``python -m blowring.cli`` with ``PYTHONPATH=src``) and its public
functions. The work in a run is sized from ``--seconds`` by the seed code's
cost, so a seed fixes the inputs and the number of samples. Every answer is
checked. With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` a separate run under the span recorder gives the per-layer
metrics. Lines before the last one say more: sample counts, the tail
percentile, the share of failed operations and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import brackets_warm  # noqa: E402
import compute_cold  # noqa: E402
import verify_batch  # noqa: E402
from common import SRC  # noqa: E402

WORKLOADS = {
    "verify-batch": verify_batch.run,
    "compute-cold": compute_cold.run,
    "brackets-warm": brackets_warm.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "blowring", "cli.py")):
        print(f"error: no blowring sources under {SRC}", file=sys.stderr)
        return 2

    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    failed = len(outcome.failures)
    for line in outcome.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    info = dict(outcome.info, fail_share=failed / outcome.attempted, workload=args.workload, seed=args.seed)
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
