"""Helpers shared by the workloads: child processes, timing and statistics."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from tracer import Totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LAUNCHER = os.path.join(HERE, "launcher.py")
CALL_TIMEOUT_S = 150
SETUP_SAMPLES = 25


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Call:
    code: int
    stdout: str
    stderr: str
    seconds: float


def run_cli(args: list[str], span_file: str | None = None, op: int = 0) -> Call:
    """One cold ``blowring`` CLI process; traced through the launcher when ``span_file`` is set."""
    if span_file is None:
        argv = [sys.executable, "-m", "blowring.cli", *args]
    else:
        argv = [sys.executable, LAUNCHER, span_file, str(op), *args]
    t0 = time.perf_counter()
    code, stdout, stderr = run_child(argv, capture=True)
    return Call(code, stdout, stderr, time.perf_counter() - t0)


def run_child(argv: list[str], capture: bool) -> tuple[int, str, str]:
    """Run a child to its end; a timer kills it if it outlives CALL_TIMEOUT_S.

    The waits block: ``subprocess`` waits with a timeout by polling in steps
    of up to 50 ms, which would quantize every measured time.
    """
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=pipe, stderr=pipe, text=True)
    watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    return proc.returncode, stdout or "", stderr or ""


def cold_import_s() -> float:
    """Time of a fresh interpreter importing ``blowring.cli``: set-up on the cold workloads."""
    t0 = time.perf_counter()
    code, _, _ = run_child([sys.executable, "-c", "import blowring.cli"], capture=False)
    if code != 0:
        raise RuntimeError(f"importing blowring.cli failed with exit code {code}")
    return time.perf_counter() - t0


def spread(ops: list, sample, samples: list):
    """Yield each of ``ops``; between them, append SETUP_SAMPLES results of ``sample()`` to ``samples``.

    The host's speed swings by up to a half within seconds. Set-up samples
    taken in one burst would see one phase of it; spread evenly over the
    run, their median sees the same phases as the operations.
    """
    n = len(ops)
    for i, op in enumerate(ops):
        samples.extend(sample() for _ in range((i + 1) * SETUP_SAMPLES // n - i * SETUP_SAMPLES // n))
        yield op


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, str]:
    """The mean of the samples from the highest whole percentile with at least ten samples beyond it.

    The percentile is taken by nearest rank. A single order statistic there
    was the median of three samples of one call on compute-cold, and moved
    by a third from run to run; the mean of the samples from it up moves
    with host speed only. Up to twenty samples that percentile would not lie
    above the median, so the maximum is reported instead; the label says which.
    """
    xs = sorted(samples)
    n = len(xs)
    pct = math.floor(100 * (1 - 10 / n))
    while pct > 0 and n - math.ceil(pct / 100 * n) < 10:
        pct -= 1
    if pct <= 50:
        return xs[-1], f"max of n={n}"
    beyond = xs[math.ceil(pct / 100 * n) - 1:]
    return statistics.fmean(beyond), f"mean of the {len(beyond)} samples from p{pct} of n={n}"


def latency_metrics(latencies_s: list[float]) -> tuple[dict, dict]:
    """End-to-end latency metrics of one closed-loop client, and their labels."""
    t, label = tail(latencies_s)
    metrics = {
        "p50_ms": (statistics.median(latencies_s) * 1000, "ms"),
        "tail_ms": (t * 1000, "ms"),
        "ops_per_s": (len(latencies_s) / sum(latencies_s), "1/s"),
    }
    return metrics, {"tail": label, "samples": len(latencies_s)}


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: dict = field(default_factory=dict)  # printed, not gated
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, label: str, problem: str | None):
        """Count one attempted operation; ``problem`` is None when its answer was right."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")


def span_path(name: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, name)


def run_traced_calls(name: str, calls: list, out: Outcome) -> Outcome:
    """Each call untraced, then at once under the span recorder; per-layer metrics.

    ``calls`` holds (label, CLI args, check) with ``check(call)`` returning a
    problem or None. Running the two copies of a call back to back keeps
    host-speed drift out of ``trace.overhead_share``; their outputs must
    match byte for byte.
    """
    totals = Totals()
    plain = traced = 0.0
    for op, (label, args, check) in enumerate(calls):
        call = run_cli(args)
        out.check(label, check(call))
        path = span_path(f"{name}-{op}.spans")
        under_trace = run_cli(args, span_file=path, op=op)
        same = under_trace.stdout == call.stdout
        out.check(f"{label} (traced)", check(under_trace) or (None if same else "tracing changed the output"))
        plain += call.seconds
        traced += under_trace.seconds
        if os.path.exists(path):
            totals.add_file(path)
            os.remove(path)
    out.metrics = totals.metrics(traced / plain - 1)
    out.info.update(totals.info())
    return out
