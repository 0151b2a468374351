"""Benchmark of the whittaker-mb CLI: ``eval``, ``mellin-table`` and ``verify``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval_d4 --seed 1 --seconds 30 --trace 0

One run is one fresh single-client process with the numerical thread
pools capped at one.  It calls ``whittaker_mb.cli.main(argv)`` in-process,
closed loop, on the workload's seeded op stream (workloads.py) for
``--seconds`` seconds, checks every output (check.py) and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the op stream for a third of the time,
replays each of those ops untraced and with spans around every layer
(spans.py), and reports the per-layer metrics.  A summary goes to stderr.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOADS = ("eval_d4", "many_small", "verify_exact")
THREAD_VARS = ("WHITTAKER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Latency percentiles need this many samples beyond them to be reported.
TAIL_SAMPLES = 10
# Layer self times must add up to the root cli.main spans within this share.
SELF_SUM_REL = 0.01

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def setup_seconds(workload: str) -> list:
    """Wall time of fresh processes from start to the end of the warm-up op."""
    times = []
    for k in range(SETUP_PROBES):
        out = WORK / "probe.out"
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(out)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {k} failed with exit code {code}")
        times.append(elapsed)
    out.unlink(missing_ok=True)
    return times


class Runner:
    """Calls the CLI in-process and checks each output."""

    def __init__(self, cli, checker):
        self.cli = cli
        self.checker = checker
        self.out = WORK / "op.out"

    def invoke(self, op):
        """One op: (exit code, output bytes, wall seconds, problems)."""
        argv = op.argv() + ["--output", str(self.out)]
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            code = "exception"
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        output = self.out.read_bytes() if self.out.exists() else b""
        problems = self.checker.check(op, code, output)
        if problems:
            print(f"FAILED {' '.join(op.argv())}: {'; '.join(problems)}", file=sys.stderr)
        return code, output, elapsed, problems

    def loop(self, passes, seconds: float) -> list:
        """Closed loop over whole passes: the next op starts when the
        previous one is checked.  Stops at the pass boundary nearest to
        ``seconds``, after one pass at least."""
        done = []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            done += [(op,) + self.invoke(op) for op in next(passes)]
            now = time.perf_counter()
            if now - t0 > seconds - (now - start) / 2:
                return done


def end_to_end(done: list, setup: list) -> dict:
    latencies = [t if not problems else math.inf for _, _, _, t, problems in done]
    passed = sum(1 for lat in latencies if math.isfinite(lat))
    n = len(latencies)
    summary = {
        "ops_per_s": passed / sum(t for _, _, _, t, _ in done),
        "latency_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # p90 has n/10 samples beyond it, so it is reported only from 100 ops
    # on; the end-to-end set is the same for every workload, so it goes
    # to the summary, not to the metrics.
    cuts = statistics.quantiles(latencies, n=10) if n >= 2 else []
    p90 = f"{cuts[8]:.6g} s" if n * 0.1 >= TAIL_SAMPLES else f"not reported ({n} ops < 100)"
    print(
        f"{n} ops, {n - passed} failed (failed_frac {(n - passed) / n:.3g}), p90 {p90}, "
        f"setup runs {[round(s, 4) for s in setup]}",
        file=sys.stderr,
    )
    return summary


def traced(runner, passes, seconds: float):
    """The op stream for a third of the time, then each of its ops once
    untraced and once traced; returns (done, metrics, problems).

    The first pass pays the first-use costs of every op kind.  The
    replay pairs each op with itself, alternating which run goes first,
    so the overhead compares runs seconds apart on the same input.
    """
    import spans
    from check import route_error_miss
    from workloads import EvalOp

    first = runner.loop(passes, seconds / 3.0)
    tracer = spans.Tracer()
    plain, again = [], []
    for k, (op, *_) in enumerate(first):
        for on in (k % 2 == 1, k % 2 == 0):
            if on:
                tracer.install()
            else:
                tracer.uninstall()
            (again if on else plain).append((op,) + runner.invoke(op))
    tracer.uninstall()
    problems = []
    for (op, _, out_a, *_), (_, _, out_b, *_), (_, _, out_c, *_) in zip(first, plain, again):
        if not out_a == out_b == out_c:
            problems.append(f"repeated or traced output differs: {' '.join(op.argv())}")
    metrics = tracer.metrics()
    root = metrics["trace.root_s"]
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in spans.LAYERS)
    if not abs(layers - root) <= SELF_SUM_REL * root:
        problems.append(f"layer self times sum to {layers:.6g} s, root spans to {root:.6g} s")
    metrics["quadrature.est_error_misses"] = sum(
        1 for op, _, out, _, bad in again if isinstance(op, EvalOp) and not bad and route_error_miss(out)
    )
    metrics["trace.ops"] = len(again)
    metrics["trace.overhead_frac"] = sum(r[3] for r in again) / sum(r[3] for r in plain) - 1.0
    spans_path = WORK / "spans.tsv"
    tracer.write(spans_path)
    print(f"{len(tracer.names)} spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    return first + plain + again, {k: metrics[k] for k in spans.PER_LAYER_UNITS}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "whittaker_mb" / "cli.py").is_file():
        print(f"error: no whittaker_mb sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded numerics, fixed before numpy is first imported (here
    # and in the set-up probes, which inherit the environment).
    for var in THREAD_VARS:
        os.environ[var] = "1"
    WORK.mkdir(exist_ok=True)
    setup = setup_seconds(args.workload) if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    from whittaker_mb import cli

    from check import Checker
    from workloads import WARMUP, WORKLOADS as STREAMS

    runner = Runner(cli, Checker(SRC / "whittaker_mb" / "schemas"))
    problems = runner.invoke(WARMUP[args.workload])[3]
    passes = STREAMS[args.workload](args.seed)
    if args.trace:
        from spans import PER_LAYER_UNITS as units

        done, values, trace_problems = traced(runner, passes, args.seconds)
        problems = problems + trace_problems
    else:
        units = END_TO_END_UNITS
        done = runner.loop(passes, args.seconds)
        values = end_to_end(done, setup)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    failed = sum(1 for *_, bad in done if bad)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(done),
        "failed": failed,
        "metrics": {
            name: {"value": values[name] if math.isfinite(values[name]) else None, "unit": unit}
            for name, unit in units.items()
        },
    }
    runner.out.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
