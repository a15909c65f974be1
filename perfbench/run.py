#!/usr/bin/env python3
"""Benchmark of the bsfloer library, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one closed-loop client: each operation starts after the
previous one has finished.  The workload's operations form a round, the same
list every time; the loop repeats whole rounds until S seconds have passed
and at least MIN_OPS operations ran.  Every result is checked by an oracle
outside the timed region, and a failure is counted, not raised.  Times are
scaled to a reference machine speed (see Speed).

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
runs the round untraced, traced and untraced again, reports the per-layer
metrics, the self time of every traced name, the tracing overhead and the
scaling curves, and writes the spans to perfbench/out/.  The last line of
standard output is always one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100
SETUP_PROBES = 9
CURVE_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR",
                   help="only import and parse the inputs, in WORKDIR")
    return p.parse_args(argv)


def bootstrap():
    """Put the library source and this folder on the import path; the
    benchmark runs from source, so a checkout without src/ cannot run."""
    if not os.path.isfile(os.path.join(SRC, "bsfloer", "__init__.py")):
        sys.exit(f"error: no library source at {SRC}")
    sys.path[:0] = [SRC, HERE]


# ---------------------------------------------------------------------------
# measurement


@dataclass(frozen=True)
class _Pick:
    points: tuple


def reference_work():
    """Fixed pure-Python work shaped like the library's own: a backtracking
    enumeration that builds frozen dataclasses, dict and set bookkeeping on
    tuples, and a product of Fraction polynomials.  It is the yardstick of
    the machine's current speed.  Never change it: times scaled by different
    yardsticks do not compare."""
    allowed = [[(i * 7 + j * 3) % 5 != 0 for j in range(6)] for i in range(6)]
    picks, used, chosen = [], set(), []

    def rec(i):
        if i == 6:
            picks.append(_Pick(tuple(chosen)))
            return
        for j in range(6):
            if allowed[i][j] and j not in used:
                used.add(j)
                chosen.append((i, j))
                rec(i + 1)
                chosen.pop()
                used.discard(j)

    rec(0)
    acc = {}
    for p in picks[:300]:
        key = tuple(sorted(j for _, j in p.points[:3]))
        acc[key] = acc.get(key, 0) + (1 if sum(j for _, j in p.points) % 2 else -1)
    a = [Fraction(i, 7) for i in range(1, 6)]
    b = [Fraction(1, i) for i in range(1, 6)]
    prod = [Fraction(0)] * 9
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return len(picks), len(acc), prod[4]


class Speed:
    """Scales measured seconds to seconds at the reference speed.

    On a shared 2-core VM the same code ran up to twice as slow in phases of
    about a second, and process CPU time slowed alike.  So the yardstick is
    timed (best of two) at least every INTERVAL seconds between operations,
    and each operation's time is multiplied by REF_SECONDS over the median
    yardstick time of the samples within WINDOW seconds of it, including at
    least the nearest sample on each side.  The median over a window, not
    the two nearest samples alone, keeps one noisy sample from skewing a
    long operation.
    """

    REF_SECONDS = 0.00125  # the yardstick on a fast 2-core x86 VM
    INTERVAL = 0.1
    WINDOW = 0.3

    def __init__(self):
        self.samples = []  # (time, yardstick seconds), in time order
        self.sample()

    def sample(self):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
        self.samples.append((time.perf_counter(), best))

    def due(self):
        return time.perf_counter() - self.samples[-1][0] >= self.INTERVAL

    def scale(self, spans):
        """Reference-speed seconds of finished (start, end) spans; a sample
        must have been taken after the last span ended."""
        times = [t for t, _ in self.samples]
        out = []
        for start, end in spans:
            lo = min(bisect_left(times, start - self.WINDOW),
                     bisect_left(times, start) - 1)
            hi = max(bisect_right(times, end + self.WINDOW),
                     bisect_right(times, end) + 1)
            ys = [y for _, y in self.samples[max(lo, 0):hi]]
            out.append((end - start) * self.REF_SECONDS / statistics.median(ys))
        return out


def run_op(op):
    """Run op, then check its value outside the timed span; returns
    (start, end, ok)."""
    start = time.perf_counter()
    try:
        value = op.run()
    except Exception:  # a failing operation is counted, not fatal
        return start, time.perf_counter(), False
    end = time.perf_counter()
    try:
        return start, end, bool(op.check(value))
    except Exception:
        return start, end, False


def run_round(ops, speed):
    """Scaled latencies and failed labels of one pass over ops."""
    spans, failed = [], []
    for op in ops:
        start, end, ok = run_op(op)
        spans.append((start, end))
        if not ok:
            failed.append(op.label)
        if speed.due():
            speed.sample()
    speed.sample()
    return speed.scale(spans), failed


def timed_loop(ops, seconds, speed):
    """Repeat whole rounds until `seconds` have passed and MIN_OPS ran.
    Returns scaled latencies, scaled round durations and failed labels."""
    latencies, rounds, failed = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        lat, bad = run_round(ops, speed)
        rounds.append(sum(lat))
        latencies += lat
        failed += bad
    return latencies, rounds, failed


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(workload, seed, speed):
    """Scaled wall seconds of fresh interpreters that import the library and
    parse the workload's inputs; the median of SETUP_PROBES runs."""
    spans = []
    for _ in range(SETUP_PROBES):
        workdir = tempfile.mkdtemp(dir=OUT)
        try:
            start = time.perf_counter()
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", "0", "--setup-probe", workdir],
                           cwd=ROOT, check=True, timeout=120)
            spans.append((start, time.perf_counter()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        speed.sample()
    return statistics.median(speed.scale(spans))


def environment(workload, seed, trace):
    lines = 0
    pkg = os.path.join(SRC, "bsfloer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "src_lines": lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_commit": commit}


# ---------------------------------------------------------------------------
# scaling curves (traced run only)


def measure_curves(seed, speed):
    """Median scaled milliseconds per point (one run for n = 7, which takes
    seconds); returns (metrics, failed labels)."""
    import workloads as W

    metrics, failed = {}, []
    for op in W.curve_ops(seed):
        reps = 1 if op.label.endswith(".n7") else CURVE_REPS
        runs = [run_round([op], speed) for _ in range(reps)]
        metrics[op.label] = 1000 * statistics.median(lat[0] for lat, _ in runs)
        if any(bad for _, bad in runs):
            failed.append(op.label)
    return metrics, failed


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(ops, seconds, setup_s, speed):
    run_round(ops, speed)  # warm-up: lazy tables and caches fill before timing
    latencies, rounds, failed = timed_loop(ops, seconds, speed)
    n = len(latencies)
    p50, p90 = nearest_rank(latencies, 0.5), nearest_rank(latencies, 0.9)
    values = {
        "ops_per_s": len(ops) / statistics.median(rounds),
        "op_p50_ms": 1000 * p50,
        "op_p90_ms": 1000 * p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"timed loop: {len(rounds)} rounds of {len(ops)} operations, "
        f"{sum(rounds):.2f} s at reference speed; throughput is the round "
        "size over the median round",
        f"latency samples: {n}; p90 has {n - math.ceil(0.9 * n)} samples beyond it",
        f"fail_frac {len(failed) / n:.6g} ratio ({len(failed)} of {n})",
        f"setup_s is the median of {SETUP_PROBES} fresh interpreters",
    ]
    return values, n, failed, notes


def traced(ops, seed, speed):
    import tracer as T

    run_round(ops, speed)  # warm-up, as in the untimed run
    before = sum(run_round(ops, speed)[0])
    tr = T.Tracer()
    tr.install()
    try:
        latencies, failed = run_round(ops, speed)
    finally:
        tr.uninstall()
    traced_s = sum(latencies)
    # untraced rounds on both sides, so a drift in speed does not show up
    # as tracing overhead
    untraced_s = (before + sum(run_round(ops, speed)[0])) / 2
    curves, curve_failed = measure_curves(seed, speed)
    extra = dict(curves)
    extra["trace.untraced_s"] = untraced_s
    extra["trace.traced_s"] = traced_s
    extra["trace.overhead_s"] = traced_s - untraced_s
    return tr, extra, len(ops) + len(curves), failed + curve_failed


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(W.WORKLOADS)}")
    if args.setup_probe:
        W.load(args.workload, args.seed, args.setup_probe)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.workload, args.seed, args.trace)
    print("env " + json.dumps(env, sort_keys=True))

    speed = Speed()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, speed)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        loaded = W.load(args.workload, args.seed, workdir)
        ops = W.operations(args.workload, loaded, args.seed, workdir, ROOT)
        if args.trace:
            tr, extra, attempted, failed = traced(ops, args.seed, speed)
            extra["src.bsfloer.lines"] = env["src_lines"]
            declared = spec["per_layer"]
            values = {m["name"]: extra.get(m["name"], tr.value(m["name"]))
                      for m in declared}
            for name, calls, incl, own in tr.span_table():
                print(f"span {name}: calls {calls}, s {incl:.6f}, self_s {own:.6f}")
            print(f"tracing overhead: {extra['trace.overhead_s']:.4f} s "
                  f"({extra['trace.traced_s']:.4f} traced, "
                  f"{extra['trace.untraced_s']:.4f} untraced)")
            tr.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed})
        else:
            declared = spec["end_to_end"]
            values, attempted, failed, notes = end_to_end(ops, args.seconds, setup_s, speed)
            for note in notes:
                print(note)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for label in sorted(set(failed)):
        print(f"failed: {label}")
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                                f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, env=env), fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
