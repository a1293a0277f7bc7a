"""simplexdist benchmark: CLI workloads in a closed loop.

Run from the repository root::

    python3 bench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

One client makes one ``simplexdist.cli.main(argv)`` call at a time, in this
process, with the report captured from stdout and checked.  With
``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json, each call timed against a reference kernel run next to
it (see end_to_end); with ``--trace 1`` it repeats batch 0 alternately without
and with span tracing and reports the per-layer split.  Every call's argv
is printed, one JSON line each, so any call can be rerun by hand; the last
line of stdout is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
SETUP_REPEATS = 9
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The reference kernel: a fixed Fraction sum that times the machine's
# current speed.  REFERENCE_S is its time on a quiet 2-core x86_64 VM with
# Python 3.11, so a paced time reads in seconds at that speed.
REFERENCE_TERMS = 3000
REFERENCE_S = 0.0125
IMPORT_SNIPPET = (
    "import time; start = time.perf_counter(); import numpy, simplexdist; "
    "print(time.perf_counter() - start)"
)


class Runner:
    """Runs and checks calls, keeping the tallies the result line needs."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def invoke(self, call):
        """Run one call, unchecked; returns (seconds, exit code, stdout)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                # looked up per call, so a tracer's wrapper is picked up
                rc = self.cli.main(list(call.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            print(f"call {list(call.argv)} raised {exc!r}", file=sys.stderr)
            rc = None
        return time.perf_counter() - start, rc, out.getvalue()

    def record(self, call, batch: int, seconds: float, rc, stdout: str, **extra):
        """Check one call's report and log it; returns the outcome."""
        outcome = workloads.check(call, rc, stdout)
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            print(f"call {list(call.argv)} failed: {outcome.reason}", file=sys.stderr)
        print(json.dumps({"batch": batch, "argv": ["simplexdist", *call.argv], "exit": rc,
                          "seconds": seconds, **extra, "ok": outcome.ok}))
        return outcome

    def paced(self, call, batch: int):
        """Run and check one call between two passes of the reference
        kernel; returns (its time over the passes' mean time, outcome)."""
        before = reference_seconds()
        seconds, rc, stdout = self.invoke(call)
        after = reference_seconds()
        outcome = self.record(call, batch, seconds, rc, stdout, reference_s=[before, after])
        return seconds * 2 / (before + after), outcome

    def run_batch(self, calls, batch: int):
        """Run and check calls one after another; returns (seconds, outcome) per call."""
        timed = []
        for call in calls:
            seconds, rc, stdout = self.invoke(call)
            timed.append((seconds, self.record(call, batch, seconds, rc, stdout)))
        return timed


def reference_seconds() -> float:
    """Time one pass of the reference kernel, with the garbage collector
    off so that the program's heap does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(i % 97 + 1, i)
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def import_seconds(env) -> float:
    """Time to import numpy and simplexdist in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def paced_import(env) -> float:
    """An import's time over the mean time of the reference passes around it."""
    before = reference_seconds()
    seconds = import_seconds(env)
    return seconds * 2 / (before + reference_seconds())


def fast_call(times) -> float:
    """The time of a call kind at the machine's fast speed: its fifth
    percentile call, which is the fastest call when there are fewer than
    twenty, and past a lucky outlier when there are many."""
    return sorted(times)[len(times) // 20]


def end_to_end(runner, workload, seed, seconds, env) -> dict:
    # The host's speed drifts by up to 2x over seconds to minutes, so every
    # call and import is paced: timed in passes of the reference kernel run
    # next to it on the same processor, and reported as the median pace
    # times REFERENCE_S.  The imports are spread over the run rather than
    # taken in one burst.
    imports, per_kind, outcomes = [], {}, []
    start = time.perf_counter()
    deadline = start + seconds
    batch = 1
    while batch == 1 or time.perf_counter() < deadline:
        for call in workloads.make_batch(workload, seed, batch):
            pace, outcome = runner.paced(call, batch)
            per_kind.setdefault(call.kind, []).append(pace)
            outcomes.append(outcome)
        # one import per ninth of the run, between batches
        if time.perf_counter() - start >= len(imports) * seconds / SETUP_REPEATS:
            imports.append(paced_import(env))
        batch += 1
    imports += [paced_import(env) for _ in range(SETUP_REPEATS - len(imports))]
    kind_s = [statistics.median(paces) * REFERENCE_S for paces in per_kind.values()]
    wall = sum(kind_s)  # every batch makes one call of each kind
    samples = sum(call.samples for call in workloads.make_batch(workload, seed, 1))
    return {
        "setup_s": statistics.median(imports) * REFERENCE_S,
        "wall_s": wall,
        # each call kind counts once, whatever its share of the batch time
        "call_s": statistics.geometric_mean(kind_s),
        "samples_per_s": samples / wall,
        "certified_share": sum(o.certified for o in outcomes) / sum(o.claimed for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_batch(runner, calls, batch: int = 0):
    """Run calls under a tracer, then check them with the tracer off, so the
    checks add no spans; returns (wall seconds, tracer, outcomes)."""
    with tracing.Tracer() as tracer:
        raw = [runner.invoke(call) for call in calls]
    outcomes = [runner.record(call, batch, *result) for call, result in zip(calls, raw)]
    return sum(seconds for seconds, _, _ in raw), tracer, outcomes


def batch_counts(tracer, outcomes) -> dict:
    """The exact counts of one traced batch, keyed by metric name."""
    counts, _ = tracing.counts_and_seconds(tracing.aggregate(tracer.spans))
    counts["cli.report_bytes"] = sum(o.report_bytes for o in outcomes)
    counts["discover.candidates"] = sum(o.candidates for o in outcomes)
    # only discovery reports have candidates, and one without any certified none
    counts["discover.certified"] = sum(o.certified for o in outcomes if o.candidates)
    return counts


def per_layer(runner, workload, seed, seconds) -> dict:
    calls = workloads.make_batch(workload, seed, 0)
    runner.run_batch(calls, 0)  # warm-up, not timed
    plain, traced, layer_seconds = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        plain.append(sum(s for s, _ in runner.run_batch(calls, 0)))
        wall, tracer, outcomes = traced_batch(runner, calls)
        traced.append(wall)
        layer_seconds.append(tracing.counts_and_seconds(tracing.aggregate(tracer.spans))[1])
        if first is None:
            first = (tracer, outcomes)
    tracer, outcomes = first
    tracing.write_spans(SPANS_DIR / f"spans-{workload}-{seed}.json", tracer.spans, tracer.absent)
    if tracer.absent:
        print(json.dumps({"absent_hooks": tracer.absent}))
    metrics = batch_counts(tracer, outcomes)
    # a fast pass, as for the end-to-end times
    for name in layer_seconds[0]:
        metrics[name] = fast_call([s[name] for s in layer_seconds])
    metrics["trace.overhead_s"] = fast_call(traced) - fast_call(plain)
    return metrics


def environment(nproc: int, cpu: int, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "pinned_cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simplexdist" / "__init__.py").is_file():
        print(f"error: no simplexdist sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # One processor, inherited by the set-up imports: on a shared host each
    # processor has its own speed, and the reference kernel must run on the
    # one that it paces.  BLAS reads its thread count once, when numpy is
    # first imported.  One thread: a second one waits on whichever core a
    # neighbour holds, which slowed the SVD-bound calls by half under load.
    allowed = os.sched_getaffinity(0)
    nproc, cpu = len(allowed), max(allowed)
    os.sched_setaffinity(0, {cpu})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    from simplexdist import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: simplexdist was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(nproc, cpu, args.seed), "workload": args.workload}))

    runner = Runner(cli)
    if args.trace:
        values = per_layer(runner, args.workload, args.seed, args.seconds)
    else:
        values = end_to_end(runner, args.workload, args.seed, args.seconds, env)
    if set(values) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares other metrics", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
