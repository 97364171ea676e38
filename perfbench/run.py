"""Benchmark of the wiener_gobf identification toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--heldout]

Run from the root of a checkout; the package is imported from its ``src``.
One caller drives the public API in a closed loop: each operation starts
when the previous one has returned.  ``--seed`` only orders the pool of
reference trials the run draws its inputs from (see ``workloads.py``);
``--heldout`` switches to the held-out pool kept for confirming claims.

``--trace 0`` times the operations with nothing installed and reports the
end-to-end metrics.  ``--trace 1`` is a separate run: it alternates each
input between an untraced and a traced execution, reports the per-layer
metrics from the traced ones and the tracing overhead from the pairs, and
fails if a span the workload must fire never fired.  Every operation's
result is checked against its stored reference.  The last line of standard
output is the result object; the line before it holds the run's details.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from contextlib import contextmanager
from time import perf_counter

import benchenv
from tracing import LAYERS

SETUP_REPEATS = 3
TAIL_MIN_OPS = 20          # op_tail_s needs this many operations ...
TAIL_BEYOND = 10           # ... and this many beyond the reported percentile
TAIL_WINDOW = 500          # ops per window of the tail (see tail())
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

PER_LAYER_UNITS = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("self_s", "s"), ("calls", "count"))},
    "bla.fit_rational.self_s": "s",
    "bla.fit_rational.calls": "count",
    "bla.fit_rational.iterations": "count",
    "bla.estimate_frf.self_s": "s",
    "bla.estimate_frf_welch.self_s": "s",
    "gobf.bank_outputs.self_s": "s",
    "gobf.bank_outputs.calls": "count",
    "gobf.bank_outputs.cells": "count",
    "polymodel.build_regressors.self_s": "s",
    "polymodel.build_regressors.cells": "count",
    "polymodel.fit_ls.self_s": "s",
    "polymodel.fit_ls.calls": "count",
    "polymodel.fit_ls.flops": "flop-computed",
    "polymodel.evaluate.self_s": "s",
    "polymodel.evaluate.calls": "count",
    "pipeline.predict.total_s": "s",
    "warnings.PoleStabilizationWarning.count": "count",
    "warnings.RankDeficiencyWarning.count": "count",
    "warnings.RepeatedPoleWarning.count": "count",
    "warnings.IllConditionedBasisWarning.count": "count",
    "trace.overhead_frac": "ratio",
    "trace.ops": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("convergence", "noise", "identify_predict"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--heldout", action="store_true",
                   help="draw inputs from the held-out reference pool")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


@contextmanager
def quiet():
    """Untraced counterpart of Tracer.operation: warnings recorded, unused."""
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        yield


def run_op(wl, i: int, context) -> tuple:
    """Run pool trial ``i``; return (seconds, "" or why it failed)."""
    start = perf_counter()
    try:
        with context:
            result = wl.op(i)
    except Exception as exc:  # a raising operation is a failed operation
        return perf_counter() - start, f"trial {i}: {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    error = wl.check(i, result)
    return seconds, f"trial {i}: {error}" if error else ""


def time_setups(args) -> list:
    """Seconds from spawning a fresh interpreter to its workload being set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.heldout:
        cmd.append("--heldout")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
    return samples


def tail(durations: list) -> tuple:
    """(value, label) of op_tail_s.

    The ops, in run order, are cut into consecutive windows of equal size,
    as many as make each hold at least TAIL_WINDOW ops.  A window's tail is
    the highest percentile with TAIL_BEYOND ops beyond it (p98 for a
    500-op window); the value is the median over the windows, which keeps
    one burst of machine noise from setting it and keeps the percentile
    from creeping up as ops get faster.  Fewer than TAIL_MIN_OPS ops give
    the slowest op.
    """
    n = len(durations)
    if n < TAIL_MIN_OPS:
        return max(durations), f"max of {n} ops (fewer than {TAIL_MIN_OPS})"
    windows = max(1, n // TAIL_WINDOW)
    tails, pcts = [], []
    for w in range(windows):
        d = sorted(durations[w * n // windows:(w + 1) * n // windows])
        tails.append(d[len(d) - TAIL_BEYOND - 1])
        pcts.append(100.0 * (len(d) - TAIL_BEYOND) / len(d))
    return statistics.median(tails), \
        f"p{min(pcts):.1f}-p{max(pcts):.1f}, median of {windows} window(s), {n} ops"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(wl, order, args, failures) -> tuple:
    """(durations, wall seconds, failed count) of the timed operations."""
    durations = []
    failed = 0
    k = 1
    loop_start = perf_counter()
    while True:
        seconds, error = run_op(wl, order[k % len(order)], quiet())
        k += 1
        durations.append(seconds)
        if error:
            failures.append(error)
            failed += 1
        elapsed = perf_counter() - loop_start
        if elapsed + seconds > args.seconds:
            return durations, elapsed, failed


def traced_run(wl, order, args, failures) -> tuple:
    """Pairs of untraced and traced executions of the same input, the order
    alternating from pair to pair."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    k = 1
    loop_start = perf_counter()
    while True:
        i = order[k % len(order)]
        pair_start = perf_counter()
        for use_tracer in ((True, False) if k % 2 else (False, True)):
            if use_tracer:
                tracer.install()
                seconds, error = run_op(wl, i, tracer.operation(len(traced)))
                tracer.uninstall()
                traced.append(seconds)
            else:
                seconds, error = run_op(wl, i, quiet())
                plain.append(seconds)
            if error:
                failures.append(error)
        k += 1
        elapsed = perf_counter() - loop_start
        if elapsed + (perf_counter() - pair_start) > args.seconds:
            return tracer, plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    process_start = perf_counter()
    benchenv.pin_threads()
    import numpy as np

    import workloads

    pool = "heldout" if args.heldout else "default"
    wl = workloads.setup(args.workload, pool)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    own_setup_s = perf_counter() - process_start

    load_start = os.getloadavg()
    order = np.random.default_rng(args.seed).permutation(wl.pool_size).tolist()
    failures: list = []
    warmup_s, error = run_op(wl, order[0], quiet())
    if error:
        failures.append(error)

    detail = {"workload": args.workload, "pool": pool, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": benchenv.machine_info(), "own_setup_s": own_setup_s,
              "warmup_s": warmup_s}
    if args.trace == 0:
        setups = time_setups(args)
        durations, wall, timed_failed = untraced_run(wl, order, args, failures)
        attempted = len(durations) + 1
        tail_s, tail_label = tail(durations)
        metrics = {
            "ops_per_s": metric((len(durations) - timed_failed) / wall, "1/s"),
            "op_p50_s": metric(statistics.median(durations), "s"),
            "op_tail_s": metric(tail_s, "s"),
            "setup_s": metric(statistics.median(setups) + warmup_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": metric((attempted - len(failures)) / attempted, "ratio"),
        }
        detail.update(ops=len(durations), wall_s=wall, op_tail=tail_label,
                      setup_samples_s=setups, first_ops_s=durations[:20])
    else:
        tracer, plain, traced = traced_run(wl, order, args, failures)
        attempted = len(plain) + len(traced) + 1
        missing = sorted(set(wl.expected_spans) - tracer.fired())
        if missing:
            print(f"spans never fired: {missing}", file=sys.stderr)
            return 1
        values = tracer.layer_metrics(len(traced))
        values["trace.overhead_frac"] = (sum(traced) - sum(plain)) / sum(plain)
        values["trace.ops"] = len(traced)
        metrics = {name: metric(values.get(name, 0), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz")
        tracer.write(spans_path)
        detail.update(ops=len(traced), spans=len(tracer.spans),
                      spans_file=os.path.relpath(spans_path, benchenv.ROOT))

    detail.update(loadavg_start=load_start, loadavg_end=os.getloadavg(),
                  failures=failures[:10])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
