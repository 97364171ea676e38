"""Summaries of a traced run's spans, printed as markdown tables.

    python3 perfbench/report.py WORKLOAD

Reads ``perfbench/out/spans-WORKLOAD.jsonl.gz`` as the last ``--trace 1``
run of that workload wrote it, and prints each layer's share of the traced
time, the shares of the functions named in ``README.md``, and, for the
``convergence`` workload, the N = 65532 cells of the per-stage baseline
table (median and minimum over the spans).
"""

import gzip
import json
import os
import statistics
import sys
from collections import defaultdict
from math import comb

from tracing import LAYERS, Span, Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
FUNCTIONS = ("polymodel.fit_ls", "polymodel.build_regressors",
             "polymodel.evaluate", "gobf.bank_outputs", "bla.fit_rational")
BASELINE_ROWS = 65532
DEGREE = 3


def load(workload: str) -> Tracer:
    tracer = Tracer()
    path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl.gz")
    with gzip.open(path, "rt") as fh:
        for line in fh:
            doc = json.loads(line)
            for key in ("arg_shape", "out_shape"):
                doc[key] = tuple(doc[key]) if doc[key] else None
            tracer.spans.append(Span(**doc))
    return tracer


def shares(tracer: Tracer) -> tuple:
    """((name, seconds, share) rows, traced seconds); the base of a share is
    the time of the top-level spans."""
    self_s = tracer.self_times()
    total = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    by_name = defaultdict(float)
    for span, t in zip(tracer.spans, self_s):
        by_name[span.name.split(".", 1)[0]] += t
        by_name[span.name] += t
    by_name["pipeline.predict (inclusive)"] = sum(
        s.end - s.start for s in tracer.spans if s.name == "pipeline.predict")
    names = list(LAYERS) + list(FUNCTIONS) + ["pipeline.predict (inclusive)"]
    return [(n, by_name[n], by_name[n] / total) for n in names], total


def baseline_cells(tracer: Tracer) -> dict:
    """(stage, regressor columns) -> span durations at N = 65532 rows."""
    spans = tracer.spans
    cells = defaultdict(list)

    def regressor_cols(channels: int) -> int:
        return comb(channels + DEGREE, DEGREE)

    for span in spans:
        duration = span.end - span.start
        parent = spans[span.parent].name if span.parent >= 0 else ""
        if span.name == "gobf.bank_outputs" and span.out_shape[0] == BASELINE_ROWS \
                and parent != "pipeline.predict":
            cells["bank_outputs", regressor_cols(span.out_shape[1])].append(duration)
        elif span.name in ("polymodel.build_regressors", "polymodel.fit_ls"):
            shape = span.out_shape if span.name.endswith("regressors") else span.arg_shape
            if shape[0] == BASELINE_ROWS:
                cells[span.name.split(".")[1], shape[1]].append(duration)
        elif span.name == "polymodel.evaluate" and parent == "pipeline.predict" \
                and span.arg_shape[0] == BASELINE_ROWS:
            predict = spans[span.parent]
            cells["predict", regressor_cols(span.arg_shape[1])].append(
                predict.end - predict.start)
    return cells


def main(workload: str) -> None:
    tracer = load(workload)
    n_ops = len({s.op for s in tracer.spans})
    rows, total = shares(tracer)
    print(f"{workload}: {n_ops} traced ops, {total / n_ops:.4f} s traced per op\n")
    print("| span | self s per op | share |\n| --- | --- | --- |")
    for name, seconds, share in rows:
        print(f"| `{name}` | {seconds / n_ops:.5f} | {100 * share:.1f}% |")
    if workload == "convergence":
        cells = baseline_cells(tracer)
        print("\n| N = 65532, ms (median / min, count) | 35 cols | 120 | 286 |")
        print("| --- | --- | --- | --- |")
        for stage in ("bank_outputs", "build_regressors", "fit_ls", "predict"):
            row = []
            for cols in (35, 120, 286):
                d = cells.get((stage, cols), [])
                row.append(f"{1e3 * statistics.median(d):.0f} / {1e3 * min(d):.0f}"
                           f" ({len(d)})" if d else "-")
            print(f"| `{stage}` | " + " | ".join(row) + " |")


if __name__ == "__main__":
    main(sys.argv[1])
