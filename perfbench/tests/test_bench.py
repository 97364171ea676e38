"""Checks of the benchmark itself: the reference check and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import run
import workloads
from tracing import LAYERS, Tracer

COUNT_SUFFIXES = (".calls", ".iterations", ".cells", ".flops", ".count")


@pytest.fixture(scope="module")
def noise():
    return workloads.setup("noise")


def test_reference_check_passes_at_reference(noise):
    for i in range(5):
        _, error = run.run_op(noise, i, run.quiet())
        assert error == ""


@pytest.mark.parametrize("field, delta", [("nrmse", 1e-6), ("nrmse", -2e-9)])
def test_perturbed_reference_fails_the_op(noise, field, delta):
    perturbed = copy.deepcopy(noise)
    cond = perturbed.refs[0]["conditions"]["None/1"]
    cond[field] += delta
    _, error = run.run_op(perturbed, 0, run.quiet())
    assert "nrmse" in error


def test_perturbation_within_tolerance_passes(noise):
    perturbed = copy.deepcopy(noise)
    perturbed.refs[0]["conditions"]["None/1"]["nrmse"] += 1e-11
    _, error = run.run_op(perturbed, 0, run.quiet())
    assert error == ""


def test_wrong_selection_fails_the_op(noise):
    perturbed = copy.deepcopy(noise)
    conds = perturbed.refs[0]["conditions"]
    best = next(k for k, c in conds.items() if c["selected"])
    other = next(k for k, c in conds.items()
                 if not c["selected"] and abs(c["nrmse"] - conds[best]["nrmse"]) > 1e-6)
    conds[best]["selected"], conds[other]["selected"] = False, True
    _, error = run.run_op(perturbed, 0, run.quiet())
    assert error.endswith(f"selected ['{best}'] != reference ['{other}']")


def test_perturbed_sup_error_fails_identify_predict():
    wl = workloads.setup("identify_predict")
    _, error = run.run_op(wl, 0, run.quiet())
    assert error == ""
    cond = wl.refs[0]["conditions"]["2730/3"]
    cond["sup_error"] += 2e-9 * wl.refs[0]["y_val_max"]
    _, error = run.run_op(wl, 0, run.quiet())
    assert "sup_error" in error


def test_raising_op_counts_as_failed(noise):
    broken = copy.copy(noise)
    broken.op = lambda i: 1 / 0
    _, error = run.run_op(broken, 0, run.quiet())
    assert "ZeroDivisionError" in error


def _traced_counts(wl, trials):
    tracer = Tracer()
    tracer.install()
    try:
        for n, i in enumerate(trials):
            _, error = run.run_op(wl, i, tracer.operation(n))
            assert error == ""
    finally:
        tracer.uninstall()
    assert set(wl.expected_spans) <= tracer.fired()
    values = tracer.layer_metrics(len(trials))
    return {k: v for k, v in values.items() if k.endswith(COUNT_SUFFIXES)}


def test_traced_counts_repeat_exactly(noise):
    trials = list(range(40))
    first = _traced_counts(noise, trials)
    second = _traced_counts(noise, trials)
    assert first == second
    assert first["bla.fit_rational.calls"] == 2
    assert first["bla.fit_rational.iterations"] > 0


def test_install_patches_every_binding_and_uninstall_restores():
    from wiener_gobf import experiments, gobf, pipeline, ratfun, signals

    originals = {
        (experiments, "predict"): pipeline.predict,
        (experiments, "build_bank"): gobf.build_bank,
        (experiments, "generate_multisine"): signals.generate_multisine,
        (pipeline, "filter_time"): ratfun.filter_time,
        (pipeline, "generate_noise"): signals.generate_noise,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            bound = getattr(module, name)
            assert bound is not fn and bound.__wrapped__ is fn
        assert not hasattr(pipeline._assemble, "__wrapped__")
    finally:
        tracer.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn


@pytest.mark.parametrize("name", workloads.NAMES)
def test_expected_spans_cover_every_layer(name):
    spans = workloads.setup(name).expected_spans
    assert {span.split(".")[0] for span in spans} == set(LAYERS)


def test_self_time_excludes_children():
    from tracing import Span

    tracer = Tracer()
    tracer.spans = [Span("pipeline.identify", 0.0, 10.0, -1, 0, None, None, None),
                    Span("bla.fit_rational", 1.0, 4.0, 0, 0, None, None, 7),
                    Span("polymodel.fit_ls", 5.0, 9.0, 0, 0, (100, 10), (10, 1), None)]
    tracer.warnings = [{}]
    assert tracer.self_times() == [3.0, 3.0, 4.0]
    values = tracer.layer_metrics(1)
    assert values["pipeline.self_s"] == 3.0
    assert values["bla.fit_rational.iterations"] == 7
    assert values["polymodel.fit_ls.flops"] == 2 * 100 * 10 ** 2


def test_tail_percentile():
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label == "p90.0-p90.0, median of 1 window(s), 100 ops"
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("max of 3 ops")


def test_tail_is_the_median_of_window_tails():
    calm = [1.0] * 490 + [2.0] * 10
    burst = [1.0] * 480 + [9.0] * 20
    value, label = run.tail(calm + burst + calm)
    assert value == 1.0 and "median of 3 window(s)" in label
    value, _ = run.tail(burst + burst + calm)
    assert value == 9.0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric_of_benchmark_json(trace, section):
    root = os.path.dirname(workloads.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noise", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
