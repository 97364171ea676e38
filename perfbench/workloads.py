"""The benchmark's workloads: fixed inputs, one operation, and its check.

Every operation draws its inputs from a pool of numbered trials whose
results were stored when the references were generated
(``make_refs.py``).  The benchmark seed only chooses the order in which a
run visits the pool, so any seed yields inputs whose correct outputs are
known.  Two pools exist per workload: ``default`` for measuring and
``heldout`` for confirming a claim on inputs not used while a change was
written.

Operations reach the package only through module attributes
(``experiments.run_study``, never a ``from`` import) so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

NAMES = ("convergence", "noise", "identify_predict")
POOLS = ("default", "heldout")

# Study base seed of pool trial i is POOL_BASE[pool] + i.
POOL_BASE = {"default": 1_000_000, "heldout": 2_000_000}
# Trials per pool and workload: enough that a run rarely revisits one.
POOL_SIZE = {
    "convergence": {"default": 48, "heldout": 12},
    "noise": {"default": 2500, "heldout": 500},
    "identify_predict": {"default": 300, "heldout": 60},
}

# Absolute tolerance on nrmse, on sup_error / max|y_val| and on pole_error.
# Absolute, because converged errors reach 1e-8 and below, where a relative
# check would reject a different but equally exact solver.
ATOL = 1e-9

EX1_NF_GRID = (170, 341, 682, 1365, 2730, 5461, 10922)
VALIDATION_NF = 10922          # N = 65532 validation samples
IDENTIFY_NF = 2730             # N = 16380 estimation samples


@dataclass
class Workload:
    """Set-up result: the operation on pool trial ``i`` and its check."""

    name: str
    pool: str
    op: Callable[[int], object]
    outcome: Callable[[object], dict]
    refs: list
    expected_spans: tuple

    @property
    def pool_size(self) -> int:
        return len(self.refs)

    def check(self, i: int, result) -> str:
        """Empty string when ``result`` matches the reference, else why not."""
        return compare(self.outcome(result), self.refs[i])


def ref_path(name: str, pool: str) -> str:
    return os.path.join(REFS_DIR, f"{name}-{pool}.json")


def load_refs(name: str, pool: str) -> list:
    with open(ref_path(name, pool)) as fh:
        doc = json.load(fh)
    if doc["workload"] != name or doc["pool_base"] != POOL_BASE[pool]:
        raise ValueError(f"{ref_path(name, pool)} does not match its workload/pool")
    return doc["trials"]


# ---------------------------------------------------------------------------
# Outcomes and comparison
# ---------------------------------------------------------------------------

def _study_outcome(result) -> dict:
    """Per-condition values of a one-trial StudyResult, keyed "n_freqs/n_rep"."""
    out = {"failed": [r.message for r in result.records if r.failed],
           "conditions": {}}
    for r in result.records:
        out["conditions"][f"{r.n_freqs}/{r.n_rep}"] = {
            "nrmse": r.nrmse, "sup_error": r.sup_error,
            "pole_error": r.pole_error, "selected": r.selected}
    return out


def compare(outcome: dict, ref: dict) -> str:
    """Check one operation's outcome against its stored reference.

    nrmse and pole_error are compared with ``ATOL``, sup_error after
    division by max|y_val|.  ``selected`` must match unless the reference
    validation scores of the two candidates involved are within ``ATOL``.
    """
    if outcome["failed"]:
        return "failed record: " + "; ".join(outcome["failed"])
    got, want = outcome["conditions"], ref["conditions"]
    if set(got) != set(want):
        return f"conditions {sorted(got)} != reference {sorted(want)}"
    for key, w in want.items():
        g = got[key]
        for metric in ("nrmse", "pole_error", "sup_error"):
            a, b = g[metric], w[metric]
            if (a is None) != (b is None):
                return f"{key} {metric} {a!r} != reference {b!r}"
            if a is not None and abs(a - b) > ATOL * (
                    ref["y_val_max"] if metric == "sup_error" else 1.0):
                return f"{key} {metric} {a!r} != reference {b!r}"
    picked = [k for k, g in got.items() if g["selected"]]
    best = [k for k, w in want.items() if w["selected"]]
    if picked != best and not (
            len(picked) == len(best) == 1
            and abs(want[picked[0]]["nrmse"] - want[best[0]]["nrmse"]) <= ATOL):
        return f"selected {picked} != reference {best}"
    return ""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

STUDY_SPANS = ("experiments.run_study", "pipeline.simulate",
               "ratfun.filter_time", "pipeline.estimate_bla_poles",
               "bla.fit_rational", "bla.stabilize_poles", "gobf.build_bank",
               "gobf.bank_outputs", "polymodel.fit_poly_model",
               "polymodel.build_regressors", "polymodel.fit_ls",
               "pipeline.predict", "polymodel.evaluate", "pipeline.nrmse")


def _convergence(pool: str, refs: list) -> Workload:
    from wiener_gobf import experiments

    cfg = experiments.StudyConfig(
        kind=experiments.CONVERGENCE, system=experiments.example1_system(),
        n_trials=1, n_freqs_grid=EX1_NF_GRID, n_rep_set=(1, 2, 3),
        degree=3, basis="hermite", validation_n_freqs=VALIDATION_NF)

    def op(i: int):
        return experiments.run_study(
            replace(cfg, base_seed=POOL_BASE[pool] + i), jobs=1)

    spans = STUDY_SPANS + ("signals.generate_multisine", "bla.estimate_frf",
                           "pipeline.sup_error",
                           "experiments.min_max_pole_distance")
    return Workload("convergence", pool, op, _study_outcome, refs, spans)


def _noise(pool: str, refs: list) -> Workload:
    from wiener_gobf import experiments

    cfg = experiments.StudyConfig(
        kind=experiments.NOISE, system=experiments.example2_polynomial_system(),
        n_trials=1, n_rep_set=(0, 1, 2), n_a=2, n_b=2, degree=3,
        n_samples=1000, welch_segment=250)

    def op(i: int):
        return experiments.run_study(
            replace(cfg, base_seed=POOL_BASE[pool] + i), jobs=1)

    spans = STUDY_SPANS + ("signals.generate_gaussian", "signals.generate_noise",
                           "pipeline.identify", "bla.estimate_frf_welch")
    return Workload("noise", pool, op, _study_outcome, refs, spans)


def identify_predict_validation(pool: str):
    """Fixed Example-1 validation record (N = 65532) and its true output."""
    from wiener_gobf import experiments, pipeline, signals

    spec = experiments.example1_multisine_spec(VALIDATION_NF,
                                               seed=POOL_BASE[pool] - 1)
    u_val = signals.generate_multisine(spec)
    _, y_val = pipeline.simulate(experiments.example1_system(), u_val)
    return u_val, y_val


def _identify_predict(pool: str, refs: list) -> Workload:
    from wiener_gobf import experiments, pipeline, signals

    system = experiments.example1_system()
    u_val, y_val = identify_predict_validation(pool)
    icfg = pipeline.IdentifyConfig(n_a=3, n_b=3, n_rep=3, degree=3)

    def op(i: int):
        spec = experiments.example1_multisine_spec(IDENTIFY_NF,
                                                   seed=POOL_BASE[pool] + i)
        u = signals.generate_multisine(spec)
        _, y = pipeline.simulate(system, u)
        model = pipeline.identify(u, y, icfg)
        yhat = pipeline.predict(model, u_val)
        return (pipeline.nrmse(y_val, yhat), pipeline.sup_error(y_val, yhat))

    def outcome(result) -> dict:
        nrmse, sup = result
        return {"failed": [], "conditions": {f"{IDENTIFY_NF}/3": {
            "nrmse": nrmse, "sup_error": sup, "pole_error": None,
            "selected": None}}}

    spans = ("signals.generate_multisine", "experiments.example1_multisine_spec",
             "pipeline.simulate", "ratfun.filter_time", "pipeline.identify",
             "pipeline.estimate_bla_poles", "bla.estimate_frf",
             "bla.fit_rational", "bla.stabilize_poles", "gobf.build_bank",
             "gobf.bank_outputs", "polymodel.fit_poly_model",
             "polymodel.build_regressors", "polymodel.fit_ls",
             "pipeline.predict", "polymodel.evaluate", "pipeline.nrmse",
             "pipeline.sup_error")
    return Workload("identify_predict", pool, op, outcome, refs, spans)


_BUILDERS = {"convergence": _convergence, "noise": _noise,
             "identify_predict": _identify_predict}


def setup(name: str, pool: str = "default", refs: list | None = None) -> Workload:
    """Import the package, build the workload's fixed inputs, load references.

    ``refs`` replaces the stored references (reference generation passes an
    empty list).
    """
    if refs is None:
        refs = load_refs(name, pool)
    return _BUILDERS[name](pool, refs)
