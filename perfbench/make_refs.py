"""Generate the stored references that the benchmark checks results against.

    python3 perfbench/make_refs.py [WORKLOAD [POOL]]

Run from the repository root on the commit whose results are the reference.
A change that alters results on purpose lands new references first, as a
benchmark change of its own.  Each pool trial's outcome is written to
``perfbench/refs/<workload>-<pool>.json`` together with max|y_val|, the
scale of the sup_error comparison.
"""

import sys

import benchenv

benchenv.pin_threads()

import json  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def y_val_max(wl: workloads.Workload, i: int):
    """max|y_val| of the validation record pool trial ``i`` is scored on."""
    from wiener_gobf import experiments, pipeline, signals

    if wl.name == "noise":
        return None
    if wl.name == "identify_predict":
        _, y_val = workloads.identify_predict_validation(wl.pool)
    else:
        base = workloads.POOL_BASE[wl.pool] + i
        spec = signals.MultisineSpec(
            n_samples=6 * workloads.VALIDATION_NF,
            n_freqs=workloads.VALIDATION_NF, target_rms=1.0,
            seed=signals.derive_seed(base, "validation"))
        _, y_val = pipeline.simulate(experiments.example1_system(),
                                     signals.generate_multisine(spec),
                                     include_noise=False)
    return float(np.max(np.abs(y_val.samples)))


def make(name: str, pool: str) -> None:
    wl = workloads.setup(name, pool, refs=[])
    trials = []
    for i in range(workloads.POOL_SIZE[name][pool]):
        outcome = wl.outcome(wl.op(i))
        if outcome["failed"]:
            raise SystemExit(f"{name}/{pool} trial {i} failed: {outcome['failed']}")
        outcome["y_val_max"] = y_val_max(wl, i)
        trials.append(outcome)
    doc = {"workload": name, "pool_base": workloads.POOL_BASE[pool],
           "atol": workloads.ATOL, "trials": trials}
    with open(workloads.ref_path(name, pool), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{name}/{pool}: {len(trials)} trials", flush=True)


def main(argv) -> None:
    names = argv[:1] or list(workloads.NAMES)
    pools = argv[1:2] or list(workloads.POOLS)
    for name in names:
        for pool in pools:
            make(name, pool)


if __name__ == "__main__":
    main(sys.argv[1:])
