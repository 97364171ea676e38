"""Check that the program still gives the benchmark's stored outcomes exactly.

    python3 tools/same_outcomes.py [WORKLOAD [POOL]]

Run from the repository root; the arguments are those of
``perfbench/make_refs.py`` and default to every workload and pool.  Like
the benchmark, it pins BLAS to one thread and imports the package from
``src``.  It runs every trial of each pool and counts the ops whose outcome
equals its stored reference exactly (``==`` on every value), the test a
change meant to keep results bit-identical must pass.  Per pool it prints
that count and, per metric, the largest deviation from the reference, both
absolute and as a share of the tolerance ``Workload.check`` applies (the
benchmark's own check; sup_error is divided by max|y_val| first), the
margin a change that moves results at rounding level keeps.  It also
prints a digest per pool: the first 16 hex digits of the SHA-256 of the
``repr`` of every op's outcome (or of the exception it raised), in trial
order.  Equal digests from two checkouts show that they give equal
outcomes, whether or not those equal the stored references.  Run without
arguments, it also runs ``wiener-gobf study`` (in process, one job) on one
small ascending-grid config per study kind and prints a digest of the
bytes of the records CSV, aggregates JSON and plot-data files it writes, so
equal digests also show that two checkouts write the same study files.  It
exits 1 if any op raises or fails ``Workload.check``, or a study does not
exit 0.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import benchenv  # noqa: E402

benchenv.pin_threads()

import warnings  # noqa: E402

import workloads  # noqa: E402

METRICS = ("nrmse", "pole_error", "sup_error")

# Two trials of each study kind, on grids small enough to run in seconds.
STUDIES = {
    "convergence": {"system": {"preset": "example1"},
                    "n_freqs_grid": [64, 128, 256], "n_rep_set": [1, 2],
                    "validation_n_freqs": 256},
    "noise": {"system": {"preset": "example2_polynomial"},
              "n_rep_set": [0, 1, 2], "n_a": 2, "n_b": 2},
    "pole_rate": {"system": {"preset": "example1"},
                  "n_freqs_grid": [32, 64, 128]},
}


def max_deviation(outcome: dict, ref: dict) -> tuple[dict, dict]:
    """Largest |outcome - reference| per metric over the op's conditions, and
    the same as a share of the check's tolerance; inf where only one side
    has a value or the conditions differ."""
    got, want = outcome["conditions"], ref["conditions"]
    dev, share = dict.fromkeys(METRICS, 0.0), dict.fromkeys(METRICS, 0.0)
    for key, w in want.items():
        g = got.get(key)
        for metric in METRICS:
            if g is None or (g[metric] is None) != (w[metric] is None):
                dev[metric] = share[metric] = float("inf")
            elif w[metric] is not None:
                d = abs(g[metric] - w[metric])
                tol = workloads.ATOL * (ref["y_val_max"] if metric == "sup_error"
                                        else 1.0)
                dev[metric] = max(dev[metric], d)
                share[metric] = max(share[metric], d / tol)
    return dev, share


def check_pool(name: str, pool: str) -> bool:
    """Run every trial of one pool; print the summary; True when all pass
    the benchmark's check."""
    wl = workloads.setup(name, pool)
    digest = hashlib.sha256()
    same, failures = 0, []
    dev, share = dict.fromkeys(METRICS, 0.0), dict.fromkeys(METRICS, 0.0)
    for i in range(wl.pool_size):
        try:
            result = wl.op(i)
        except Exception as exc:  # a raising op is a failed op, keep going
            digest.update(f"{exc!r}\n".encode())
            failures.append(f"trial {i}: raised {exc!r}")
            continue
        outcome, ref = wl.outcome(result), wl.refs[i]
        digest.update(f"{outcome!r}\n".encode())
        same += (not outcome["failed"]
                 and outcome["conditions"] == ref["conditions"])
        op_dev, op_share = max_deviation(outcome, ref)
        for metric in METRICS:
            dev[metric] = max(dev[metric], op_dev[metric])
            share[metric] = max(share[metric], op_share[metric])
        why = wl.check(i, result)
        if why:
            failures.append(f"trial {i}: {why}")
    print(f"{name}/{pool}: {same}/{wl.pool_size} ops == reference, "
          f"{len(failures)} fail the check; max |deviation| "
          + ", ".join(f"{m} {dev[m]:.3g} ({share[m]:.3g} of tolerance)"
                      for m in METRICS)
          + f"; digest {digest.hexdigest()[:16]}", flush=True)
    for line in failures:
        print(f"  {line}", flush=True)
    return not failures


def check_study(kind: str) -> bool:
    """Run ``wiener-gobf study`` on the small config of one kind; print the
    digest of every file it writes but the manifest, which holds the run
    time; True when it exits 0."""
    from wiener_gobf.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "study.json"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            json.dump(dict(STUDIES[kind], kind=kind, n_trials=2, base_seed=1), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["study", "--config", config, "--jobs", "1",
                             "--out-dir", out])
        names = sorted(n for n in os.listdir(out)
                       if not n.endswith(".manifest.json"))
        digest = hashlib.sha256()
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(f"{name}\n".encode() + fh.read())
    print(f"study/{kind}: exit {code}, files {', '.join(names)}; "
          f"digest {digest.hexdigest()[:16]}", flush=True)
    return code == 0


def main(argv) -> int:
    names = argv[:1] or list(workloads.NAMES)
    pools = argv[1:2] or list(workloads.POOLS)
    warnings.simplefilter("ignore")
    ok = True
    for name in names:
        for pool in pools:
            ok &= check_pool(name, pool)
    if not argv:
        for kind in STUDIES:
            ok &= check_study(kind)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
