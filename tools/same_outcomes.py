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
equal digests also show that two checkouts write the same study files.
Run without arguments, it last runs a fixed ``wiener-gobf`` session (in
process) in a temporary directory: generate, simulate, identify, predict
and scatter, and a ``predict`` of a missing model.  It prints one digest of
each command's exit code, stdout and stderr and of the bytes of every file
in the directory afterwards, manifests without their ``duration_s`` and
the directory's path replaced by a fixed token, so equal digests show that
two checkouts write the same CLI files.  It exits 1 if any op raises or
fails ``Workload.check``, a study does not exit 0, or a session command
does not exit as expected.
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


# The CLI session: configs written first, then (argv, expected exit code);
# "{tmp}" is the session's directory.
SESSION_CONFIGS = {
    "cfg_ms.json": {"kind": "multisine", "n_samples": 1020, "n_freqs": 170,
                    "seed": 1, "name": "u"},
    "cfg_gauss.json": {"kind": "gaussian", "n_samples": 2000, "name": "g"},
    "cfg_ex1.json": {"g": {"b": [1.0, 3.0, 3.0, 1.0],
                           "a": [1.0, -2.1, 1.9, -0.7]},
                     "nonlinearity": {"kind": "polynomial",
                                      "coefficients": [0.0, 1.0, 0.8, 0.7]},
                     "name": "ex1"},
    "cfg_ex2.json": {"preset": "example2_polynomial", "name": "ex2"},
    "cfg_periodic.json": {"n_a": 3, "n_b": 3, "n_rep": 2, "degree": 3,
                          "name": "mp"},
    "cfg_welch.json": {"n_a": 2, "n_b": 2, "n_rep": 1, "degree": 3,
                       "welch_segment": 250, "name": "mw"},
}
SESSION = [
    (["generate", "--config", "{tmp}/cfg_ms.json"], 0),
    (["generate", "--config", "{tmp}/cfg_gauss.json", "--seed", "4"], 0),
    (["simulate", "--config", "{tmp}/cfg_ex1.json", "--input", "{tmp}/u.json",
      "--oracle"], 0),
    (["simulate", "--config", "{tmp}/cfg_ex2.json", "--input", "{tmp}/g.csv",
      "--seed", "9"], 0),
    (["identify", "--config", "{tmp}/cfg_periodic.json", "--u", "{tmp}/u.csv",
      "--y", "{tmp}/ex1_y.csv", "--period", "1020", "--validate-u",
      "{tmp}/u.json", "--validate-y", "{tmp}/ex1_y.csv"], 0),
    (["identify", "--config", "{tmp}/cfg_welch.json", "--u", "{tmp}/g.csv",
      "--y", "{tmp}/ex2_y.csv"], 0),
    (["predict", "--model", "{tmp}/mp.json", "--u", "{tmp}/u.json",
      "--name", "pred"], 0),
    (["scatter", "--model", "{tmp}/mp.json", "--u", "{tmp}/u.json",
      "--y", "{tmp}/ex1_y.csv", "--period", "1020", "--name", "sc"], 0),
    (["predict", "--model", "{tmp}/missing.json", "--u", "{tmp}/u.json"], 2),
]


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


def check_cli_session() -> bool:
    """Run ``SESSION`` in a temporary directory; print its exit codes and
    digest; True when every command exits as expected."""
    from wiener_gobf.cli import main as cli_main

    digest, codes = hashlib.sha256(), []
    with tempfile.TemporaryDirectory() as tmp:
        def fixed(text: str) -> bytes:
            return text.replace(tmp, "{tmp}").encode()

        for name, doc in SESSION_CONFIGS.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        for template, _ in SESSION:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([arg.format(tmp=tmp) for arg in template]
                                + ["--out-dir", tmp])
            codes.append(code)
            digest.update(fixed(f"{template}\n{code}\n{out.getvalue()}\n"
                                f"{err.getvalue()}\n"))
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name)) as fh:
                text = fh.read()
            if name.endswith(".manifest.json"):
                manifest = json.loads(text)
                del manifest["duration_s"]
                text = json.dumps(manifest, indent=2)
            digest.update(fixed(f"{name}\n{text}\n"))
    print(f"cli: exits {' '.join(map(str, codes))}; "
          f"digest {digest.hexdigest()[:16]}", flush=True)
    return codes == [code for _, code in SESSION]


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
        ok &= check_cli_session()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
