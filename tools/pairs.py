"""Time the working tree against a parent commit in alternating benchmark runs.

    python3 tools/pairs.py --pr N [--parent REV] [--pairs 10]
                           [--workload W ...] [--heldout]

Run from the repository root.  The parent commit (default ``HEAD``) is
exported with ``git archive`` into a temporary directory, which is removed
on every exit; the repository's ``.git`` is only read.  For each workload
(default: every workload of ``BENCHMARK.json``), pair i runs
``perfbench/run.py --workload W --seed 100+i --seconds S`` once in each
tree, with S the benchmark's ``run_seconds``, the parent first in even
pairs and the working tree first in odd ones, so a drift in the
machine's speed falls on both sides alike.

It writes ``BENCH_<N>.json``: the machine block ``run.py`` reports, the
system load average at start and end, and per workload, for each
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles
and the pairs each side won (a tie counts for neither), each side's
``ok_frac`` over all its operations, and every run's metric values.
``tools/same_outcomes.py`` is its equality counterpart.
"""

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
FIRST_SEED = 100


def quartiles(values: list) -> dict:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    """Per-side statistics of one workload's pairs.

    ``pairs`` holds one ``{"parent": result, "change": result}`` per pair,
    each ``result`` the object ``run.py`` prints last; ``better`` maps each
    summarized metric to ``"higher"`` or ``"lower"``.
    """
    metrics = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["parent" if sign * (a - b) > 0 else "change"] += 1
        metrics[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": direction,
            **{side: quartiles(values[side]) for side in SIDES},
            "wins": wins,
        }
    ok_frac = {}
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        ok_frac[side] = (attempted - failed) / attempted
    return {"metrics": metrics, "ok_frac": ok_frac}


def run_bench(tree: str, workload: str, seed: int, seconds: float,
              heldout: bool) -> tuple:
    """(detail, result) of one untraced ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--heldout"] if heldout else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def export_commit(rev: str, dest: str) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True, check=True
                         ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD", help="commit to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   help="repeatable; default every workload of BENCHMARK.json")
    p.add_argument("--heldout", action="store_true",
                   help="draw inputs from the held-out reference pool")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    # SIGTERM unwinds like Ctrl-C, so the exported tree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    loadavg_start, machine, workloads = os.getloadavg(), None, {}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as parent_tree:
        sha = export_commit(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for name in names:
            pairs, runs = [], []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    detail, pair[side] = run_bench(
                        trees[side], name, seed, seconds, args.heldout)
                    machine = machine or detail["machine"]
                pairs.append(pair)
                runs.append({"seed": seed, "first": order[0], **{
                    side: {m: pair[side]["metrics"][m]["value"] for m in better}
                    for side in SIDES}})
                print(f"{name} pair {i}: " + ", ".join(
                    f"{m} {side} {pair[side]['metrics'][m]['value']:.4g}"
                    for m in ("op_p50_s", "peak_rss_mb") for side in SIDES),
                    file=sys.stderr, flush=True)
            workloads[name] = dict(summarize(pairs, better), runs=runs)
    out = {"parent": sha, "change": f"working tree at {head}",
           "pool": "heldout" if args.heldout else "default",
           "pairs": args.pairs, "seconds": seconds,
           "order": f"seed {FIRST_SEED}+i in pair i; parent first in even pairs",
           "machine": machine, "loadavg_start": loadavg_start,
           "loadavg_end": os.getloadavg(), "workloads": workloads}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
