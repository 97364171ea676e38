"""Command-line front end.

Subcommands: generate, simulate, identify, predict, study, scatter.  Every
run writes a manifest next to its outputs so any result can be re-derived
from config + seeds.  Exit codes: 0 success, 2 usage/config error,
3 numerical/estimation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import experiments, gobf, pipeline
from .errors import (
    EstimationError,
    InvalidSpecError,
    RankDeficiencyError,
    SingularityError,
    UnstableFilterError,
)
from .pipeline import IdentifyConfig, WienerModel, WienerSystem
from .ratfun import ZERO_INITIAL
from .signals import (
    MultisineSpec,
    SignalRecord,
    generate_gaussian,
    generate_multisine,
    load_signal,
)

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Failures of the computation itself, as opposed to bad input.
NUMERICAL_ERRORS = (UnstableFilterError, SingularityError, RankDeficiencyError,
                    np.linalg.LinAlgError, EstimationError)
# What parsing a model or signal file raises on bad content (JSON syntax
# errors are ValueErrors).
MALFORMED_FILE_ERRORS = (LookupError, TypeError, ValueError)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


@dataclass
class RunManifest:
    """Provenance for one command invocation, written atomically."""

    command: str
    config: dict
    seeds: dict
    outputs: list = field(default_factory=list)
    version: str = VERSION
    duration_s: float = 0.0

    def write(self, path) -> None:
        doc = {
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "outputs": self.outputs,
            "version": self.version,
            "duration_s": self.duration_s,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
        os.replace(tmp, path)


def _load_config(path) -> dict:
    if path is None:
        raise CliError("a --config file is required")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return doc


def _check_keys(doc: dict, known, context: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise CliError(f"{context}: unknown key(s) {', '.join(unknown)}")


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise CliError(f"{context}: missing required key {key!r}")
    return doc[key]


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("WIENER_GOBF_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _system_from_config(doc: dict) -> WienerSystem:
    if "preset" in doc:
        name = doc["preset"]
        if name not in experiments.SYSTEM_PRESETS:
            raise CliError(f"unknown system preset {name!r}; choose from "
                           f"{sorted(experiments.SYSTEM_PRESETS)}")
        return experiments.SYSTEM_PRESETS[name]()
    try:
        return WienerSystem.from_json_dict(doc)
    except (KeyError, InvalidSpecError) as exc:
        raise CliError(f"invalid system config: {exc}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    start = time.time()
    doc = _load_config(args.config)
    _check_keys(doc, ("kind", "name", "seed", "n_samples", "n_freqs",
                      "sample_period", "target_rms", "variance"), "signal config")
    kind = doc.get("kind", "multisine")
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    out = _out_dir(args)

    if kind == "multisine":
        try:
            spec = MultisineSpec(
                n_samples=int(_require(doc, "n_samples", "multisine config")),
                n_freqs=int(_require(doc, "n_freqs", "multisine config")),
                sample_period=float(doc.get("sample_period", 1.0)),
                target_rms=float(doc.get("target_rms", 1.0)),
                seed=seed,
            )
            record = generate_multisine(spec)
        except InvalidSpecError as exc:
            raise CliError(f"invalid multisine config: {exc}")
        generator = spec.to_json_dict()
    elif kind == "gaussian":
        try:
            record = generate_gaussian(
                int(_require(doc, "n_samples", "gaussian config")),
                variance=float(doc.get("variance", 1.0)),
                seed=seed)
        except InvalidSpecError as exc:
            raise CliError(f"invalid gaussian config: {exc}")
        generator = {"kind": "gaussian", "n_samples": len(record.samples),
                     "variance": float(doc.get("variance", 1.0)), "seed": seed}
    else:
        raise CliError(f"unknown signal kind {kind!r}")

    name = doc.get("name", kind)
    csv_path = os.path.join(out, f"{name}.csv")
    json_path = os.path.join(out, f"{name}.json")
    record.to_csv(csv_path)
    record.to_json(json_path, generator=generator)

    RunManifest(command="generate", config=doc, seeds={"seed": seed},
                outputs=[csv_path, json_path],
                duration_s=time.time() - start).write(
        os.path.join(out, f"{name}.manifest.json"))
    print(csv_path)
    return EXIT_OK


def cmd_simulate(args) -> int:
    start = time.time()
    doc = _load_config(args.config)
    _check_keys(doc, ("name", "preset", "g", "nonlinearity", "noise"),
                "system config")
    system = _system_from_config(doc)
    if args.noise_off:
        system = WienerSystem(g=system.g, f=system.f, output_noise=None)
    if args.seed is not None and system.output_noise is not None:
        system = system.with_noise_seed(args.seed)
    u = _read_signal(args.input, args)
    mode = ZERO_INITIAL if not u.periodic else args.mode
    out = _out_dir(args)
    name = doc.get("name", "simulated")

    x, y = pipeline.simulate(system, u, mode=mode)

    outputs = []
    y_path = os.path.join(out, f"{name}_y.csv")
    y.to_csv(y_path)
    outputs.append(y_path)
    if args.oracle:
        x_path = os.path.join(out, f"{name}_x.csv")
        x.to_csv(x_path)
        outputs.append(x_path)

    RunManifest(command="simulate", config=doc,
                seeds={"noise_seed": system.output_noise.seed
                       if system.output_noise else None},
                outputs=outputs, duration_s=time.time() - start).write(
        os.path.join(out, f"{name}_simulate.manifest.json"))
    print(y_path)
    return EXIT_OK


def _read_signal(path, args) -> SignalRecord:
    if not os.path.exists(path):
        raise CliError(f"signal file not found: {path}")
    try:
        record = load_signal(path)
    except MALFORMED_FILE_ERRORS as exc:
        raise CliError(f"signal file {path} is malformed: {exc!r}")
    if getattr(args, "period", None):
        record = SignalRecord(samples=record.samples, periodic=True,
                              period_samples=args.period)
    return record


def _identify_config_from(doc: dict) -> IdentifyConfig:
    _check_keys(doc, ("name", "n_a", "n_b", "n_rep", "degree", "basis",
                      "filtering", "frf", "n_periods", "welch_segment"),
                "identify config")
    try:
        cfg = IdentifyConfig(
            n_a=int(_require(doc, "n_a", "identify config")),
            n_b=int(_require(doc, "n_b", "identify config")),
            n_rep=int(_require(doc, "n_rep", "identify config")),
            degree=int(_require(doc, "degree", "identify config")),
            basis=doc.get("basis", "hermite"),
            filtering=doc.get("filtering", "periodic-steady-state"),
            frf_method=doc.get("frf", "periodic"),
            n_periods=doc.get("n_periods"),
            welch_segment=doc.get("welch_segment"),
        )
        cfg.validate()
        return cfg
    except (InvalidSpecError, ValueError, TypeError) as exc:
        raise CliError(f"invalid identify config: {exc}")


def cmd_identify(args) -> int:
    start = time.time()
    doc = _load_config(args.config)
    cfg = _identify_config_from(doc)
    u = _read_signal(args.u, args)
    y = _read_signal(args.y, args)
    if len(u.samples) != len(y.samples):
        raise CliError("input and output files have mismatched lengths")
    out = _out_dir(args)
    name = doc.get("name", "model")

    model = pipeline.identify(u, y, cfg)

    model_path = os.path.join(out, f"{name}.json")
    model.to_json(model_path)

    report = {
        "poles": model.provenance.get("bla", {}).get("poles", []),
        "final_cost": model.provenance.get("bla", {}).get("final_cost"),
        "converged": model.provenance.get("bla", {}).get("converged"),
        "n_coefficients": len(model.poly.coefficients),
        "transient_discarded": model.provenance.get("transient_discarded", 0),
    }
    yhat_est = pipeline.predict(model, u)
    report["estimation_nrmse"] = pipeline.nrmse(
        y, yhat_est, discard=model.provenance.get("transient_discarded", 0))
    if args.validate_u and args.validate_y:
        uv = _read_signal(args.validate_u, args)
        yv = _read_signal(args.validate_y, args)
        yhat = pipeline.predict(model, uv)
        report["validation_nrmse"] = pipeline.nrmse(yv, yhat)
    report_path = os.path.join(out, f"{name}_report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)

    RunManifest(command="identify", config=doc, seeds={},
                outputs=[model_path, report_path],
                duration_s=time.time() - start).write(
        os.path.join(out, f"{name}_identify.manifest.json"))
    print(model_path)
    return EXIT_OK


def _read_model(path) -> WienerModel:
    if not os.path.exists(path):
        raise CliError(f"model file not found: {path}")
    try:
        return WienerModel.from_json(path)
    except MALFORMED_FILE_ERRORS as exc:
        raise CliError(f"model file {path} is malformed: {exc!r}")


def cmd_predict(args) -> int:
    start = time.time()
    model = _read_model(args.model)
    u = _read_signal(args.u, args)
    out = _out_dir(args)
    name = args.name or "prediction"
    yhat = pipeline.predict(model, u)
    path = os.path.join(out, f"{name}.csv")
    yhat.to_csv(path)
    RunManifest(command="predict", config={"model": args.model}, seeds={},
                outputs=[path], duration_s=time.time() - start).write(
        os.path.join(out, f"{name}_predict.manifest.json"))
    print(path)
    return EXIT_OK


def cmd_scatter(args) -> int:
    """Intermediate-signal scatter pairs (x_hat, y) for shape inspection."""
    start = time.time()
    model = _read_model(args.model)
    u = _read_signal(args.u, args)
    y = _read_signal(args.y, args)
    out = _out_dir(args)
    name = args.name or "scatter"
    mode = model.provenance.get("config", {}).get("filtering", ZERO_INITIAL)
    X = gobf.bank_outputs(model.bank, u, mode=mode)
    est = pipeline.estimate_intermediate(model.bank, y, X)
    path = os.path.join(out, f"{name}.csv")
    pairs = est.scatter_pairs(y)
    with open(path, "w") as fh:
        fh.write("x_hat,y\n")
        for xh, yv in pairs:
            fh.write(f"{xh:.17g},{yv:.17g}\n")
    RunManifest(command="scatter", config={"model": args.model}, seeds={},
                outputs=[path], duration_s=time.time() - start).write(
        os.path.join(out, f"{name}_scatter.manifest.json"))
    print(path)
    return EXIT_OK


def cmd_study(args) -> int:
    start = time.time()
    doc = _load_config(args.config)
    try:
        cfg = experiments.StudyConfig.from_json_dict(
            {k: v for k, v in doc.items() if k != "name"})
    except (KeyError, TypeError, InvalidSpecError) as exc:
        raise CliError(f"invalid study config: {exc}")
    if args.trials is not None:
        cfg = replace(cfg, n_trials=args.trials)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    try:
        cfg.validate()
    except InvalidSpecError as exc:
        raise CliError(f"invalid study config: {exc}")

    out = _out_dir(args)
    name = doc.get("name", cfg.kind)
    records_path = os.path.join(out, f"{name}_records.csv")

    skip = None
    prior_records = []
    if args.resume and os.path.exists(records_path):
        prior_records = experiments.StudyResult.read_records_csv(records_path)
        skip = {r.trial for r in prior_records}

    result = experiments.run_study(cfg, jobs=args.jobs, skip_trials=skip)

    if prior_records:
        merged = prior_records + result.records
        merged.sort(key=lambda r: (r.trial,
                                   r.n_freqs if r.n_freqs is not None else -1,
                                   r.n_rep if r.n_rep is not None else -1))
        result = experiments.StudyResult(config=cfg, records=merged)

    if result.records and all(r.failed for r in result.records):
        raise CliError("all trials failed", code=EXIT_NUMERICAL)

    result.write_records_csv(records_path)
    aggregates_path = os.path.join(out, f"{name}_aggregates.json")
    result.write_aggregates_json(aggregates_path)
    plot_paths = result.write_plot_data(out)

    RunManifest(command="study", config=cfg.to_json_dict(),
                seeds={"base_seed": cfg.base_seed},
                outputs=[records_path, aggregates_path] + plot_paths,
                duration_s=time.time() - start).write(
        os.path.join(out, f"{name}_study.manifest.json"))
    print(records_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-gobf",
        description="Wiener-Schetzen identification with generalized "
                    "orthonormal basis functions")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: $WIENER_GOBF_OUT_DIR or .)")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("generate", help="synthesize an excitation signal")
    common(p)
    p.add_argument("--config", required=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run a Wiener system on an input file")
    common(p)
    p.add_argument("--config", required=False, help="system config JSON")
    p.add_argument("--input", required=True, help="input signal (.csv or .json)")
    p.add_argument("--period", type=int, default=None,
                   help="mark a CSV input as periodic with this period")
    p.add_argument("--mode", default="periodic-steady-state",
                   choices=["periodic-steady-state", "zero-initial"])
    p.add_argument("--oracle", action="store_true",
                   help="also write the intermediate signal x")
    p.add_argument("--noise-off", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="estimate a model from u/y files")
    common(p)
    p.add_argument("--config", required=False, help="identify config JSON")
    p.add_argument("--u", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--validate-u", default=None)
    p.add_argument("--validate-y", default=None)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("predict", help="simulate an identified model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("scatter", help="export intermediate-signal scatter pairs")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("study", help="run a Monte-Carlo study")
    common(p)
    p.add_argument("--config", required=False)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--resume", action="store_true",
                   help="complete missing trials of an existing records file")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        error, code = exc, exc.code
    except NUMERICAL_ERRORS as exc:
        error, code = exc, EXIT_NUMERICAL
    except InvalidSpecError as exc:
        error, code = exc, EXIT_CONFIG
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
