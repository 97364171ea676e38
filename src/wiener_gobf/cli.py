"""Command-line front end.

Subcommands: generate, simulate, identify, predict, study, scatter.  Each
``cmd_*`` writes its outputs and returns ``(manifest_path, config, seeds,
outputs)``.  ``main`` alone times the run and maps errors to exit codes; on
success it writes the manifest, whose config and seeds re-derive any
result, and prints the first output.  Exit codes: 0 success, 2 usage error or
``InvalidSpecError``, 3 ``EstimationError`` or ``LinAlgError``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, experiments, gobf, pipeline
from .errors import EstimationError, InvalidSpecError, json_kwargs
from .pipeline import IdentifyConfig, WienerModel, WienerSystem
from .signals import (
    MultisineSpec,
    SignalRecord,
    generate_gaussian,
    generate_multisine,
    load_signal,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Failures of the computation itself; bad input is an InvalidSpecError.
NUMERICAL_ERRORS = (EstimationError, np.linalg.LinAlgError)
# What parsing a config, model, signal, records or manifest file raises on
# bad content (JSON syntax errors are ValueErrors).
MALFORMED_FILE_ERRORS = (LookupError, TypeError, ValueError)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _read_file(path, what: str, load):
    """``load(path)``; a missing, unreadable or unparsable file exits 2
    naming it."""
    try:
        return load(path)
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}")
    except OSError as exc:
        raise CliError(f"{what} file {path} cannot be read: {exc.strerror}")
    except MALFORMED_FILE_ERRORS as exc:
        raise CliError(f"{what} file {path} is malformed: {exc!r}")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_config(path) -> dict:
    doc = _read_file(path, "config", _load_json)
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return doc


def _split_name(doc: dict):
    """The optional run name, and the config document without it."""
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise CliError("config key 'name' must be str")
    return name, {k: v for k, v in doc.items() if k != "name"}


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("WIENER_GOBF_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


@dataclass(frozen=True)
class _GaussianConfig:
    """Keys of a ``generate`` document of kind ``gaussian``."""

    n_samples: int
    variance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidSpecError("'n_samples' must be >= 1")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> tuple:
    doc = _load_config(args.config)
    name, spec_doc = _split_name(doc)
    kind = spec_doc.pop("kind", "multisine")
    if args.seed is not None:
        spec_doc["seed"] = args.seed
    out = _out_dir(args)

    if kind == "multisine":
        spec = MultisineSpec.from_json_dict(spec_doc)
        record = generate_multisine(spec)
        generator = spec.to_json_dict()
    elif kind == "gaussian":
        spec = _GaussianConfig(**json_kwargs(_GaussianConfig, spec_doc))
        record = generate_gaussian(spec.n_samples, variance=spec.variance,
                                   seed=spec.seed)
        generator = {"kind": kind, **asdict(spec)}
    else:
        raise CliError(f"unknown signal kind {kind!r}")

    name = name or kind
    csv_path = os.path.join(out, f"{name}.csv")
    json_path = os.path.join(out, f"{name}.json")
    record.to_csv(csv_path)
    record.to_json(json_path, generator=generator)
    return (os.path.join(out, f"{name}.manifest.json"), doc,
            {"seed": spec.seed}, [csv_path, json_path])


def cmd_simulate(args) -> tuple:
    doc = _load_config(args.config)
    name, system_doc = _split_name(doc)
    system = experiments.system_from_json(system_doc)
    if args.noise_off:
        system = WienerSystem(g=system.g, f=system.f, output_noise=None)
    if args.seed is not None and system.output_noise is not None:
        system = system.with_noise_seed(args.seed)
    u = _read_signal(args.input, args)
    out = _out_dir(args)
    name = name or "simulated"

    x, y = pipeline.simulate(system, u)

    outputs = [os.path.join(out, f"{name}_y.csv")]
    y.to_csv(outputs[0])
    if args.oracle:
        outputs.append(os.path.join(out, f"{name}_x.csv"))
        x.to_csv(outputs[1])
    noise = system.output_noise
    return (os.path.join(out, f"{name}_simulate.manifest.json"), doc,
            {"noise_seed": noise.seed if noise else None}, outputs)


def _read_signal(path, args) -> SignalRecord:
    record = _read_file(path, "signal", load_signal)
    if not np.all(np.isfinite(record.samples)):
        raise CliError(f"signal file {path} has non-finite or unparsable samples")
    if record.samples.size == 0:
        raise CliError(f"signal file {path} has no samples")
    if getattr(args, "period", None) is not None:
        if args.period < 1:
            raise CliError(f"--period must be >= 1, not {args.period}")
        record = SignalRecord(samples=record.samples, periodic=True,
                              period_samples=args.period)
    return record


def cmd_identify(args) -> tuple:
    doc = _load_config(args.config)
    name, cfg_doc = _split_name(doc)
    cfg = IdentifyConfig.from_json_dict(cfg_doc)
    if (args.validate_u is None) != (args.validate_y is None):
        raise CliError("--validate-u and --validate-y are given together or "
                       "not at all")
    u = _read_signal(args.u, args)
    y = _read_signal(args.y, args)
    if args.validate_u is not None:
        uv = _read_signal(args.validate_u, args)
        yv = _read_signal(args.validate_y, args)
    model = pipeline.identify(u, y, cfg)

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
    if args.validate_u is not None:
        report["validation_nrmse"] = pipeline.nrmse(yv, pipeline.predict(model, uv))

    out = _out_dir(args)
    name = name or "model"
    model_path = os.path.join(out, f"{name}.json")
    model.to_json(model_path)
    report_path = os.path.join(out, f"{name}_report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
    return (os.path.join(out, f"{name}_identify.manifest.json"), doc, {},
            [model_path, report_path])


def cmd_predict(args) -> tuple:
    model = _read_file(args.model, "model", WienerModel.from_json)
    u = _read_signal(args.u, args)
    out = _out_dir(args)
    name = args.name or "prediction"
    path = os.path.join(out, f"{name}.csv")
    pipeline.predict(model, u).to_csv(path)
    return (os.path.join(out, f"{name}_predict.manifest.json"),
            {"model": args.model}, {}, [path])


def cmd_scatter(args) -> tuple:
    """Intermediate-signal scatter pairs (x_hat, y) for shape inspection."""
    model = _read_file(args.model, "model", WienerModel.from_json)
    u = _read_signal(args.u, args)
    y = _read_signal(args.y, args)
    out = _out_dir(args)
    name = args.name or "scatter"
    X = gobf.bank_outputs(model.bank, u)
    x_hat = pipeline.estimate_intermediate(model.bank, y, X)
    path = os.path.join(out, f"{name}.csv")
    with open(path, "w") as fh:
        fh.write("x_hat,y\n")
        for xh, yv in zip(x_hat, y.samples):
            fh.write(f"{xh:.17g},{yv:.17g}\n")
    return (os.path.join(out, f"{name}_scatter.manifest.json"),
            {"model": args.model}, {}, [path])


def cmd_study(args) -> tuple:
    doc = _load_config(args.config)
    name, cfg_doc = _split_name(doc)
    if args.trials is not None:
        cfg_doc["n_trials"] = args.trials
    if args.seed is not None:
        cfg_doc["base_seed"] = args.seed
    cfg = experiments.StudyConfig.from_json_dict(cfg_doc)

    out = _out_dir(args)
    name = name or cfg.kind
    records_path = os.path.join(out, f"{name}_records.csv")
    manifest_path = os.path.join(out, f"{name}_study.manifest.json")

    prior = []
    if args.resume and os.path.exists(records_path):
        _check_resumable(manifest_path, cfg)
        prior = _read_file(records_path, "records",
                           experiments.StudyResult.read_records_csv)

    result = experiments.run_study(cfg, jobs=args.jobs, prior=prior)
    if result.records and all(r.failed for r in result.records):
        raise CliError("all trials failed", code=EXIT_NUMERICAL)

    result.write_records_csv(records_path)
    aggregates_path = os.path.join(out, f"{name}_aggregates.json")
    result.write_aggregates_json(aggregates_path)
    plot_paths = result.write_plot_data(out, name)
    return (manifest_path, cfg.to_json_dict(), {"base_seed": cfg.base_seed},
            [records_path, aggregates_path] + plot_paths)


def _check_resumable(manifest_path, cfg) -> None:
    """Refuse to add trials to records written under another config."""
    old = _read_file(manifest_path, "manifest",
                     lambda path: _load_json(path)["config"])
    if not isinstance(old, dict):
        raise CliError(f"cannot resume: {manifest_path} holds no study config")
    new = json.loads(json.dumps(cfg.to_json_dict()))
    changed = sorted(k for k in old.keys() | new.keys()
                     if k != "n_trials" and old.get(k) != new.get(k))
    if changed:
        raise CliError(f"cannot resume: the config differs from {manifest_path} "
                       f"in {', '.join(changed)}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-gobf",
        description="Wiener-Schetzen identification with generalized "
                    "orthonormal basis functions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: $WIENER_GOBF_OUT_DIR or .)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("generate", help="synthesize an excitation signal")
    common(p, seed=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run a Wiener system on an input file")
    common(p, seed=True)
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--input", required=True, help="input signal (.csv or .json)")
    p.add_argument("--period", type=int, default=None,
                   help="mark a CSV input as periodic with this period "
                        "(simulated in steady state, not from rest)")
    p.add_argument("--oracle", action="store_true",
                   help="also write the intermediate signal x")
    p.add_argument("--noise-off", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="estimate a model from u/y files")
    common(p)
    p.add_argument("--config", required=True, help="identify config JSON")
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
    common(p, seed=True)
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--resume", action="store_true",
                   help="complete missing trials of an existing records file")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    """Run one command: on success write its manifest and print its first
    output; otherwise print one error line.  Returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    start = time.time()
    try:
        manifest_path, config, seeds, outputs = args.func(args)
    except CliError as exc:
        error, code = exc, exc.code
    except NUMERICAL_ERRORS as exc:
        error, code = exc, EXIT_NUMERICAL
    except InvalidSpecError as exc:
        error, code = exc, EXIT_CONFIG
    else:
        manifest = {"command": args.command, "config": config, "seeds": seeds,
                    "outputs": outputs, "version": __version__,
                    "duration_s": time.time() - start}
        tmp = f"{manifest_path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2)
        os.replace(tmp, manifest_path)
        print(outputs[0])
        return 0
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
