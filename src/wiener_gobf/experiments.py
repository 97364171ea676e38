"""Monte-Carlo studies: convergence rates, pole-estimate rates, noisy-case
error distributions, repetition-count selection, and log-log slope fits.

Trials are independent work items seeded from (base_seed, trial, ...) so a
study is reproducible record-for-record regardless of execution order or
worker count.
"""

from __future__ import annotations

import csv
import ctypes
import itertools
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from . import polymodel
from .bla import welch_segment_length
from .errors import EstimationError, InvalidSpecError, json_kwargs
from .pipeline import (
    IdentifyConfig,
    StaticNonlinearity,
    WienerSystem,
    _assemble,
    estimate_bla_poles,
    identify,
    nrmse,
    predict,
    simulate,
    sup_error,
)
from .gobf import bank_outputs, build_bank, transient_length
from .ratfun import RationalTF, filter_time, poles as tf_poles
from .signals import (
    MultisineSpec,
    NoiseSpec,
    SignalRecord,
    derive_seed,
    generate_gaussian,
    generate_multisine,
    rms,
)

EX1_NF_GRID = (170, 341, 682, 1365, 2730, 5461, 10922)
EX1_PERIOD_PER_FREQ = 6   # N = 6 N_F samples per period: f_max = f_s / 6


# ---------------------------------------------------------------------------
# Reference systems
# ---------------------------------------------------------------------------

def example1_system() -> WienerSystem:
    """Third-order IIR block followed by x + 0.8 x^2 + 0.7 x^3, noise free."""
    g = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                   a=np.array([1.0, -2.1, 1.9, -0.7]))
    f = StaticNonlinearity(kind="polynomial",
                           coefficients=np.array([0.0, 1.0, 0.8, 0.7]))
    return WienerSystem(g=g, f=f)


def example1_multisine_spec(n_freqs: int, seed: int) -> MultisineSpec:
    """Flat random-phase multisine with f_max = f_s/6 and unit rms."""
    return MultisineSpec(n_samples=EX1_PERIOD_PER_FREQ * n_freqs,
                         n_freqs=n_freqs, target_rms=1.0, seed=seed)


def example2_g() -> RationalTF:
    return RationalTF(b=np.array([1.0, -0.3, 0.3]),
                      a=np.array([1.0, 0.3, -0.3]))


def example2_system(noise_variance: float = 0.01, noise_seed: int = 0) -> WienerSystem:
    """Second-order block with a saturation at (-0.4, 0.2) and white output noise."""
    f = StaticNonlinearity(kind="saturation", lower=-0.4, upper=0.2)
    noise = NoiseSpec(variance=noise_variance, seed=noise_seed) \
        if noise_variance != 0 else None
    return WienerSystem(g=example2_g(), f=f, output_noise=noise)


# Ascending-power cubic that best approximates the Example-2 saturation in
# least squares, fitted on 200000 samples of x = G u for a deterministic unit
# Gaussian u; ``tests/test_experiments.py`` re-derives it.
EX2_POLYNOMIAL_COEFFICIENTS = (-0.07641812564913421, 0.2305870053332652,
                               -0.003370344576144475, -0.010747156722496548)


def example2_polynomial_system(noise_variance: float = 0.01,
                               noise_seed: int = 0) -> WienerSystem:
    """``example2_system`` with the saturation replaced by its best cubic
    (``EX2_POLYNOMIAL_COEFFICIENTS``), the in-model-class variant."""
    f = StaticNonlinearity(kind="polynomial",
                           coefficients=EX2_POLYNOMIAL_COEFFICIENTS)
    return replace(example2_system(noise_variance, noise_seed), f=f)


SYSTEM_PRESETS = {
    "example1": example1_system,
    "example2_saturation": example2_system,
    "example2_polynomial": example2_polynomial_system,
}


def system_from_json(doc) -> WienerSystem:
    """A system document: the JSON form of a ``WienerSystem``, or a preset
    named as a string or as ``{"preset": name}``."""
    if isinstance(doc, dict) and set(doc) != {"preset"}:
        return WienerSystem.from_json_dict(doc)
    name = doc["preset"] if isinstance(doc, dict) else doc
    if not isinstance(name, str) or name not in SYSTEM_PRESETS:
        raise InvalidSpecError(f"unknown system preset {name!r}; choose from "
                               f"{', '.join(sorted(SYSTEM_PRESETS))}")
    return SYSTEM_PRESETS[name]()


# ---------------------------------------------------------------------------
# Study configuration and records
# ---------------------------------------------------------------------------

CONVERGENCE = "convergence"
NOISE = "noise"
POLE_RATE = "pole_rate"

_STUDY_KINDS = (CONVERGENCE, NOISE, POLE_RATE)


@dataclass(frozen=True)
class StudyConfig:
    """One Monte-Carlo study: grids, trial count, seeds, and fit settings.

    Desk-scale defaults (20 convergence / 200 noise trials) keep runtimes in
    minutes; the paper-scale counts are reachable through ``n_trials``.
    """

    kind: str
    system: WienerSystem
    n_trials: int
    base_seed: int = 0
    n_freqs_grid: Sequence[int] = EX1_NF_GRID
    n_rep_set: Sequence[int] = (1, 2, 3)
    n_a: int = 3
    n_b: int = 3
    degree: int = 3
    basis: str = polymodel.HERMITE
    validation_n_freqs: int = 10922
    # noise-study data sizes (Example-2 protocol)
    n_samples: int = 1000
    welch_segment: Optional[int] = 250

    def __post_init__(self):
        if self.kind not in _STUDY_KINDS:
            raise InvalidSpecError(f"unknown study kind {self.kind!r}")
        if self.n_trials < 0:
            raise InvalidSpecError("n_trials must be >= 0")
        if self.kind in (CONVERGENCE, POLE_RATE) and len(self.n_freqs_grid) == 0:
            raise InvalidSpecError("n_freqs_grid must be nonempty")
        if len(self.n_rep_set) == 0:
            raise InvalidSpecError("n_rep_set must be nonempty")
        for key in ("n_freqs_grid", "n_rep_set"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise InvalidSpecError(f"{key} must not repeat an entry")
        if any(nf < 1 for nf in self.n_freqs_grid):
            raise InvalidSpecError("'n_freqs_grid' entries must be >= 1")
        n_poles = len(self.system.g.a) - 1
        if self.kind in (CONVERGENCE, POLE_RATE) and self.n_a != n_poles:
            raise InvalidSpecError(
                f"'n_a' must be {n_poles}, the pole count of the system's g, "
                f"for a {self.kind} study, not {self.n_a}")
        if self.validation_n_freqs < 1:
            raise InvalidSpecError("'validation_n_freqs' must be >= 1")
        if self.kind == NOISE:
            if self.n_samples < 1:
                raise InvalidSpecError(
                    f"'n_samples' must be >= 1, not {self.n_samples}")
            segment = welch_segment_length(self.n_samples, self.welch_segment)
            if segment > self.n_samples:
                raise InvalidSpecError(
                    f"'welch_segment' is {segment}, longer than the "
                    f"'n_samples' = {self.n_samples} records it averages")
        for n_rep in self.n_rep_set:
            self.identify_config(n_rep)

    def identify_config(self, n_rep: int) -> IdentifyConfig:
        return IdentifyConfig(
            n_a=self.n_a, n_b=self.n_b, n_rep=n_rep, degree=self.degree,
            basis=self.basis, welch_segment=self.welch_segment,
        )

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["system"] = self.system.to_json_dict()
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StudyConfig":
        """Inverse of ``to_json_dict``; ``system`` is read by
        ``system_from_json``, so it may also name a preset."""
        if "system" not in doc:
            raise InvalidSpecError("missing required config key 'system'")
        rest = {k: v for k, v in doc.items() if k != "system"}
        return cls(system=system_from_json(doc["system"]),
                   **json_kwargs(cls, rest, skip=("system",)))


def _csv_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _read_bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise InvalidSpecError(f"a bool cell must read True or False, not {text!r}")
    return text == "True"


def _csv_parser(annotation):
    """The reader of a CSV cell for a field annotated ``T`` or ``Optional[T]``."""
    base = next((t for t in get_args(annotation) if t is not type(None)),
                annotation)
    return _read_bool if base is bool else base


@dataclass
class TrialRecord:
    """One (trial, condition) outcome, and in field order the columns of the
    records CSV; blank fields do not apply to the study."""

    study: str
    trial: int
    n_freqs: Optional[int] = None
    n_rep: Optional[int] = None
    sup_error: Optional[float] = None
    nrmse: Optional[float] = None
    pole_error: Optional[float] = None
    noise_floor: Optional[float] = None
    selected: Optional[bool] = None
    failed: bool = False
    message: str = ""

    def to_csv_row(self) -> list:
        return [_csv_text(getattr(self, f.name)) for f in fields(self)]

    @classmethod
    def from_csv_row(cls, row: dict) -> "TrialRecord":
        """Inverse of ``to_csv_row`` on a ``csv.DictReader`` row; a blank or
        missing column takes the field's default."""
        hints = get_type_hints(cls)
        return cls(**{f.name: _csv_parser(hints[f.name])(row[f.name])
                      for f in fields(cls) if row.get(f.name) not in ("", None)})


@dataclass
class StudyResult:
    config: StudyConfig
    records: list = field(default_factory=list)

    @property
    def ok_records(self) -> list:
        return [r for r in self.records if not r.failed]

    @property
    def n_failed(self) -> int:
        return sum(r.failed for r in self.records)

    # -- aggregation --------------------------------------------------------

    def aggregates(self) -> dict:
        """Per-condition statistics recomputed from the records."""
        out = {"kind": self.config.kind,
               "n_trials": self.config.n_trials,
               "n_records": len(self.records),
               "n_failed": self.n_failed,
               "conditions": []}
        key = lambda r: (-1 if r.n_rep is None else r.n_rep,
                         -1 if r.n_freqs is None else r.n_freqs)
        for _, group in itertools.groupby(sorted(self.ok_records, key=key), key):
            group = list(group)
            cond = {"n_rep": group[0].n_rep, "n_freqs": group[0].n_freqs,
                    "count": len(group)}
            for metric in ("sup_error", "nrmse", "pole_error", "noise_floor"):
                vals = np.array([getattr(r, metric) for r in group
                                 if getattr(r, metric) is not None], dtype=float)
                if len(vals) == 0:
                    continue
                cond[metric] = {
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                    "std_of_mean": float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
                    if len(vals) > 1 else 0.0,
                    "median": float(np.median(vals)),
                    "q25": float(np.quantile(vals, 0.25)),
                    "q75": float(np.quantile(vals, 0.75)),
                }
            sel = [r.selected for r in group if r.selected is not None]
            if sel:
                cond["selected_fraction"] = float(np.mean(sel))
            out["conditions"].append(cond)
        return out

    def mean_curve(self, metric: str, n_rep: Optional[int] = None) -> dict:
        """n_freqs -> mean metric, restricted to one repetition count.

        For per-(trial, n_freqs) metrics such as the pole error the records
        are deduplicated across n_rep first.
        """
        curve: dict[int, list] = {}
        seen = set()
        for r in self.ok_records:
            if r.n_freqs is None or getattr(r, metric) is None:
                continue
            if n_rep is not None and r.n_rep != n_rep:
                continue
            if n_rep is None:
                dedup = (r.trial, r.n_freqs)
                if dedup in seen:
                    continue
                seen.add(dedup)
            curve.setdefault(r.n_freqs, []).append(getattr(r, metric))
        return {nf: float(np.mean(v)) for nf, v in sorted(curve.items())}

    def curves(self) -> dict:
        """The curves a study reports, name -> {n_freqs: mean}: the sup-norm
        error per repetition count for convergence, the pole error for
        convergence and pole_rate; a noise study reports none."""
        kind = self.config.kind
        out = {f"sup_error_n_rep_{n}": self.mean_curve("sup_error", n_rep=n)
               for n in self.config.n_rep_set if kind == CONVERGENCE}
        if kind in (CONVERGENCE, POLE_RATE):
            out["pole_error"] = self.mean_curve("pole_error")
        return out

    def slopes(self) -> dict:
        """Log-log fit of every reported curve with at least 3 points."""
        out = {}
        for name, curve in self.curves().items():
            if len(curve) >= 3:
                s, b, se = fit_loglog_slope(list(curve.items()))
                out[name] = {"slope": s, "intercept": b, "stderr": se}
        return out

    # -- export -------------------------------------------------------------

    def write_records_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(TrialRecord))
            writer.writerows(r.to_csv_row() for r in self.records)

    @staticmethod
    def read_records_csv(path) -> list:
        with open(path, newline="") as fh:
            return [TrialRecord.from_csv_row(row) for row in csv.DictReader(fh)]

    def write_aggregates_json(self, path) -> None:
        doc = {"aggregates": self.aggregates(), "slopes": self.slopes()}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)

    def write_plot_data(self, directory, name) -> list:
        """One two-column (n_freqs, mean) file ``<name>_<curve>.dat`` per
        nonempty reported curve of the study ``name``."""
        paths = []
        for curve_name, curve in self.curves().items():
            if not curve:
                continue
            path = os.path.join(directory, f"{name}_{curve_name}.dat")
            with open(path, "w") as fh:
                for nf, val in curve.items():
                    fh.write(f"{nf} {val:.17g}\n")
            paths.append(path)
        return paths


# ---------------------------------------------------------------------------
# Slope fitting and pole metrics
# ---------------------------------------------------------------------------

def fit_loglog_slope(points) -> tuple[float, float, float]:
    """Ordinary least squares on (log N_F, log value).

    Returns (slope, intercept, stderr of slope); nonpositive values are
    excluded with a warning.
    """
    pts = [(float(x), float(v)) for x, v in points]
    kept = [(x, v) for x, v in pts if v > 0 and x > 0]
    if len(kept) < len(pts):
        warnings.warn(f"excluded {len(pts) - len(kept)} nonpositive point(s) "
                      "from slope fit")
    if len(kept) < 3:
        raise InvalidSpecError("slope fit needs at least 3 positive points")
    lx = np.log([x for x, _ in kept])
    ly = np.log([v for _, v in kept])
    n = len(kept)
    vx = lx - lx.mean()
    slope = float(np.dot(vx, ly - ly.mean()) / np.dot(vx, vx))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = n - 2
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(vx, vx))) if dof > 0 else 0.0
    return slope, intercept, stderr


def min_max_pole_distance(estimated, reference) -> float:
    """min over assignments of max_j |p_hat_sigma(j) - p_j|: the smallest
    pairwise distance at which every estimate can be matched to its own
    reference pole; 0 for empty sets."""
    est = np.asarray(estimated, dtype=complex)
    ref = np.asarray(reference, dtype=complex)
    if len(est) != len(ref):
        raise InvalidSpecError("pole sets must have equal size")
    diff = est[:, None] - ref[None, :]
    dist = np.hypot(diff.real, diff.imag).tolist()
    return next((d for d in sorted(itertools.chain(*dist))
                 if _matches_every_row(dist, d)), 0.0)


def _matches_every_row(dist: list, bound: float) -> bool:
    """Whether each row of a square distance table can take its own column
    at most ``bound`` away (augmenting paths)."""
    owner = [-1] * len(dist)  # the row each column is matched to

    def augment(i, seen) -> bool:
        for j, d in enumerate(dist[i]):
            if d <= bound and j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(dist)))


# ---------------------------------------------------------------------------
# Study runners
# ---------------------------------------------------------------------------

def _convergence_validation(cfg: StudyConfig):
    """Fixed validation multisine + noiseless response, shared by all trials."""
    u_val = generate_multisine(example1_multisine_spec(
        cfg.validation_n_freqs, seed=derive_seed(cfg.base_seed, "validation")))
    _, y_val = simulate(cfg.system, u_val, include_noise=False)
    return u_val, y_val


def _failed(cfg: StudyConfig, trial: int, exc: Exception,
            **condition) -> TrialRecord:
    """The failed record of one condition of a trial, with the message."""
    return TrialRecord(cfg.kind, trial, failed=True, message=str(exc),
                       **condition)


def _trial_bla(cfg: StudyConfig, trial: int, nf: int):
    """(u, y, stabilized poles, fit, pole error) of a periodic trial: a
    fresh-phase multisine with ``nf`` excited bins, the system's
    steady-state response, and the BLA fit on them.  The fit reads only
    the orders of ``cfg``, so any ``n_rep`` serves."""
    u = generate_multisine(example1_multisine_spec(
        nf, seed=derive_seed(cfg.base_seed, "trial", trial, "nf", nf)))
    system = cfg.system.with_noise_seed(
        derive_seed(cfg.base_seed, "trial", trial, "noise", nf))
    _, y = simulate(system, u)
    pole_set, fit = estimate_bla_poles(u, y, cfg.identify_config(n_rep=1))
    return u, y, pole_set, fit, min_max_pole_distance(fit.poles,
                                                      tf_poles(cfg.system.g))


def _convergence_trial(cfg: StudyConfig, trial: int, validation) -> list:
    """Per N_F: identify at each n_rep and record the validation sup-norm
    error together with the BLA pole error.  Both records are filtered once
    per N_F, by the largest n_rep's bank; each model takes the leading
    columns, which are its own bank's outputs bit for bit."""
    u_val, y_val = validation
    records = []
    for nf in cfg.n_freqs_grid:
        try:
            u, y, pole_set, fit, pole_error = _trial_bla(cfg, trial, nf)
            largest = build_bank(pole_set, max(cfg.n_rep_set))
            X, X_val = bank_outputs(largest, u), bank_outputs(largest, u_val)
        except Exception as exc:  # every n_rep model shares the fit and pass
            records.extend(_failed(cfg, trial, exc, n_freqs=nf, n_rep=n_rep)
                           for n_rep in cfg.n_rep_set)
            continue

        for n_rep in cfg.n_rep_set:
            try:
                bank = build_bank(pole_set, n_rep)
                model = _assemble(u, y, bank, cfg.identify_config(n_rep), fit, X)
                yhat = predict(model, u_val, X_val)
                records.append(TrialRecord(
                    cfg.kind, trial, n_freqs=nf, n_rep=n_rep,
                    sup_error=sup_error(y_val, yhat),
                    nrmse=nrmse(y_val, yhat),
                    pole_error=pole_error,
                ))
            except Exception as exc:  # robust statistics over silent skew
                records.append(_failed(cfg, trial, exc, n_freqs=nf, n_rep=n_rep))
    return records


def _pole_rate_trial(cfg: StudyConfig, trial: int, validation) -> list:
    records = []
    for nf in cfg.n_freqs_grid:
        try:
            pole_error = _trial_bla(cfg, trial, nf)[-1]
            records.append(TrialRecord(cfg.kind, trial, n_freqs=nf,
                                       pole_error=pole_error))
        except EstimationError as exc:
            records.append(_failed(cfg, trial, exc, n_freqs=nf))
    return records


def _noise_trial(cfg: StudyConfig, trial: int, validation) -> list:
    """Estimation and validation Gaussian records; one model per repetition
    count, scored by NRMSE against the noisy validation output; the
    validation-NRMSE minimizer is flagged as selected."""
    u_est = generate_gaussian(
        cfg.n_samples, seed=derive_seed(cfg.base_seed, "trial", trial, "u-est"))
    u_val = generate_gaussian(
        cfg.n_samples, seed=derive_seed(cfg.base_seed, "trial", trial, "u-val"))
    sys_est = cfg.system.with_noise_seed(
        derive_seed(cfg.base_seed, "trial", trial, "e-est"))
    sys_val = cfg.system.with_noise_seed(
        derive_seed(cfg.base_seed, "trial", trial, "e-val"))

    _, y_est = simulate(sys_est, u_est)
    x_val, y_val = simulate(sys_val, u_val)
    y_val_clean = sys_val.f.apply(x_val.samples)

    # v = H e has power variance * sum(h^2), h over the record length
    noise = cfg.system.output_noise
    power = noise.variance if noise else 0.0
    if noise and noise.shaping_filter is not None:
        impulse = np.zeros(cfg.n_samples)
        impulse[0] = 1.0
        h = filter_time(noise.shaping_filter, SignalRecord(samples=impulse)).samples
        power *= float(np.sum(h * h))
    floor = float(np.sqrt(power) / rms(y_val_clean)) \
        if rms(y_val_clean) > 0 else 0.0

    records = []
    scores = {}
    for n_rep in cfg.n_rep_set:
        icfg = cfg.identify_config(n_rep=n_rep)
        try:
            model = identify(u_est, y_est, icfg)
            yhat = predict(model, u_val)
            discard = transient_length(model.bank, cfg.n_samples)
            err = nrmse(y_val, yhat, discard=discard)
            scores[n_rep] = err
            records.append(TrialRecord(cfg.kind, trial, n_rep=n_rep,
                                       nrmse=err, noise_floor=floor))
        except Exception as exc:
            records.append(_failed(cfg, trial, exc, n_rep=n_rep))
    if scores:
        best = min(scores, key=scores.get)
        for rec in records:
            if not rec.failed:
                rec.selected = rec.n_rep == best
    return records


_TRIAL_RUNNERS = {
    CONVERGENCE: _convergence_trial,
    POLE_RATE: _pole_rate_trial,
    NOISE: _noise_trial,
}


# Thread-count setters of the OpenBLAS builds that numpy (64-bit integers)
# and scipy bundle.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads")


def _openblas_libraries() -> list:
    """ctypes handles of every OpenBLAS this process has loaded, as listed in
    /proc/self/maps; none where that file cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libraries


def _pin_blas_threads() -> None:
    """Worker initializer: one thread in every loaded OpenBLAS that exports a
    known setter, so ``jobs`` workers do not each start one BLAS thread per
    core."""
    for library in _openblas_libraries():
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def run_study(cfg: StudyConfig, jobs: int = 1, prior=()) -> StudyResult:
    """Run the trials of ``cfg`` that ``prior`` has no record of on ``jobs``
    worker processes, each with one BLAS thread; return ``prior`` and the
    new records stably sorted by trial, so each trial keeps its runner's
    order and a resumed study equals a fresh one."""
    runner = _TRIAL_RUNNERS[cfg.kind]
    validation = _convergence_validation(cfg) if cfg.kind == CONVERGENCE else None
    done = {r.trial for r in prior}
    if any(t >= cfg.n_trials for t in done):
        raise InvalidSpecError(f"'n_trials' is {cfg.n_trials}, but the prior "
                               f"records hold trial {max(done)}")
    trials = [t for t in range(cfg.n_trials) if t not in done]

    records = list(prior)
    if jobs <= 1 or len(trials) <= 1:
        for t in trials:
            records.extend(runner(cfg, t, validation))
    else:
        # The default context (fork on Linux) stays: spawn would re-run the
        # top level of a calling script that has no __main__ guard.
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_pin_blas_threads) as pool:
            futures = [pool.submit(runner, cfg, t, validation) for t in trials]
            for fut in futures:
                records.extend(fut.result())
    records.sort(key=lambda r: r.trial)
    return StudyResult(config=cfg, records=records)
