"""Wiener-system simulation and the three-step identification procedure.

Step 1 estimates the best linear approximation and its poles, step 2 builds
the basis-filter bank from those poles, step 3 fits the multivariate
polynomial by linear regression.  The intermediate-signal reconstruction
used for nonlinearity shape inspection lives here as well.
"""

from __future__ import annotations

import contextlib
import copy
import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np

from . import bla, gobf, polymodel
from .errors import EstimationError, InvalidSpecError, json_kwargs
from .ratfun import RationalTF, filter_time
from .signals import NoiseSpec, SignalRecord, generate_noise

POLYNOMIAL = "polynomial"
SATURATION = "saturation"


@dataclass(frozen=True)
class StaticNonlinearity:
    """Static block: polynomial in x or a two-level saturation."""

    kind: str
    coefficients: Optional[np.ndarray] = None  # ascending powers, polynomial kind
    lower: Optional[float] = None              # saturation c1
    upper: Optional[float] = None              # saturation c2

    def __post_init__(self):
        if self.kind == POLYNOMIAL:
            if self.coefficients is None or np.size(self.coefficients) == 0:
                raise InvalidSpecError(
                    "polynomial nonlinearity needs a non-empty 'coefficients'")
            object.__setattr__(self, "coefficients",
                               np.asarray(self.coefficients, dtype=float))
        elif self.kind == SATURATION:
            if self.lower is None or self.upper is None or not self.lower < self.upper:
                raise InvalidSpecError("saturation needs lower < upper")
        else:
            raise InvalidSpecError(f"unknown nonlinearity kind {self.kind!r}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == POLYNOMIAL:
            return np.polynomial.polynomial.polyval(x, self.coefficients)
        return np.clip(x, self.lower, self.upper)

    def to_json_dict(self) -> dict:
        if self.kind == POLYNOMIAL:
            return {"kind": self.kind,
                    "coefficients": [float(c) for c in self.coefficients]}
        return {"kind": self.kind, "lower": self.lower, "upper": self.upper}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StaticNonlinearity":
        return cls(**json_kwargs(cls, doc))


@dataclass(frozen=True)
class WienerSystem:
    """Data generator: stable LTI block, static nonlinearity, output noise."""

    g: RationalTF
    f: StaticNonlinearity
    output_noise: Optional[NoiseSpec] = None

    def __post_init__(self):
        if not self.g.is_stable():
            raise InvalidSpecError("'g' has poles on or outside the unit circle; "
                                   "a Wiener system's linear block must be stable")

    def with_noise_seed(self, seed: int) -> "WienerSystem":
        if self.output_noise is None:
            return self
        # Only the noise changes, so g is not checked a second time.
        system = copy.copy(self)
        object.__setattr__(system, "output_noise", self.output_noise.with_seed(seed))
        return system

    def to_json_dict(self) -> dict:
        doc = {"g": self.g.to_json_dict(), "nonlinearity": self.f.to_json_dict()}
        if self.output_noise is not None:
            noise = {"variance": self.output_noise.variance,
                     "seed": self.output_noise.seed}
            if self.output_noise.shaping_filter is not None:
                noise["shaping_filter"] = self.output_noise.shaping_filter.to_json_dict()
            doc["noise"] = noise
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WienerSystem":
        kw = json_kwargs(_WienerSystemJson, doc)
        return cls(g=kw["g"], f=kw["nonlinearity"], output_noise=kw.get("noise"))


@dataclass(frozen=True)
class _WienerSystemJson:
    """Key names and types of the JSON form of a WienerSystem."""

    g: RationalTF
    nonlinearity: StaticNonlinearity
    noise: Optional[NoiseSpec] = None


def simulate(system: WienerSystem, u: SignalRecord,
             include_noise: bool = True) -> tuple[SignalRecord, SignalRecord]:
    """Return (x, y): x = G u, in steady state for a periodic record and
    from rest otherwise, and y = f(x) + v.

    The intermediate x is exposed for oracle checks only; identification
    never sees it.
    """
    x = filter_time(system.g, u)
    y = system.f.apply(x.samples)
    if include_noise and system.output_noise is not None \
            and system.output_noise.variance > 0:
        y = y + generate_noise(system.output_noise, len(y)).samples
    y_rec = SignalRecord(samples=y, periodic=u.periodic,
                         period_samples=u.period_samples)
    return x, y_rec


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentifyConfig:
    """Orders, repetition count, polynomial degree, regression basis and
    the Welch segment length.  The estimation record decides the rest: a
    periodic record gets the period-averaged FRF and steady-state bank
    outputs, an aperiodic one the Welch FRF and bank outputs from rest."""

    n_a: int
    n_b: int
    n_rep: int
    degree: int
    basis: str = polymodel.HERMITE
    welch_segment: Optional[int] = None

    def __post_init__(self):
        if self.n_rep < 0:
            raise InvalidSpecError("n_rep must be >= 0")
        if self.degree < 0:
            raise InvalidSpecError("degree must be >= 0")
        for key in ("n_a", "n_b"):
            if getattr(self, key) < 0:
                raise InvalidSpecError(f"{key!r} must be >= 0")
        if self.welch_segment is not None and self.welch_segment < 1:
            raise InvalidSpecError("'welch_segment' must be >= 1 when set")
        if self.basis not in (polymodel.MONOMIAL, polymodel.HERMITE):
            raise InvalidSpecError(f"unknown basis {self.basis!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IdentifyConfig":
        return cls(**json_kwargs(cls, doc))


@dataclass
class WienerModel:
    """Identified artifact: basis bank + polynomial, with fit provenance."""

    bank: gobf.GobfBank
    poly: polymodel.MultiPolyModel
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.poly.n_channels != self.bank.n_outputs:
            raise InvalidSpecError("polynomial channel count must match the bank")

    def to_json_dict(self) -> dict:
        return {"bank": self.bank.to_json_dict(),
                "poly": self.poly.to_json_dict(),
                "provenance": self.provenance}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WienerModel":
        return cls(bank=gobf.GobfBank.from_json_dict(doc["bank"]),
                   poly=polymodel.MultiPolyModel.from_json_dict(doc["poly"]),
                   provenance=doc.get("provenance", {}))

    @classmethod
    def from_json(cls, path) -> "WienerModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise any failure of the enclosed step as ``EstimationError(name)``."""
    try:
        yield
    except Exception as exc:
        raise EstimationError(name, str(exc)) from exc


def estimate_bla_poles(u: SignalRecord, y: SignalRecord,
                       cfg: IdentifyConfig) -> tuple[np.ndarray, bla.BlaFitResult]:
    """Steps 1a-1c: nonparametric FRF, rational fit, stabilized poles."""
    segment = bla.welch_segment_length(len(u.samples), cfg.welch_segment)
    if not u.periodic and segment > len(u.samples):
        raise InvalidSpecError(f"'welch_segment' is {segment}, longer than "
                               f"the {len(u.samples)}-sample record")
    with _stage("frf"):
        if u.periodic:
            frf = bla.estimate_frf(u, y)
        else:
            frf = bla.estimate_frf_welch(u, y, segment_length=segment)
    with _stage("rational-fit"):
        fit = bla.fit_rational(frf, cfg.n_a, cfg.n_b)
    return bla.stabilize_poles(fit.poles), fit


def _assemble(u: SignalRecord, y: SignalRecord, bank: gobf.GobfBank,
              cfg: IdentifyConfig, fit: Optional[bla.BlaFitResult],
              X: np.ndarray) -> WienerModel:
    """Fit the polynomial on the leading ``bank.n_outputs`` columns of X."""
    X = X[:, :bank.n_outputs]
    discard = 0 if u.periodic else gobf.transient_length(bank, len(u.samples))
    with _stage("regression"):
        poly = polymodel.fit_poly_model(X[discard:], y.samples[discard:],
                                        degree=cfg.degree, basis=cfg.basis)

    provenance = {
        "config": cfg.to_json_dict(),
        "periodic": u.periodic,
        "transient_discarded": discard,
        "n_samples": len(u.samples),
    }
    if fit is not None:
        provenance["bla"] = {
            "poles": [[float(p.real), float(p.imag)] for p in fit.poles],
            "final_cost": fit.final_cost,
            "iterations": fit.iterations,
            "converged": fit.converged,
        }
    return WienerModel(bank=bank, poly=poly, provenance=provenance)


def identify(u: SignalRecord, y: SignalRecord, cfg: IdentifyConfig) -> WienerModel:
    """Full three-step identification on one estimation record."""
    if len(u.samples) != len(y.samples):
        raise InvalidSpecError("input and output records must have equal length")

    fit = None
    if cfg.n_rep == 0:
        bank = gobf.GobfBank(base_poles=np.array([], dtype=complex), n_rep=0)
    else:
        pole_set, fit = estimate_bla_poles(u, y, cfg)
        with _stage("bank"):
            bank = gobf.build_bank(pole_set, cfg.n_rep)
    with _stage("bank-outputs"):
        X = gobf.bank_outputs(bank, u)
    return _assemble(u, y, bank, cfg, fit, X)


def predict(model: WienerModel, u: SignalRecord,
            X: Optional[np.ndarray] = None) -> SignalRecord:
    """Simulate the identified model on a new input; the bank is filtered
    in steady state if ``u`` is periodic and from rest otherwise.  Given the
    bank outputs ``X`` of ``u``, the model reads their leading
    ``model.bank.n_outputs`` columns instead (a larger bank may supply X)."""
    n_out = model.bank.n_outputs
    if X is None:
        X = gobf.bank_outputs(model.bank, u)
    elif X.ndim != 2 or X.shape[0] != len(u.samples) or X.shape[1] < n_out:
        raise InvalidSpecError(f"bank outputs of shape {X.shape} do not cover "
                               f"{len(u.samples)} samples x {n_out} outputs")
    yhat = polymodel.evaluate(model.poly, X[:, :n_out])
    return SignalRecord(samples=yhat, periodic=u.periodic,
                        period_samples=u.period_samples)


# ---------------------------------------------------------------------------
# Intermediate-signal reconstruction and metrics
# ---------------------------------------------------------------------------

def estimate_intermediate(bank: gobf.GobfBank, y: SignalRecord,
                          X: np.ndarray) -> np.ndarray:
    """Reconstruction x_hat = X alpha_hat of the unmeasured x(t), known only
    up to the BLA scale factor, where
    alpha_hat = argmin sum_t |y(t) - sum_l alpha_l x_l(t)|^2."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != bank.n_outputs:
        raise InvalidSpecError("X column count must match the bank outputs")
    return X @ polymodel.fit_ls(X, y.samples)


def _paired_samples(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    """The samples of a record and of its prediction, which must be equally
    long."""
    ya = y.samples if isinstance(y, SignalRecord) else np.asarray(y, dtype=float)
    yh = yhat.samples if isinstance(yhat, SignalRecord) else np.asarray(yhat, dtype=float)
    if len(ya) != len(yh):
        raise InvalidSpecError(f"records of unequal length: {len(ya)} and "
                               f"{len(yh)} samples")
    return ya, yh


def nrmse(y: Union[SignalRecord, np.ndarray],
          yhat: Union[SignalRecord, np.ndarray], discard: int = 0) -> float:
    """||y - yhat||_2 / ||y||_2 on validation data."""
    ya, yh = _paired_samples(y, yhat)
    ya, yh = ya[discard:], yh[discard:]
    denom = np.linalg.norm(ya)
    if denom == 0.0:
        return float(np.linalg.norm(yh) > 0)
    return float(np.linalg.norm(ya - yh) / denom)


def sup_error(y, yhat) -> float:
    ya, yh = _paired_samples(y, yhat)
    return float(np.max(np.abs(ya - yh)))
