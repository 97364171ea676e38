"""Multivariate polynomial model of the static nonlinearity.

Total-degree-Q polynomials over the basis-filter channels, fitted by linear
least squares.  The monomial basis is the reference semantics; the Hermite
basis (probabilists' polynomials on standardized channels) spans the same
space with far better conditioning and is the default for estimation.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import InvalidSpecError, RankDeficiencyWarning

MultiIndex = Tuple[int, ...]

MONOMIAL = "monomial"
HERMITE = "hermite"

# Cholesky squares cond(psi) in the normal equations; above this estimate of
# cond(psi) fit_ls solves with gelsd instead.  Fixed a priori, not tuned.
CHOLESKY_COND_LIMIT = 1e4

# Rows per slice in evaluate (the fastest of 4096-16384 at N = 65532 and 10
# channels; any value gives the same bits) and in fit_ls's normal equations,
# so a fit holds one slice of psi, and a record of ROW_BLOCK rows or fewer is one.
ROW_BLOCK = 16384


def enumerate_multi_indices(n_channels: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples with total degree <= Q in graded order, constant
    first; within a degree the leading channels carry the higher exponents
    first ((2,0), (1,1), (0,2), ...)."""
    if degree < 0:
        raise InvalidSpecError("degree must be >= 0")
    if n_channels < 1:
        raise InvalidSpecError("n_channels must be >= 1")
    indices: list[MultiIndex] = [tuple([0] * n_channels)]
    for p in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_channels), p):
            expo = [0] * n_channels
            for ch in combo:
                expo[ch] += 1
            indices.append(tuple(expo))
    return indices


@dataclass(frozen=True)
class ChannelStandardization:
    """Per-channel shift and scale frozen at fit time (hermite mode)."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))

    @classmethod
    def from_data(cls, X: np.ndarray) -> "ChannelStandardization":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        degenerate = scale <= 0
        if np.any(degenerate):
            warnings.warn("zero-variance channel; using unit scale",
                          RankDeficiencyWarning)
            scale = np.where(degenerate, 1.0, scale)
        return cls(mean=mean, scale=scale)


def _channel_power_table(X: np.ndarray, degree: int, basis: str,
                         std: Optional[ChannelStandardization]) -> list:
    """Per-channel basis polynomials: entry e >= 1 is an (n_channels, N) array
    whose row ch, contiguous in time, holds the degree-e polynomial of channel
    ch; entry 0 (the constant, read by no product) is None.  A Hermite basis
    without a standardization takes the raw channels.  Values are bit-identical
    to the same arithmetic in the (N, n_channels) layout."""
    # np.array always copies: ascontiguousarray(X.T) is a view of X when X
    # has one column or is F-ordered, and the standardization below writes.
    x = np.array(X.T, order="C")
    if basis == HERMITE and std is not None:
        x -= std.mean[:, None]
        x /= std.scale[:, None]
    table = [None, x]
    for k in range(2, degree + 1):
        nxt = x * table[-1]
        if basis == HERMITE:  # He_k = x He_(k-1) - (k-1) He_(k-2), He_0 = 1
            nxt -= 1.0 if k == 2 else (k - 1) * table[-2]
        table.append(nxt)
    return table[: degree + 1]


def build_regressors(X: np.ndarray, degree: int, basis: str,
                     standardization: Optional[ChannelStandardization] = None
                     ) -> np.ndarray:
    """The regressor matrix psi: one column per multi-index of
    ``enumerate_multi_indices``, the product over channels of per-channel
    basis polynomials."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if basis not in (MONOMIAL, HERMITE):
        raise InvalidSpecError(f"unknown basis {basis!r}")
    n, n_ch = X.shape
    table = _channel_power_table(X, degree, basis, standardization)
    indices = enumerate_multi_indices(n_ch, degree)
    position = {expo: j for j, expo in enumerate(indices)}
    # Fortran order: each column is contiguous, psi.T @ psi is one syrk, and
    # lstsq hands gelsd a plain copy instead of a transposed one.
    # Column j is its parent column (the same index with the last nonzero
    # channel set to 0, an earlier column in graded order) times one channel
    # row, so every product keeps the channel order ((t_a * t_b) * t_c).
    psi = np.empty((n, len(indices)), order="F")
    psi[:, 0] = 1.0
    for j, expo in enumerate(indices[1:], start=1):
        ch = max(c for c, e in enumerate(expo) if e)
        parent = position[expo[:ch] + (0,) * (n_ch - ch)]
        np.multiply(psi[:, parent], table[expo[ch]][ch], out=psi[:, j])
    return psi


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve the normal equations through the Cholesky factor R of psi^T psi.

    None when the factorization fails or LAPACK's 1-norm estimate of
    cond(R) = cond(psi) exceeds ``CHOLESKY_COND_LIMIT``.
    """
    r, info = scipy.linalg.lapack.dpotrf(gram)
    if info:
        return None
    rcond, info = scipy.linalg.lapack.dtrcon(r, norm="1", uplo="U")
    if info or rcond * CHOLESKY_COND_LIMIT < 1.0:
        return None
    beta, info = scipy.linalg.lapack.dpotrs(r, rhs)
    return None if info else beta


def fit_ls(psi, y) -> np.ndarray:
    """Least-squares coefficients beta minimizing ||y - psi beta||.

    psi is the regressor matrix, or a function that returns its rows for a
    row slice.  Cholesky of the normal equations, summed over slices of
    ``ROW_BLOCK`` rows, when psi is tall and well conditioned; otherwise
    SVD-based gelsd on the whole psi, whose rank deficiency yields the
    minimum-norm solution and a warning (the overparameterized regime is
    expected for rich banks on short records).  Neither path modifies psi or y.
    """
    y = np.asarray(y, dtype=float)
    rows_of = psi if callable(psi) else psi.__getitem__
    if not callable(psi) and len(y) != psi.shape[0]:
        raise InvalidSpecError("target length must match the regressor rows")
    gram = rhs = None
    for start in range(0, len(y), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        block = rows_of(rows)
        if len(y) < block.shape[1]:
            break
        part = block.T @ block, block.T @ y[rows]
        gram, rhs = part if gram is None else (gram + part[0], rhs + part[1])
        del block  # before the next slice is built, so one slice is held
    # A NaN or +-inf in psi or y makes gram or rhs non-finite (0 * inf is NaN)
    # when psi has a column, so psi and y are scanned only when gram or rhs
    # is, or before gelsd.  A finite psi whose gram overflows goes to gelsd.
    known_finite = gram is not None and gram.size > 0 \
        and np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))
    if known_finite:
        beta = _cholesky_solve(gram, rhs)
        if beta is not None:
            return beta
    psi = rows_of(slice(None))
    if not known_finite and not (np.all(np.isfinite(psi)) and np.all(np.isfinite(y))):
        raise InvalidSpecError("regression data must be finite")
    # The finiteness check above is the only one: lstsq's own would scan psi
    # a second time.
    beta, _, rank, _ = scipy.linalg.lstsq(psi, y, lapack_driver="gelsd",
                                          check_finite=False)
    if rank < psi.shape[1]:
        warnings.warn(
            f"rank-deficient regression ({rank}/{psi.shape[1]}); "
            "minimum-norm solution returned", RankDeficiencyWarning)
    return beta


def _finite_number(value) -> bool:
    """A JSON number within float range: not a bool, NaN, inf or 10**400."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass
class MultiPolyModel:
    """g(x_0..x_n): one coefficient per multi-index of
    ``enumerate_multi_indices(n_channels, degree)``, in that order, with its
    basis convention; a standardization belongs to the hermite basis."""

    n_channels: int
    degree: int
    basis: str
    coefficients: np.ndarray
    standardization: Optional[ChannelStandardization] = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.basis not in (MONOMIAL, HERMITE):
            raise InvalidSpecError(f"unknown basis {self.basis!r}")
        std = self.standardization
        if std is not None and not (self.basis == HERMITE and std.mean.shape
                                    == std.scale.shape == (self.n_channels,)):
            raise InvalidSpecError(
                f"a standardization belongs to a hermite model and has "
                f"{self.n_channels} means and scales")
        if self.n_channels < 1 or self.degree < 0:
            raise InvalidSpecError("n_channels must be >= 1 and degree >= 0")
        # Counted before enumerating, so a huge degree is refused at once.
        expected = math.comb(self.n_channels + self.degree, self.degree)
        if len(self.coefficients) != expected:
            raise InvalidSpecError(
                f"expected {expected} coefficients, got {len(self.coefficients)}")
        if not np.all(np.isfinite(self.coefficients)):
            raise InvalidSpecError("coefficients must be finite")
        self._indices = enumerate_multi_indices(self.n_channels, self.degree)

    def to_json_dict(self) -> dict:
        doc = {
            "n_channels": self.n_channels,
            "degree": self.degree,
            "basis": self.basis,
            "terms": [{"exponents": list(idx), "coefficient": float(c)}
                      for idx, c in zip(self._indices, self.coefficients)],
        }
        if self.standardization is not None:
            doc["standardization"] = {
                "mean": [float(v) for v in self.standardization.mean],
                "scale": [float(v) for v in self.standardization.scale],
            }
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MultiPolyModel":
        """Read the polynomial of a model file, whose terms list the exponents
        of ``enumerate_multi_indices``, as ints, in that order."""
        n_channels, degree = doc["n_channels"], doc["degree"]
        if type(n_channels) is not int or type(degree) is not int:
            raise InvalidSpecError("n_channels and degree must be ints")
        coefficients = [t["coefficient"] for t in doc["terms"]]
        if not all(map(_finite_number, coefficients)):
            raise InvalidSpecError("term coefficients must be finite numbers")
        std = None
        if "standardization" in doc:
            std_doc = doc["standardization"]
            mean, scale = std_doc["mean"], std_doc["scale"]
            if not all(type(v) is list and all(map(_finite_number, v))
                       for v in (mean, scale)):
                raise InvalidSpecError("standardization means and scales must "
                                       "be lists of finite numbers")
            mean, scale = np.array(mean, dtype=float), np.array(scale, dtype=float)
            if not np.all(scale > 0):
                raise InvalidSpecError("standardization scales must be > 0")
            std = ChannelStandardization(mean=mean, scale=scale)
        model = cls(n_channels=n_channels, degree=degree, basis=doc["basis"],
                    coefficients=np.array(coefficients, dtype=float),
                    standardization=std)
        exponents = [t["exponents"] for t in doc["terms"]]
        if exponents != [list(idx) for idx in model._indices] or any(
                type(e) is not int for expo in exponents for e in expo):
            raise InvalidSpecError(
                f"term exponents must be the {len(model._indices)} multi-indices "
                f"of {n_channels} channels up to degree {degree}, as ints, in "
                f"graded order")
        return model


def fit_poly_model(X: np.ndarray, y, degree: int,
                   basis: str = HERMITE) -> MultiPolyModel:
    """Standardize (Hermite basis), solve with regressors that ``fit_ls``
    builds one row slice at a time, and assemble the model in one step."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    std = ChannelStandardization.from_data(X) if basis == HERMITE else None
    if len(X) != len(y):
        raise InvalidSpecError("target length must match the regressor rows")
    beta = fit_ls(lambda rows: build_regressors(X[rows], degree, basis, std), y)
    return MultiPolyModel(n_channels=X.shape[1], degree=degree, basis=basis,
                          coefficients=beta, standardization=std)


def evaluate(model: MultiPolyModel, X: np.ndarray) -> np.ndarray:
    """y_hat(t) = sum over indices of beta_idx * basis_idx(X(t, .)).

    Streams over columns, one block of ``ROW_BLOCK`` rows at a time, so large
    records never materialize the full regressor matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_channels:
        raise InvalidSpecError(
            f"model expects {model.n_channels} channels, got {X.shape[1]}")
    table = _channel_power_table(X, model.degree, model.basis,
                                 model.standardization)
    terms = [(coef, [table[e][ch] for ch, e in enumerate(expo) if e])
             for expo, coef in zip(model._indices, model.coefficients)
             if coef != 0.0]
    out = np.zeros(len(X))
    col = np.empty(min(len(X), ROW_BLOCK))
    for start in range(0, len(X), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        block = out[rows]
        part = col[:len(block)]
        for coef, factors in terms:
            if not factors:
                block += coef
                continue
            # f0 * coef equals coef * f0 bit for bit, so every product keeps
            # its coefficient-first order ((coef * f0) * f1) * f2.
            np.multiply(factors[0][rows], coef, out=part)
            for factor in factors[1:]:
                np.multiply(part, factor[rows], out=part)
            block += part
    return out
