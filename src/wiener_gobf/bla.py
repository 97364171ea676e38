"""Best-linear-approximation estimation.

Nonparametric FRF from periodic (or random) input/output data, then a
least-squares rational fit under the unit-norm parameter
constraint, yielding the pole estimates that seed the basis construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateExcitationError,
    InvalidSpecError,
    PoleStabilizationWarning,
    RankDeficiencyError,
    RepeatedPoleWarning,
)
from .ratfun import RationalTF, poles as tf_poles, snap_near_real
from .signals import SignalRecord

_EXCITED_DETECT_REL = 1e-9
_EXCITED_MIN_REL = 1e-12
_N_SK_ITERS = 20
_MAX_ITERS = 100     # Gauss-Newton iteration cap
_REL_TOL = 1e-10     # Gauss-Newton stops at a relative cost decrease below this


@dataclass
class NonparametricBla:
    """FRF samples on the excited bins of one period.

    ``excited_bins`` indexes the DFT grid of length ``n_fft`` (one period);
    ``frf`` is aligned with it.
    """

    excited_bins: np.ndarray
    frf: np.ndarray
    n_fft: int

    def __post_init__(self):
        self.excited_bins = np.asarray(self.excited_bins, dtype=int)
        self.frf = np.asarray(self.frf, dtype=complex)
        if len(self.frf) != len(self.excited_bins):
            raise InvalidSpecError("excited_bins and frf must align")

    @property
    def omegas(self) -> np.ndarray:
        return 2.0 * np.pi * self.excited_bins / self.n_fft


@dataclass
class BlaFitResult:
    """Fitted parametric BLA with the stacked coefficient vector normalized
    to unit 2-norm."""

    tf: RationalTF
    poles: np.ndarray
    final_cost: float
    iterations: int
    converged: bool
    cost_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Nonparametric estimates
# ---------------------------------------------------------------------------

def estimate_frf(u: SignalRecord, y: SignalRecord) -> NonparametricBla:
    """FRF as the ratio of output and input DFTs averaged over every period
    of the record.

    The input must be periodic with a known period.  Excited bins are
    detected from the averaged input spectrum; an input with no detected
    bin raises ``DegenerateExcitationError``.
    """
    if not u.periodic:
        raise InvalidSpecError("estimate_frf requires a periodic input record")
    p = u.period_samples
    if len(y.samples) != len(u.samples):
        raise InvalidSpecError("input and output records must have equal length")
    u_blocks = u.samples.reshape(-1, p)
    y_blocks = y.samples.reshape(-1, p)
    u_spec = np.mean(np.fft.fft(u_blocks, axis=1), axis=0)
    y_spec = np.mean(np.fft.fft(y_blocks, axis=1), axis=0)

    peak = float(np.max(np.abs(u_spec)))
    if peak == 0.0:
        raise DegenerateExcitationError("input record has no power")

    half = np.arange(1, p // 2 + 1)
    bins = half[np.abs(u_spec[half]) > _EXCITED_DETECT_REL * peak]
    if len(bins) == 0:
        raise DegenerateExcitationError("no excited bins detected")

    frf = y_spec[bins] / u_spec[bins]
    return NonparametricBla(excited_bins=bins, frf=frf, n_fft=p)


def welch_segment_length(n: int, segment_length: Optional[int] = None) -> int:
    """The Welch segment for an n-sample record: segment_length, or by
    default a quarter of the record and at least 32 samples."""
    return max(32, n // 4) if segment_length is None else int(segment_length)


def estimate_frf_welch(u: SignalRecord, y: SignalRecord,
                       segment_length: Optional[int] = None) -> NonparametricBla:
    """Classical cross-power over auto-power FRF for random excitations.

    Hann-windowed segments overlapping by half are averaged; stands in for
    the more advanced FRF estimators when the input is not periodic.
    """
    from scipy.signal import get_window

    x = np.asarray(u.samples, dtype=float)
    z = np.asarray(y.samples, dtype=float)
    if len(x) != len(z):
        raise InvalidSpecError("input and output records must have equal length")
    n = len(x)
    seg = welch_segment_length(n, segment_length)
    if seg > n:
        raise InvalidSpecError("segment_length exceeds record length")
    step = max(1, seg // 2)
    win = get_window("hann", seg)

    suu = np.zeros(seg)
    syu = np.zeros(seg, dtype=complex)
    for start in range(0, n - seg + 1, step):
        xu = np.fft.fft(win * x[start:start + seg])
        xy = np.fft.fft(win * z[start:start + seg])
        suu += np.abs(xu) ** 2
        syu += xy * np.conj(xu)

    bins = np.arange(1, seg // 2 + 1)
    floor = _EXCITED_MIN_REL * float(np.max(suu))
    keep = suu[bins] > floor
    bins = bins[keep]
    frf = syu[bins] / suu[bins]
    return NonparametricBla(excited_bins=bins, frf=frf, n_fft=seg)


# ---------------------------------------------------------------------------
# Parametric fit
# ---------------------------------------------------------------------------

def _unit_norm(theta: np.ndarray) -> np.ndarray:
    theta = theta / np.linalg.norm(theta)
    pivot = np.argmax(np.abs(theta))
    if theta[pivot] < 0:
        theta = -theta
    return theta


def fit_rational(frf: NonparametricBla, n_a: int, n_b: int) -> BlaFitResult:
    """Minimize mean |G_hat(k) - B/A(k)|^2 over the orders (n_a, n_b)
    subject to ||theta||_2 = 1.

    Linearized total least squares seeds the iteration, Sanathanan-Koerner
    reweighting walks it toward the true cost, and a damped Gauss-Newton
    refinement finishes on the exact objective.  The FRF is normalized by its
    median magnitude internally (pole locations are scale free) and the scale
    is restored in the returned numerator.
    """
    if n_a < 0 or n_b < 0:
        raise InvalidSpecError("orders must be non-negative")
    n_bins = len(frf.frf)
    if n_bins < (n_a + n_b + 2) / 2:
        raise InvalidSpecError(
            f"{n_bins} excited bins cannot determine {n_a + n_b + 2} parameters"
        )

    om = frf.omegas
    scale = float(np.median(np.abs(frf.frf)))
    if scale == 0.0:
        scale = 1.0
    g = frf.frf / scale

    ea = np.exp(-1j * np.outer(om, np.arange(n_a + 1)))
    eb = np.exp(-1j * np.outer(om, np.arange(n_b + 1)))

    def split(theta):
        return theta[: n_a + 1], theta[n_a + 1:]

    def cost(theta):
        a, b = split(theta)
        den = ea @ a
        if np.any(np.abs(den) < 1e-300):
            return np.inf
        return float(np.mean(np.abs(g - (eb @ b) / den) ** 2))

    def linearized(den_weight):
        m = np.hstack([
            (den_weight * g)[:, None] * ea,
            -den_weight[:, None] * eb,
        ])
        mr = np.vstack([m.real, m.imag])
        _, sv, vt = np.linalg.svd(mr, full_matrices=False)
        if len(sv) >= 2 and sv[-2] <= 1e-12 * sv[0]:
            raise RankDeficiencyError(
                "linearized normal system is singular; reduce n_a/n_b"
            )
        return _unit_norm(vt[-1])

    trace = []
    theta = linearized(np.ones(n_bins))
    best_theta, best_cost = theta, cost(theta)
    trace.append(best_cost)

    for _ in range(_N_SK_ITERS):
        a, _ = split(theta)
        den = np.abs(ea @ a)
        theta = linearized(1.0 / np.maximum(den, 1e-12))
        c = cost(theta)
        trace.append(c)
        if c < best_cost:
            best_cost, best_theta = c, theta

    theta, current = best_theta, best_cost
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERS + 1):
        a, b = split(theta)
        den = ea @ a
        num = eb @ b
        resid = g - num / den
        jac = np.hstack([
            (num / den**2)[:, None] * ea,
            -(1.0 / den)[:, None] * eb,
        ])
        jr = np.vstack([jac.real, jac.imag])
        rr = np.concatenate([resid.real, resid.imag])
        step, *_ = np.linalg.lstsq(jr, rr, rcond=None)

        previous = current
        improved = False
        lam = 1.0
        for _ in range(30):
            cand = _unit_norm(theta - lam * step)
            c = cost(cand)
            if c < current * (1.0 - 1e-15):
                theta, current = cand, c
                improved = True
                break
            lam *= 0.5
        if not improved:
            converged = True
            break
        trace.append(current)
        if previous - current <= _REL_TOL * max(current, 1e-300):
            converged = True
            break

    a, b = split(theta)
    theta_out = _unit_norm(np.concatenate([a, b * scale]))
    tf = RationalTF(b=theta_out[n_a + 1:], a=theta_out[: n_a + 1])
    ps = tf_poles(tf)
    if len(ps) >= 2:
        dists = [abs(ps[i] - ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))]
        if min(dists) < 1e-6:
            warnings.warn("estimated poles are nearly repeated; the N_F^-1/2 "
                          "pole-error rate assumes distinct poles",
                          RepeatedPoleWarning)

    return BlaFitResult(
        tf=tf,
        poles=ps,
        final_cost=cost(theta) * scale**2,
        iterations=iterations,
        converged=converged,
        cost_trace=[c * scale**2 for c in trace],
    )


def stabilize_poles(poles: np.ndarray) -> np.ndarray:
    """Reflect any pole with |p| >= 1 to 1/conj(p), which divides its
    imaginary part by |p|^2, so ``snap_near_real`` follows; warns when it acts."""
    p = np.array(poles, dtype=complex)
    bad = np.abs(p) >= 1.0
    if np.any(bad):
        p[bad] = snap_near_real(1.0 / np.conj(p[bad]))
        warnings.warn(f"reflected {int(bad.sum())} unstable pole estimate(s) "
                      "into the unit circle", PoleStabilizationWarning)
    return p
