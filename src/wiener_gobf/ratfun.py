"""Discrete-time rational transfer functions in powers of z^-1.

Evaluation on the unit circle, time-domain filtering (steady state for a
periodic record, from rest otherwise), and root computation with exact
conjugate closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, SingularityError, UnstableFilterError, json_kwargs
from .signals import SignalRecord

_NEAR_REAL_TOL = 1e-8


@dataclass(frozen=True)
class RationalTF:
    """B(z)/A(z) with b and a the coefficients of z^-l, a[0] != 0."""

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
            raise InvalidSpecError("transfer-function coefficients must be finite")
        if b.size == 0 or a.size == 0 or a[0] == 0.0:
            raise InvalidSpecError("b and a must be nonempty with a[0] != 0")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    def is_stable(self) -> bool:
        return bool(np.all(np.abs(poles(self)) < 1.0))

    def to_json_dict(self) -> dict:
        return {"b": [float(v) for v in self.b], "a": [float(v) for v in self.a]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RationalTF":
        return cls(**json_kwargs(cls, doc))


def freq_response(tf: RationalTF, omegas) -> np.ndarray:
    """Evaluate B(e^{j w}) / A(e^{j w}) on a grid of angular frequencies."""
    w = np.exp(-1j * np.atleast_1d(np.asarray(omegas, dtype=float)))
    num = np.polynomial.polynomial.polyval(w, tf.b)
    den = np.polynomial.polynomial.polyval(w, tf.a)
    if np.any(np.abs(den) < 1e-300):
        raise SingularityError("denominator vanishes on the evaluation grid")
    return num / den


def snap_near_real(p) -> np.ndarray:
    """``p`` as a complex array, each pole with |imag| <= 1e-8 (1 + |p|) made
    real; both members of an exact conjugate pair pass or fail together."""
    p = np.array(p, dtype=complex)
    near = np.abs(p.imag) <= _NEAR_REAL_TOL * (1.0 + np.abs(p))
    p[near] = p[near].real
    return p


def poles(tf: RationalTF) -> np.ndarray:
    """Denominator roots in z, near-real ones made real.  LAPACK gives the
    real companion matrix's complex eigenvalues as exact conjugate pairs;
    adding 0.0 turns a -0.0 real part into +0.0."""
    return snap_near_real(np.roots(tf.a) + 0.0)


def filter_time(tf: RationalTF, u: SignalRecord) -> SignalRecord:
    """Apply the filter to a signal record.

    A periodic record is filtered in exact steady state, Y(k) = H(w_k) U(k)
    on its own DFT grid, which needs a stable filter; an aperiodic record
    runs the direct-form recursion from rest.
    """
    if not u.periodic:
        from scipy.signal import lfilter

        return SignalRecord(samples=lfilter(tf.b, tf.a, u.samples))
    if not tf.is_stable():
        raise UnstableFilterError("periodic-steady-state filtering needs a stable filter")
    n = len(u.samples)
    om = 2.0 * np.pi * np.arange(n) / n
    y = np.fft.ifft(freq_response(tf, om) * np.fft.fft(u.samples)).real
    return SignalRecord(samples=y, periodic=True, period_samples=u.period_samples)
