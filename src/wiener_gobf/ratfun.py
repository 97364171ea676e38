"""Discrete-time rational transfer functions in powers of z^-1.

Evaluation on the unit circle, time-domain filtering (steady state for a
periodic record, from rest otherwise), and root computation with exact
conjugate closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, SingularityError, UnstableFilterError, json_kwargs
from .signals import SignalRecord, dft, idft

_CONJ_TOL = 1e-8


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


def _symmetrize_conjugates(roots: np.ndarray, tol: float = _CONJ_TOL) -> np.ndarray:
    """Snap nearly-conjugate root pairs onto exact closure.

    Real-coefficient polynomials have conjugate-closed roots up to rounding;
    downstream basis construction requires the closure to be exact.
    """
    roots = np.asarray(roots, dtype=complex)
    out = []
    used = np.zeros(len(roots), dtype=bool)
    order = np.argsort(-np.abs(roots.imag))
    for i in order:
        if used[i]:
            continue
        r = roots[i]
        used[i] = True
        if abs(r.imag) <= tol * (1.0 + abs(r)):
            out.append(complex(r.real))
            continue
        candidates = [j for j in range(len(roots)) if not used[j]]
        if not candidates:
            out.append(r)
            continue
        j = min(candidates, key=lambda j: abs(roots[j] - np.conj(r)))
        if abs(roots[j] - np.conj(r)) <= 1e-3 * (1.0 + abs(r)):
            used[j] = True
            p = 0.5 * (r + np.conj(roots[j]))
            out.extend([p, np.conj(p)])
        else:
            out.append(r)
    return np.array(out, dtype=complex)


def poles(tf: RationalTF) -> np.ndarray:
    """Denominator roots in z, conjugate pairs symmetrized exactly."""
    if len(tf.a) < 2:
        return np.array([], dtype=complex)
    return _symmetrize_conjugates(np.roots(tf.a))


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
    y = idft(freq_response(tf, om) * dft(u.samples)).real
    return SignalRecord(samples=y, periodic=True, period_samples=u.period_samples)
