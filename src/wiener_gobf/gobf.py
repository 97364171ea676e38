"""Generalized orthonormal basis functions.

A finite pole set {xi_1..xi_nxi}, repeated n_rep times, generates the cascade

    F_l(z) = sqrt(1 - |xi_l|^2) / (z - xi_l) * prod_{i<l} (1 - conj(xi_i) z) / (z - xi_i)

plus the constant function F_0(z) = 1 for the feed-through term.  The
complex functions are orthonormal on the unit circle; for real-valued model
channels, each conjugate pole pair contributes sqrt(2)*Re and sqrt(2)*Im of
one member, whitened by the analytic 2x2 in-pair Gram so the real columns
are orthonormal as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, UnstableFilterError
from .polymodel import fit_ls
from .ratfun import RationalTF, filter_time
from .signals import SignalRecord

_PROJECTION_PERIOD = 8192


def _canonical_pole_order(poles: np.ndarray) -> np.ndarray:
    """Sort poles by (modulus, |angle|) with conjugate pairs adjacent.

    The set must be closed under conjugation bit for bit; a pole with a zero
    imaginary part is real.  The positive-imaginary member of each pair
    comes first.  Basis span is invariant to this choice; individual
    expansion coefficients are not.
    """
    upper = np.sort(poles[poles.imag > 0])
    if not np.array_equal(upper, np.sort(np.conj(poles[poles.imag < 0]))):
        raise InvalidSpecError("pole set is not conjugate closed")
    heads = sorted((p for p in poles if p.imag >= 0),
                   key=lambda p: (abs(p), abs(np.angle(p)) if p.imag else 0.0))
    ordered = [q for p in heads
               for q in ((p, np.conj(p)) if p.imag else (complex(p.real),))]
    return np.array(ordered, dtype=complex)


def pair_whitening(xi: complex) -> np.ndarray:
    """2x2 transform making [sqrt(2) Re F, sqrt(2) Im F] orthonormal.

    For a conjugate pair preceded by a conjugate-closed (hence real) all-pass
    product, the only nonzero cross moment is <F, conj-F> which evaluates by
    residues to g = (1 - |xi|^2) / (1 - xi^2), independent of the preceding
    sections.  The raw pair Gram is [[1+Re g, Im g], [Im g, 1-Re g]]; its
    inverse Cholesky factor restores exact orthonormality.
    """
    g = (1.0 - abs(xi) ** 2) / (1.0 - xi**2)
    gram = np.array([[1.0 + g.real, g.imag], [g.imag, 1.0 - g.real]])
    return np.linalg.inv(np.linalg.cholesky(gram)).T


@dataclass(frozen=True)
class GobfBank:
    """Ordered basis {F_0 = 1, F_1, ..., F_n} from a repeated finite pole set."""

    base_poles: np.ndarray
    n_rep: int

    def __post_init__(self):
        base = np.atleast_1d(np.asarray(self.base_poles, dtype=complex))
        if self.n_rep < 0:
            raise InvalidSpecError("n_rep must be >= 0")
        if not np.all(np.isfinite(base)):
            raise InvalidSpecError("bank poles must be finite")
        if self.n_rep > 0:
            if np.any(np.abs(base) >= 1.0):
                raise UnstableFilterError(
                    "bank poles must lie strictly inside the unit circle; "
                    "run stabilize_poles first"
                )
            base = _canonical_pole_order(base)
        object.__setattr__(self, "base_poles", base)

    @property
    def n_base(self) -> int:
        return len(self.base_poles)

    @property
    def n_dynamic(self) -> int:
        return self.n_rep * self.n_base

    @property
    def n_outputs(self) -> int:
        return self.n_dynamic + 1

    @property
    def pole_sequence(self) -> np.ndarray:
        """xi_1..xi_n with the periodic repetition pattern."""
        return np.tile(self.base_poles, self.n_rep)

    def to_json_dict(self) -> dict:
        return {
            "base_poles": [[float(p.real), float(p.imag)] for p in self.base_poles],
            "n_rep": self.n_rep,
            "include_constant": True,  # kept so the file format is unchanged
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GobfBank":
        base = np.array([complex(re, im) for re, im in doc["base_poles"]])
        if doc.get("include_constant", True) is not True:
            raise InvalidSpecError("banks without the constant F_0 = 1 are not supported")
        if type(doc["n_rep"]) is not int:
            raise InvalidSpecError(f"n_rep must be an int, not {doc['n_rep']!r}")
        return cls(base_poles=base, n_rep=doc["n_rep"])


def build_bank(poles: np.ndarray, n_rep: int) -> GobfBank:
    """Construct the bank from a stable, conjugate-closed pole set."""
    return GobfBank(base_poles=poles, n_rep=n_rep)


def transient_length(bank: GobfBank, n: int) -> int:
    """Rows to drop so from-rest bank outputs have settled (1e-8 decay,
    capped at a quarter of the record)."""
    if bank.n_dynamic == 0:
        return 0
    radius = float(np.max(np.abs(bank.base_poles)))
    if radius <= 0.0:
        return min(bank.n_dynamic, n // 4)
    t = int(np.ceil(np.log(1e-8) / np.log(radius))) + bank.n_dynamic
    return max(0, min(t, n // 4))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _cascade(seq: np.ndarray, z: np.ndarray, read: np.ndarray):
    """Yield (l, F_l(z)) for each l where the mask ``read`` is set, in
    cascade form."""
    running = np.ones_like(z)
    for l, xi in enumerate(seq):
        if read[l]:
            yield l, np.sqrt(1.0 - abs(xi) ** 2) / (z - xi) * running
        running = running * (1.0 - np.conj(xi) * z) / (z - xi)


def bank_frequency_matrix(bank: GobfBank, omegas) -> np.ndarray:
    """Entry (k, l) = F_l(e^{j omega_k}) of the complex functions; column 0
    is F_0."""
    z = np.exp(1j * np.atleast_1d(np.asarray(omegas, dtype=float)))
    seq = bank.pole_sequence
    out = np.ones((len(z), 1 + len(seq)), dtype=complex)
    for l, col in _cascade(seq, z, np.full(len(seq), True)):
        out[:, 1 + l] = col
    return out


def _filtered_columns(bank: GobfBank, u: SignalRecord):
    """Yield (l, F_l u) as a complex signal for each real pole and the first
    member of each conjugate pair: on the DFT grid for a periodic record,
    through the shared all-pass chain from rest otherwise."""
    seq = bank.pole_sequence
    read = seq.imag >= 0
    samples = u.samples
    if u.periodic:
        n = len(samples)
        spectrum = np.fft.fft(samples)
        for l, col in _cascade(seq, np.exp(2j * np.pi * np.arange(n) / n), read):
            yield l, np.fft.ifft(col * spectrum)
    else:
        from scipy.signal import lfilter

        chain = samples.astype(complex)
        for l, xi in enumerate(seq):
            if read[l]:
                gain = np.sqrt(1.0 - abs(xi) ** 2)
                yield l, lfilter([0.0, gain], [1.0, -xi], chain)
            chain = lfilter([-np.conj(xi), 1.0], [1.0, -xi], chain)


def bank_outputs(bank: GobfBank, u: SignalRecord) -> np.ndarray:
    """Real N x n_outputs matrix of basis-filter outputs x_l = F_l u.

    A periodic record is filtered on its DFT grid (exact steady state); an
    aperiodic record runs the cascaded one-pole recursions from rest,
    sharing the all-pass chain across basis functions.  Each real column is
    written into the result as soon as it is recombined.
    """
    seq = bank.pole_sequence
    out = np.empty((len(u.samples), bank.n_outputs))
    out[:, 0] = u.samples
    for l, f in _filtered_columns(bank, u):
        if seq[l].imag == 0:
            out[:, 1 + l] = f.real
            continue
        # Whitened [Re, Im] of the pair; the time-domain conjugate of f
        # equals the conjugate-coefficient output.
        fbar = np.conj(f)
        re = (f + fbar) / np.sqrt(2.0)
        im = (f - fbar) / (np.sqrt(2.0) * 1j)
        out[:, 1 + l:3 + l] = (np.column_stack([re, im])
                               @ pair_whitening(seq[l])).real
    return out


# ---------------------------------------------------------------------------
# Diagnostics: Gram matrix, decay factor, series expansion
# ---------------------------------------------------------------------------

def _unit_impulse(n: int) -> SignalRecord:
    """One period of a unit impulse.  Through ``bank_outputs`` it gives each
    real model channel's periodic impulse response, whose DFT is the
    channel's frequency response on the n-point grid."""
    return SignalRecord(np.eye(1, n)[0], periodic=True)


def gram_matrix(bank: GobfBank, n_points: int = 100_000,
                real_outputs: bool = False) -> np.ndarray:
    """Unit-circle Gram <F_a, F_b> by trapezoidal quadrature on n_points.

    With ``real_outputs`` the Gram of the real model channels, from their
    periodic impulse responses (by Parseval the same quadrature).
    """
    if real_outputs:
        x = bank_outputs(bank, _unit_impulse(n_points))
        return x.T @ x
    f = bank_frequency_matrix(bank, 2.0 * np.pi * np.arange(n_points) / n_points)
    return (f.conj().T @ f) / n_points


def decay_rho(bank_poles: np.ndarray, target_poles: np.ndarray) -> float:
    """Worst-case Blaschke mismatch between target poles and one pole block.

    rho = max_j prod_k |(p_j - xi_k) / (1 - p_j xi_k)|; zero when the bank
    contains the target poles exactly, below one for conjugate-closed stable
    sets.
    """
    if len(bank_poles) == 0 or len(target_poles) == 0:
        return 0.0
    best = 0.0
    for p in target_poles:
        prod = 1.0
        for xi in bank_poles:
            prod *= abs((p - xi) / (1.0 - p * xi))
        best = max(best, float(prod))
    return best


@dataclass
class ExpansionResult:
    """Least-squares series expansion of a target transfer function on the bank."""

    coefficients: np.ndarray
    residual_sup: float
    residual_by_rep: list


def project_expansion(target: RationalTF, bank: GobfBank) -> ExpansionResult:
    """Expand a stable target on the real model channels and report the
    sup-norm residual on [0, pi], also for every lower repetition count
    (``residual_by_rep[r]``, the fit on the leading 1 + r * n_base channels).

    ``fit_ls`` fits the target's periodic impulse response with the
    channels' (see ``_unit_impulse``); the residual's DFT is its frequency
    response on the grid.
    """
    u = _unit_impulse(_PROJECTION_PERIOD)
    h = filter_time(target, u).samples       # rejects an unstable target
    x = bank_outputs(bank, u)
    residuals = []
    for r in range(bank.n_rep + 1):
        channels = x[:, :1 + r * bank.n_base]
        alpha = fit_ls(channels, h)
        residuals.append(float(np.max(np.abs(np.fft.rfft(h - channels @ alpha)))))
    return ExpansionResult(coefficients=alpha, residual_sup=residuals[-1],
                           residual_by_rep=residuals)
