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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedBasisWarning, InvalidSpecError, UnstableFilterError
from .ratfun import RationalTF, freq_response
from .signals import SignalRecord, dft

_REAL_POLE_TOL = 1e-12
_PROJECTION_GRID = 4096
_CONDITION_WARN = 1e10


def _is_real_pole(p: complex) -> bool:
    return abs(p.imag) <= _REAL_POLE_TOL * (1.0 + abs(p))


def _canonical_pole_order(poles: np.ndarray) -> np.ndarray:
    """Sort poles by (modulus, |angle|) with conjugate pairs adjacent.

    The positive-imaginary member of each pair comes first.  Basis span is
    invariant to this choice; individual expansion coefficients are not.
    """
    items = []
    remaining = list(np.asarray(poles, dtype=complex))
    while remaining:
        p = remaining.pop(0)
        if _is_real_pole(p):
            items.append((abs(p), 0.0, [complex(p.real)]))
            continue
        j = min(range(len(remaining)), default=None,
                key=lambda i: abs(remaining[i] - np.conj(p)))
        if j is None or abs(remaining[j] - np.conj(p)) > 1e-8 * (1.0 + abs(p)):
            raise InvalidSpecError("pole set is not conjugate closed")
        remaining.pop(j)
        rep = p if p.imag > 0 else np.conj(p)
        items.append((abs(rep), abs(np.angle(rep)), [rep, np.conj(rep)]))
    items.sort(key=lambda t: (t[0], t[1]))
    ordered = [p for _, _, group in items for p in group]
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
        if self.n_rep == 0:
            return np.array([], dtype=complex)
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

def _cascade(seq: np.ndarray, z: np.ndarray, read):
    """Yield (l, F_l(z)) for each l in ``read``, in cascade form."""
    running = np.ones_like(z)
    for l, xi in enumerate(seq):
        if l in read:
            yield l, np.sqrt(1.0 - abs(xi) ** 2) / (z - xi) * running
        running = running * (1.0 - np.conj(xi) * z) / (z - xi)


def _complex_columns(bank: GobfBank, z: np.ndarray) -> np.ndarray:
    """F_1..F_n evaluated at arbitrary complex points."""
    z = np.asarray(z, dtype=complex)
    seq = bank.pole_sequence
    cols = np.empty((len(z), len(seq)), dtype=complex)
    for l, col in _cascade(seq, z, range(len(seq))):
        cols[:, l] = col
    return cols


def _read_columns(seq: np.ndarray) -> list[int]:
    """Columns ``_recombine_real`` reads: each real pole and the first
    member of each conjugate pair."""
    read, l = [], 0
    while l < len(seq):
        read.append(l)
        l += 1 if _is_real_pole(seq[l]) else 2
    return read


def _recombine_pair(xi: complex, f: np.ndarray, fbar: np.ndarray) -> np.ndarray:
    """Whitened [Re, Im] columns of a conjugate pair from its first member
    ``f``; ``fbar`` holds conj(f(conj(.))) on the same grid, which equals the
    conjugate-coefficient function evaluated at the grid."""
    re = (f + fbar) / np.sqrt(2.0)
    im = (f - fbar) / (np.sqrt(2.0) * 1j)
    return np.column_stack([re, im]) @ pair_whitening(xi)


def _recombine_real(bank: GobfBank, raw: np.ndarray, raw_conj: np.ndarray) -> np.ndarray:
    """Map complex basis columns to real-coefficient columns: real poles pass
    through, conjugate pairs become ``_recombine_pair`` of their first member."""
    seq = bank.pole_sequence
    out = np.empty_like(raw)
    for l in _read_columns(seq):
        if _is_real_pole(seq[l]):
            out[:, l] = raw[:, l]
        else:
            out[:, l:l + 2] = _recombine_pair(seq[l], raw[:, l], raw_conj[:, l])
    return out


def bank_frequency_matrix(bank: GobfBank, omegas,
                          real_outputs: bool = False) -> np.ndarray:
    """Entry (k, l) = F_l(e^{j omega_k}); column 0 is F_0.

    With ``real_outputs`` the dynamic columns are the real-coefficient
    recombination actually used for model channels (still complex-valued on
    the grid, but conjugate-symmetric in frequency).
    """
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    z = np.exp(1j * om)
    raw = _complex_columns(bank, z)
    if real_outputs and bank.n_dynamic > 0:
        raw_conj = np.conj(_complex_columns(bank, np.conj(z)))
        raw = _recombine_real(bank, raw, raw_conj)
    return np.hstack([np.ones((len(z), 1), dtype=complex), raw])


def _filtered_columns(bank: GobfBank, u: SignalRecord):
    """Yield (l, F_l u) as a complex signal for each column ``_read_columns``
    names: on the DFT grid for a periodic record, through the shared all-pass
    chain from rest otherwise."""
    seq = bank.pole_sequence
    read = set(_read_columns(seq))
    samples = u.samples
    if u.periodic:
        n = len(samples)
        spectrum = dft(samples)
        for l, col in _cascade(seq, np.exp(2j * np.pi * np.arange(n) / n), read):
            yield l, np.fft.ifft(col * spectrum)
    else:
        from scipy.signal import lfilter

        chain = samples.astype(complex)
        for l, xi in enumerate(seq):
            if l in read:
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
    leak = 0.0
    for l, f in _filtered_columns(bank, u):
        # The time-domain conjugate equals the conjugate-coefficient output.
        cols = (f[:, None] if _is_real_pole(seq[l])
                else _recombine_pair(seq[l], f, np.conj(f)))
        out[:, 1 + l:1 + l + cols.shape[1]] = cols.real
        leak = np.maximum(leak, np.max(np.abs(cols.imag), initial=0.0))
    scale = max(np.max(np.abs(out[:, 1:]), initial=0.0), 1.0)
    if leak > 1e-8 * scale:
        raise InvalidSpecError(
            f"basis outputs are not real (imaginary leakage {leak:.3e}); "
            "pole set is likely not conjugate closed"
        )
    return out


# ---------------------------------------------------------------------------
# Diagnostics: Gram matrix, decay factor, series expansion
# ---------------------------------------------------------------------------

def gram_matrix(bank: GobfBank, n_points: int = 100_000,
                real_outputs: bool = False) -> np.ndarray:
    """Unit-circle Gram <F_a, F_b> by trapezoidal quadrature on n_points."""
    om = 2.0 * np.pi * np.arange(n_points) / n_points
    f = bank_frequency_matrix(bank, om, real_outputs=real_outputs)
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


def _project_once(bank: GobfBank, response: np.ndarray, om: np.ndarray):
    basis = bank_frequency_matrix(bank, om, real_outputs=True)
    stacked = np.vstack([basis.real, basis.imag])
    rhs = np.concatenate([response.real, response.imag])
    if stacked.shape[1] > 0:
        cond = np.linalg.cond(stacked)
        if cond > _CONDITION_WARN:
            warnings.warn(f"projection basis condition number {cond:.2e}",
                          IllConditionedBasisWarning)
    alpha, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    residual = float(np.max(np.abs(response - basis @ alpha)))
    return alpha, residual


def project_expansion(target: RationalTF, bank: GobfBank) -> ExpansionResult:
    """Expand a stable target on the bank and report the sup-norm residual,
    also for every lower repetition count (``residual_by_rep[r]``)."""
    if not target.is_stable():
        raise UnstableFilterError("series expansion requires a stable target")

    om = np.linspace(0.0, np.pi, _PROJECTION_GRID)
    response = freq_response(target, om)

    residuals = []
    for r in range(0, bank.n_rep + 1):
        alpha, res_r = _project_once(GobfBank(bank.base_poles, r), response, om)
        residuals.append(res_r)

    return ExpansionResult(
        coefficients=np.asarray(alpha, dtype=float),
        residual_sup=residuals[-1],
        residual_by_rep=residuals,
    )
