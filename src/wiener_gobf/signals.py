"""Excitation and disturbance signals.

Random-phase multisines, Gaussian inputs, and filtered-noise disturbances,
plus the DFT conventions used throughout the toolkit (forward transform
unnormalized, inverse carries the 1/N factor).
"""

from __future__ import annotations

import json
import warnings
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidSpecError, UnstableFilterError, json_kwargs

if TYPE_CHECKING:
    from .ratfun import RationalTF

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _entropy_words(seed: int, tags) -> list[int]:
    words = [int(seed) & _MASK64]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag) & _MASK64)
    return words


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Counter-based generator for (seed, role-tag) streams.

    Each signal draws from its own independent Philox stream so Monte-Carlo
    trials can run in parallel and still reproduce bit-identically.
    """
    ss = np.random.SeedSequence(_entropy_words(seed, tags))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *tags) -> int:
    """Collapse (seed, tags) into a single 64-bit sub-seed."""
    ss = np.random.SeedSequence(_entropy_words(seed, tags))
    return int(ss.generate_state(1, np.uint64)[0])


def rms(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(np.mean(x**2)))


# ---------------------------------------------------------------------------
# DFT conventions
# ---------------------------------------------------------------------------

def dft(samples) -> np.ndarray:
    """Forward DFT, X(k) = sum_t x(t) exp(-j 2 pi k t / N)."""
    samples = np.asarray(samples)
    if samples.size < 1:
        raise InvalidSpecError("dft requires at least one sample")
    return np.fft.fft(samples)


def idft(spectrum) -> np.ndarray:
    """Inverse DFT with the 1/N normalization; round-trips dft exactly."""
    return np.fft.ifft(np.asarray(spectrum))


# ---------------------------------------------------------------------------
# Signal record
# ---------------------------------------------------------------------------

@dataclass
class SignalRecord:
    """A sampled signal with optional periodicity.

    ``period_samples`` is the length of one period, a positive integer;
    aperiodic signals keep ``periodic=False`` and ``period_samples=None``.
    """

    samples: np.ndarray
    periodic: bool = False
    period_samples: Optional[int] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.periodic:
            if self.period_samples is None:
                self.period_samples = len(self.samples)
            p = self.period_samples
            if not isinstance(p, (int, np.integer)) or p < 1:
                raise InvalidSpecError(
                    f"a periodic record needs a positive integer period_samples, "
                    f"not {p!r}")
            if len(self.samples) == 0 or len(self.samples) % p != 0:
                raise InvalidSpecError(
                    "periodic record length must be a whole number of periods, "
                    "at least one")
        elif self.period_samples is not None:
            raise InvalidSpecError(
                f"an aperiodic record has no period_samples, not "
                f"{self.period_samples!r}")

    def __len__(self) -> int:
        return len(self.samples)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,value\n")
            for i, v in enumerate(self.samples):
                fh.write(f"{i},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "SignalRecord":
        """An aperiodic record from the ``value`` column of ``to_csv``: the
        header ``index,value``, then rows of exactly those two columns."""
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "index,value":
                raise InvalidSpecError(
                    f"a signal CSV starts with the header 'index,value', "
                    f"not {header!r}")
            with warnings.catch_warnings():
                # No rows after the header is an empty record, not a warning.
                warnings.filterwarnings("ignore", "genfromtxt: Empty input file",
                                        UserWarning)
                data = np.genfromtxt(fh, delimiter=",", ndmin=2)
        if data.size == 0:
            return cls(samples=np.empty(0))
        if data.shape[1] != 2:
            raise InvalidSpecError(
                f"a signal CSV has the two columns index and value, "
                f"not {data.shape[1]}")
        return cls(samples=data[:, 1])

    def to_json_dict(self, generator: Optional[dict] = None) -> dict:
        doc = {
            "samples": [float(v) for v in self.samples],
            "periodic": self.periodic,
            "period_samples": self.period_samples,
        }
        if generator is not None:
            doc["generator"] = generator
        return doc

    def to_json(self, path, generator: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(generator), fh)

    @classmethod
    def from_json(cls, path) -> "SignalRecord":
        """A record from ``to_json``: numeric samples, ``periodic`` a JSON
        bool (absent means false); the ``generator`` key is not read."""
        with open(path) as fh:
            kw = json_kwargs(_SignalJson, json.load(fh))
        kw.pop("generator", None)
        return cls(**kw)


@dataclass(frozen=True)
class _SignalJson:
    """Key names and types of the JSON form of a SignalRecord."""

    samples: np.ndarray
    periodic: bool = False
    period_samples: Optional[int] = None
    generator: Optional[dict] = None


def load_signal(path) -> SignalRecord:
    """Read a signal from a .json envelope or a bare .csv file."""
    path = str(path)
    if path.endswith(".json"):
        return SignalRecord.from_json(path)
    return SignalRecord.from_csv(path)


# ---------------------------------------------------------------------------
# Random-phase multisine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultisineSpec:
    """Definition of a random-phase multisine.

    The signal is u(t) = sum_{k=-N_F..N_F} U_k exp(j 2 pi k t / N) on the
    sample grid, with U_k = conj(U_{-k}), U_0 = 0, phases uniform on
    [0, 2 pi), and the flat per-bin amplitude |U_k| = 1 / sqrt(N_F).  After
    synthesis a single global gain rescales the record to ``target_rms``.
    """

    n_samples: int
    n_freqs: int
    sample_period: float = 1.0
    target_rms: float = 1.0
    seed: int = 0

    @property
    def f_max(self) -> float:
        """Highest excited frequency in hertz; f_max * N * T_s == N_F."""
        return self.n_freqs / (self.n_samples * self.sample_period)

    def validate(self) -> None:
        if self.n_samples < 2:
            raise InvalidSpecError("n_samples must be at least 2")
        if not 1 <= self.n_freqs <= self.n_samples // 2:
            raise InvalidSpecError(
                f"n_freqs must satisfy 1 <= N_F <= N/2 "
                f"(got N_F={self.n_freqs}, N={self.n_samples})"
            )
        if self.sample_period <= 0:
            raise InvalidSpecError("sample_period must be positive")
        if self.target_rms <= 0:
            raise InvalidSpecError("target_rms must be positive")

    def to_json_dict(self) -> dict:
        return {
            "kind": "multisine",
            "n_samples": self.n_samples,
            "n_freqs": self.n_freqs,
            "sample_period": self.sample_period,
            "target_rms": self.target_rms,
            "seed": self.seed,
            "amplitude_profile": "flat",  # kept so generated files are unchanged
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MultisineSpec":
        """A spec from the keys of ``to_json_dict`` other than ``kind`` and
        ``amplitude_profile``."""
        return cls(**json_kwargs(cls, doc))


def generate_multisine(spec: MultisineSpec) -> SignalRecord:
    """Synthesize one period of a random-phase multisine.

    Only bins 1..N_F are excited (no DC); phases come from the
    (seed, "multisine-phases") stream.  The output rms is exactly
    ``spec.target_rms`` and the record is periodic with period N.
    """
    spec.validate()
    n, nf = spec.n_samples, spec.n_freqs

    rng = derive_rng(spec.seed, "multisine-phases")
    phases = rng.uniform(0.0, 2.0 * np.pi, nf)

    half = np.zeros(n // 2 + 1, dtype=complex)
    half[1:nf + 1] = 1.0 / np.sqrt(nf) * np.exp(1j * phases)
    samples = np.fft.irfft(half * n, n=n)

    r = rms(samples)
    if r == 0.0:
        raise InvalidSpecError("synthesized multisine has zero power")
    samples = samples * (spec.target_rms / r)

    return SignalRecord(samples=samples, periodic=True, period_samples=n)


# ---------------------------------------------------------------------------
# Noise / Gaussian inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Filtered white Gaussian noise v = H(q) e, e ~ N(0, variance).

    ``shaping_filter`` must be monic (leading numerator and denominator
    coefficients equal to 1) and stable; ``None`` means the identity filter.
    Both are checked when the spec is built, whatever the variance.
    """

    variance: float
    shaping_filter: Optional["RationalTF"] = None
    seed: int = 0

    def __post_init__(self):
        if not self.variance >= 0:
            raise InvalidSpecError(
                f"noise 'variance' must be >= 0, not {self.variance!r}")
        h = self.shaping_filter
        if h is None:
            return
        b = np.asarray(h.b, dtype=float)
        a = np.asarray(h.a, dtype=float)
        if abs(b[0] - 1.0) > 1e-12 or abs(a[0] - 1.0) > 1e-12:
            raise InvalidSpecError("shaping filter must be monic")
        if len(a) > 1:
            poles = np.roots(a)
            if np.any(np.abs(poles) >= 1.0):
                raise UnstableFilterError(
                    "shaping filter has poles on or outside the unit circle"
                )

    def with_seed(self, seed: int) -> "NoiseSpec":
        return replace(self, seed=seed)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseSpec":
        from .ratfun import RationalTF  # ratfun imports this module

        return cls(**json_kwargs(cls, doc, localns={"RationalTF": RationalTF}))


def generate_noise(spec: NoiseSpec, n: int) -> SignalRecord:
    """Draw n samples of v = H(q) e with e i.i.d. N(0, variance)."""
    if n < 1:
        raise InvalidSpecError("n must be >= 1")
    if spec.variance == 0.0:
        return SignalRecord(samples=np.zeros(n))
    rng = derive_rng(spec.seed, "noise")
    e = rng.normal(0.0, np.sqrt(spec.variance), n)
    if spec.shaping_filter is None:
        return SignalRecord(samples=e)
    from .ratfun import filter_time  # ratfun imports this module

    return filter_time(spec.shaping_filter, SignalRecord(samples=e))


def generate_gaussian(n: int, variance: float = 1.0, seed: int = 0) -> SignalRecord:
    """Unfiltered white Gaussian input (the Example-2 excitation class)."""
    return generate_noise(NoiseSpec(variance=variance, seed=seed), n)
