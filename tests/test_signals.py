import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiener_gobf.errors import InvalidSpecError
from wiener_gobf.ratfun import RationalTF
from wiener_gobf.signals import (
    MultisineSpec,
    NoiseSpec,
    SignalRecord,
    derive_rng,
    generate_gaussian,
    generate_multisine,
    generate_noise,
    rms,
)


class TestMultisine:
    def test_single_bin_is_pure_sine_of_amplitude_one(self):
        """N=6, one excited bin, rms 1/sqrt(2) -> amplitude-1 sine at bin 1."""
        spec = MultisineSpec(n_samples=6, n_freqs=1,
                             target_rms=1.0 / np.sqrt(2.0), seed=3)
        u = generate_multisine(spec)
        spectrum = np.fft.fft(u.samples)
        amp = 2.0 * np.abs(spectrum[1]) / 6.0
        np.testing.assert_allclose(amp, 1.0, rtol=1e-12)
        others = np.delete(np.abs(spectrum), [1, 5])
        assert np.all(others < 1e-12)

    def test_flat_profile_unit_rms(self):
        spec = MultisineSpec(n_samples=1020, n_freqs=170, target_rms=1.0, seed=7)
        u = generate_multisine(spec)
        np.testing.assert_allclose(rms(u.samples), 1.0, rtol=1e-12)

    def test_seed_changes_phases_only(self):
        spec_a = MultisineSpec(n_samples=256, n_freqs=64, seed=1)
        spec_b = MultisineSpec(n_samples=256, n_freqs=64, seed=2)
        ua, ub = generate_multisine(spec_a), generate_multisine(spec_b)
        sa, sb = np.abs(np.fft.fft(ua.samples)), np.abs(np.fft.fft(ub.samples))
        np.testing.assert_allclose(sa, sb, atol=1e-9 * sa.max())
        assert not np.allclose(ua.samples, ub.samples)

    def test_exactly_periodic_beyond_one_period(self):
        """Evaluating the synthesis sum at t + N reproduces sample t."""
        n, nf = 48, 12
        u = generate_multisine(MultisineSpec(n_samples=n, n_freqs=nf, seed=5))
        spectrum = np.fft.fft(u.samples)
        t = np.arange(n, 3 * n)
        k = np.arange(n)
        extended = (spectrum[None, :] * np.exp(2j * np.pi * np.outer(t, k) / n)
                    ).sum(axis=1).real / n
        np.testing.assert_allclose(extended, np.tile(u.samples, 2), atol=1e-10)

    def test_per_bin_amplitude_scales_inverse_sqrt_nf(self):
        """Fixed rms spreads power as N_F^(-1/2) per bin: |U_k| = rms*N/sqrt(2 N_F)."""
        for nf in (16, 64, 256):
            n = 4 * nf
            u = generate_multisine(MultisineSpec(n_samples=n, n_freqs=nf, seed=9))
            mags = np.abs(np.fft.fft(u.samples))[1:nf + 1]
            np.testing.assert_allclose(mags, n / np.sqrt(2 * nf), rtol=1e-10)

    def test_bit_identical_reproducibility(self):
        spec = MultisineSpec(n_samples=512, n_freqs=100, seed=1234)
        a, b = generate_multisine(spec), generate_multisine(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_nf_above_half_n_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_multisine(MultisineSpec(n_samples=10, n_freqs=6))

    def test_multisine_support_is_excited_bins_only(self):
        n, nf = 240, 40
        u = generate_multisine(MultisineSpec(n_samples=n, n_freqs=nf, seed=2))
        spectrum = np.abs(np.fft.fft(u.samples))
        excited = np.r_[np.arange(1, nf + 1), np.arange(n - nf, n)]
        mask = np.ones(n, dtype=bool)
        mask[excited] = False
        assert np.all(spectrum[mask] < 1e-9 * spectrum.max())

    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_rms_always_hits_target(self, half_n, nf_div, seed):
        n = 2 * half_n
        nf = max(1, half_n // nf_div)
        u = generate_multisine(MultisineSpec(n_samples=n, n_freqs=nf,
                                             target_rms=2.5, seed=seed))
        np.testing.assert_allclose(rms(u.samples), 2.5, rtol=1e-11)


class TestNoise:
    def test_zero_variance_gives_zeros(self):
        v = generate_noise(NoiseSpec(variance=0.0, seed=1), 100)
        assert np.all(v.samples == 0.0)

    def test_white_noise_sample_variance(self):
        v = generate_noise(NoiseSpec(variance=0.01, seed=42), 1_000_000)
        assert abs(np.var(v.samples) - 0.01) < 0.0005

    def test_ar1_lag_one_autocovariance(self):
        """v(t) = 0.9 v(t-1) + e(t): acov(1)/var == 0.9 analytically."""
        h = RationalTF(b=np.array([1.0]), a=np.array([1.0, -0.9]))
        v = generate_noise(NoiseSpec(variance=1.0, shaping_filter=h, seed=3),
                           1_000_000).samples
        v = v - v.mean()
        acov1 = np.mean(v[1:] * v[:-1])
        assert abs(acov1 / np.var(v) - 0.9) < 0.01

    def test_unstable_shaping_filter_rejected(self):
        h = RationalTF(b=np.array([1.0]), a=np.array([1.0, -1.5]))
        with pytest.raises(InvalidSpecError, match="unit circle"):
            generate_noise(NoiseSpec(variance=1.0, shaping_filter=h), 10)

    def test_non_monic_shaping_filter_rejected(self):
        h = RationalTF(b=np.array([2.0]), a=np.array([1.0, -0.5]))
        with pytest.raises(InvalidSpecError):
            generate_noise(NoiseSpec(variance=1.0, shaping_filter=h), 10)

    def test_deterministic_given_seed(self):
        spec = NoiseSpec(variance=0.5, seed=77)
        assert np.array_equal(generate_noise(spec, 64).samples,
                              generate_noise(spec, 64).samples)

    def test_gaussian_input_matches_noise_stream(self):
        a = generate_gaussian(128, variance=2.0, seed=5)
        b = generate_noise(NoiseSpec(variance=2.0, seed=5), 128)
        assert np.array_equal(a.samples, b.samples)


class TestSignalRecord:
    def test_csv_round_trip_exact(self, tmp_path):
        u = generate_multisine(MultisineSpec(n_samples=32, n_freqs=5, seed=8))
        path = tmp_path / "sig.csv"
        u.to_csv(path)
        back = SignalRecord.from_csv(path)
        assert np.array_equal(back.samples, u.samples)

    def test_json_envelope_round_trip(self, tmp_path):
        spec = MultisineSpec(n_samples=32, n_freqs=5, seed=8)
        u = generate_multisine(spec)
        path = tmp_path / "sig.json"
        u.to_json(path, generator=spec.to_json_dict())
        back = SignalRecord.from_json(path)
        assert np.array_equal(back.samples, u.samples)
        assert back.periodic and back.period_samples == 32
        assert json.loads(path.read_text())["generator"]["n_freqs"] == 5

    @pytest.mark.parametrize("key, doc", [
        ("periodic", {"samples": [0.5, 1, -2, 3], "periodic": "false",
                      "period_samples": 2}),
        ("periodic", {"samples": [0.5, 1], "periodic": 1}),
        ("samples", {"samples": ["0.5", "1", "-2", "3"]}),
        ("samples", {"samples": [0.5, True]}),
        ("samples", {"samples": "0.5"}),
    ])
    def test_json_loose_types_rejected(self, tmp_path, key, doc):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidSpecError, match=repr(key)):
            SignalRecord.from_json(path)

    def test_json_without_periodic_is_aperiodic(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"samples": [1, 2.5]}))
        back = SignalRecord.from_json(path)
        assert not back.periodic and back.period_samples is None
        assert np.array_equal(back.samples, [1.0, 2.5])

    def test_aperiodic_record_with_a_period_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError, match="period_samples"):
            SignalRecord(samples=np.zeros(4), periodic=False, period_samples=2)
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"samples": [0.5, 1, -2, 3],
                                    "periodic": False, "period_samples": 3}))
        with pytest.raises(InvalidSpecError, match="period_samples"):
            SignalRecord.from_json(path)

    def test_partial_period_rejected(self):
        with pytest.raises(InvalidSpecError):
            SignalRecord(samples=np.zeros(10), periodic=True, period_samples=4)

    @pytest.mark.parametrize("period", [None, 1, 4])
    def test_empty_periodic_record_rejected(self, period):
        with pytest.raises(InvalidSpecError):
            SignalRecord(samples=np.empty(0), periodic=True, period_samples=period)


class TestRngStreams:
    def test_streams_differ_by_role_tag(self):
        a = derive_rng(1, "alpha").uniform(size=4)
        b = derive_rng(1, "beta").uniform(size=4)
        assert not np.allclose(a, b)

    def test_streams_reproducible(self):
        assert np.array_equal(derive_rng(9, "x").uniform(size=4),
                              derive_rng(9, "x").uniform(size=4))
