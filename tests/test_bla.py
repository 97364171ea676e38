import numpy as np
import pytest

from wiener_gobf.bla import (
    NonparametricBla,
    estimate_frf,
    estimate_frf_welch,
    fit_rational,
    stabilize_poles,
)
from wiener_gobf.errors import InvalidSpecError, PoleStabilizationWarning
from wiener_gobf.gobf import bank_outputs, build_bank
from wiener_gobf.ratfun import RationalTF, filter_time, freq_response, poles
from wiener_gobf.signals import MultisineSpec, SignalRecord, generate_gaussian, generate_multisine

EX1 = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                 a=np.array([1.0, -2.1, 1.9, -0.7]))


def min_assignment_err(est, ref):
    import itertools

    est, ref = np.asarray(est), np.asarray(ref)
    return min(max(abs(est[list(p)][j] - ref[j]) for j in range(len(ref)))
               for p in itertools.permutations(range(len(ref))))


def synth_frf(tf, n_bins=200, n_fft=1200, scale=1.0):
    bins = np.arange(1, n_bins + 1)
    om = 2 * np.pi * bins / n_fft
    return NonparametricBla(excited_bins=bins,
                            frf=scale * freq_response(tf, om), n_fft=n_fft)


class TestEstimateFrf:
    def test_linear_system_recovers_frequency_response(self):
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=1))
        y = filter_time(EX1, u)
        frf = estimate_frf(u, y)
        expected = freq_response(EX1, frf.omegas)
        np.testing.assert_allclose(frf.frf, expected, rtol=1e-10)

    def test_cubic_wiener_frf_is_scaled_linear_response(self):
        """For f(x) = x + 0.7 x^3 the FRF scatters around c * G: the
        phase-averaged estimate converges onto the scaled response (the
        per-realization deviation is zero-mean distortion shrinking as
        1/sqrt(averages))."""
        g_tf = RationalTF(b=np.array([1.0, 0.5]), a=np.array([1.0, -0.5]))

        def residual(n_avg, seed0):
            nf = 128
            acc = None
            for m in range(n_avg):
                u = generate_multisine(MultisineSpec(
                    n_samples=4 * nf, n_freqs=nf, target_rms=0.5,
                    seed=seed0 + m))
                x = filter_time(g_tf, u)
                y = SignalRecord(x.samples + 0.7 * x.samples**3,
                                 periodic=True, period_samples=len(u.samples))
                frf = estimate_frf(u, y)
                acc = frf.frf if acc is None else acc + frf.frf
            avg = acc / n_avg
            g = freq_response(g_tf, frf.omegas)
            c = np.vdot(g, avg) / np.vdot(g, g)
            return np.linalg.norm(avg - c * g) / np.linalg.norm(avg)

        r1, r16, r64 = residual(1, 100), residual(16, 300), residual(64, 700)
        assert r64 < r16 < r1
        assert r64 < 0.35 * r1  # ~1/sqrt(M) suppression, with slack
        assert r64 < 0.12       # averaged FRF is close to c * G

    def test_zero_output_gives_zero_frf(self):
        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=32, seed=2))
        y = SignalRecord(np.zeros(256), periodic=True, period_samples=256)
        frf = estimate_frf(u, y)
        assert np.all(frf.frf == 0.0)

    def test_period_averaging(self):
        one = generate_multisine(MultisineSpec(n_samples=256, n_freqs=32, seed=3))
        four = SignalRecord(np.tile(one.samples, 4), periodic=True,
                            period_samples=256)
        y = filter_time(EX1, four)
        frf = estimate_frf(four, y)
        np.testing.assert_allclose(frf.frf, freq_response(EX1, frf.omegas),
                                   rtol=1e-9)

    def test_welch_estimate_tracks_response(self):
        u = generate_gaussian(16384, variance=1.0, seed=5)
        y = filter_time(EX1, u)
        frf = estimate_frf_welch(u, y, segment_length=512)
        expected = freq_response(EX1, frf.omegas)
        mid = slice(10, 200)
        rel = np.abs(frf.frf[mid] - expected[mid]) / np.abs(expected[mid])
        assert np.median(rel) < 0.05


class TestFitRational:
    def test_exact_third_order_recovery(self):
        frf = synth_frf(EX1)
        fit = fit_rational(frf, n_a=3, n_b=3)
        assert min_assignment_err(fit.poles, poles(EX1)) < 1e-8
        theta = np.concatenate([fit.tf.a, fit.tf.b])
        np.testing.assert_allclose(np.linalg.norm(theta), 1.0, atol=1e-14)

    def test_constant_frf_zeroth_order(self):
        bins = np.arange(1, 33)
        frf = NonparametricBla(excited_bins=bins,
                               frf=np.full(32, 5.0, dtype=complex), n_fft=128)
        fit = fit_rational(frf, n_a=0, n_b=0)
        np.testing.assert_allclose(np.abs(np.r_[fit.tf.a, fit.tf.b]),
                                   np.array([1.0, 5.0]) / np.sqrt(26.0),
                                   atol=1e-12)
        assert fit.final_cost < 1e-20

    def test_scale_ambiguity_leaves_poles_unchanged(self):
        fit1 = fit_rational(synth_frf(EX1), n_a=3, n_b=3)
        fit2 = fit_rational(synth_frf(EX1, scale=37.5), n_a=3, n_b=3)
        assert min_assignment_err(fit1.poles, fit2.poles) < 1e-9

    def test_end_to_end_noise_free_lti(self):
        u = generate_multisine(MultisineSpec(n_samples=2046, n_freqs=341, seed=6))
        y = filter_time(EX1, u)
        fit = fit_rational(estimate_frf(u, y), n_a=3, n_b=3)
        assert min_assignment_err(fit.poles, poles(EX1)) < 1e-8

    def test_cost_no_worse_than_linearized_initializer(self):
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=8))
        x = filter_time(EX1, u)
        y = SignalRecord(x.samples + 0.8 * x.samples**2 + 0.7 * x.samples**3,
                         periodic=True, period_samples=1020)
        fit = fit_rational(estimate_frf(u, y), n_a=3, n_b=3)
        assert fit.final_cost <= fit.cost_trace[0] * (1 + 1e-12)
        assert fit.converged

    def test_overparameterized_constant_raises_rank_error(self):
        bins = np.arange(1, 65)
        frf = NonparametricBla(excited_bins=bins,
                               frf=np.full(64, 2.0, dtype=complex), n_fft=256)
        with pytest.raises(np.linalg.LinAlgError):
            fit_rational(frf, n_a=1, n_b=1)

    def test_too_few_bins_rejected(self):
        frf = synth_frf(EX1, n_bins=3)
        with pytest.raises(InvalidSpecError):
            fit_rational(frf, n_a=3, n_b=3)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidSpecError, match="non-negative"):
            fit_rational(synth_frf(EX1), n_a=-1, n_b=0)


class TestStabilizePoles:
    def test_reflected_near_real_pair_made_real(self):
        """1e4 +- 0.1j reflects to 1e-4 +- 1e-9j, which is made real, so the
        bank holds the double real pole 1e-4 and its outputs exist."""
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0, -2e4, 1e8 + 0.01]))
        with pytest.warns(PoleStabilizationWarning):
            out = stabilize_poles(poles(tf))
        assert np.all(out.imag == 0.0)
        np.testing.assert_allclose(out.real, [1e-4, 1e-4], rtol=1e-9)
        bank = build_bank(out, 1)
        u = generate_multisine(MultisineSpec(n_samples=64, n_freqs=8, seed=1))
        assert np.all(np.isfinite(bank_outputs(bank, u)))

    def test_real_pole_reflected(self):
        with pytest.warns(PoleStabilizationWarning):
            out = stabilize_poles(np.array([2.0]))
        np.testing.assert_allclose(out, [0.5], atol=1e-15)

    def test_stable_pole_untouched(self):
        out = stabilize_poles(np.array([0.9 + 0.1j, 0.9 - 0.1j]))
        np.testing.assert_allclose(out, [0.9 + 0.1j, 0.9 - 0.1j])

    def test_complex_pair_reflection(self):
        pair = 1.25 * np.exp(1j * np.array([np.pi / 4, -np.pi / 4]))
        with pytest.warns(PoleStabilizationWarning):
            out = stabilize_poles(pair)
        expected = 0.8 * np.exp(1j * np.array([np.pi / 4, -np.pi / 4]))
        np.testing.assert_allclose(np.sort_complex(out),
                                   np.sort_complex(expected), atol=1e-12)
        np.testing.assert_array_equal(np.sort_complex(out),
                                      np.sort_complex(out.conj()))
