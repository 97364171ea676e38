import json

import numpy as np
import pytest

from wiener_gobf import bla, polymodel
from wiener_gobf.errors import EstimationError, InvalidSpecError
from wiener_gobf.experiments import example2_polynomial_system
from wiener_gobf.gobf import bank_outputs, build_bank, transient_length
from wiener_gobf.pipeline import (
    IdentifyConfig,
    StaticNonlinearity,
    WienerModel,
    WienerSystem,
    estimate_intermediate,
    identify,
    nrmse,
    predict,
    simulate,
)
from wiener_gobf.ratfun import RationalTF, poles
from wiener_gobf.signals import (
    MultisineSpec,
    NoiseSpec,
    SignalRecord,
    generate_gaussian,
    generate_multisine,
)

EX1_G = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                   a=np.array([1.0, -2.1, 1.9, -0.7]))
EX1_F = StaticNonlinearity(kind="polynomial",
                           coefficients=np.array([0.0, 1.0, 0.8, 0.7]))
EX1 = WienerSystem(g=EX1_G, f=EX1_F)


class TestStaticNonlinearity:
    def test_saturation_values(self):
        f = StaticNonlinearity(kind="saturation", lower=-0.4, upper=0.2)
        np.testing.assert_allclose(f.apply(np.array([-1.0, 0.0, 0.5])),
                                   [-0.4, 0.0, 0.2])

    def test_saturation_requires_ordered_limits(self):
        with pytest.raises(InvalidSpecError):
            StaticNonlinearity(kind="saturation", lower=0.2, upper=-0.4)

    def test_polynomial_evaluation(self):
        f = StaticNonlinearity(kind="polynomial", coefficients=[1.0, 0.0, 2.0])
        np.testing.assert_allclose(f.apply(np.array([3.0])), [19.0])


class TestSimulate:
    def test_identity_nonlinearity_passes_intermediate(self):
        system = WienerSystem(
            g=EX1_G, f=StaticNonlinearity(kind="polynomial",
                                          coefficients=[0.0, 1.0]))
        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=40, seed=1))
        x, y = simulate(system, u)
        np.testing.assert_allclose(y.samples, x.samples, atol=1e-12)

    def test_cascade_matches_independent_composition(self):
        """Frequency-domain filtering plus a plain polynomial evaluated by
        hand reproduces the simulator output."""
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=2))
        x, y = simulate(EX1, u)

        om = 2 * np.pi * np.arange(1020) / 1020
        w = np.exp(-1j * om)
        resp = np.polyval(EX1_G.b[::-1], w) / np.polyval(EX1_G.a[::-1], w)
        x_ref = np.real(np.fft.ifft(resp * np.fft.fft(u.samples)))
        y_ref = x_ref + 0.8 * x_ref**2 + 0.7 * x_ref**3
        np.testing.assert_allclose(y.samples, y_ref,
                                   atol=1e-12 * np.max(np.abs(y_ref)))

    def test_noise_seed_controls_noise_only(self):
        system = WienerSystem(g=EX1_G, f=EX1_F,
                              output_noise=NoiseSpec(variance=0.01, seed=1))
        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=40, seed=3))
        _, y1 = simulate(system, u)
        _, y2 = simulate(system.with_noise_seed(2), u)
        _, y0 = simulate(system, u, include_noise=False)
        assert not np.allclose(y1.samples, y2.samples)
        assert np.std(y1.samples - y0.samples) < 0.2


class TestIdentify:
    def test_linear_truth_is_recovered_to_machine_level(self):
        system = WienerSystem(
            g=EX1_G, f=StaticNonlinearity(kind="polynomial",
                                          coefficients=[0.0, 1.0]))
        u = generate_multisine(MultisineSpec(n_samples=2046, n_freqs=341, seed=4))
        _, y = simulate(system, u)
        model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=1, degree=1))
        uv = generate_multisine(MultisineSpec(n_samples=2046, n_freqs=341, seed=5))
        _, yv = simulate(system, uv)
        assert nrmse(yv, predict(model, uv)) < 1e-8

    def test_example1_identification_error_is_small(self):
        u = generate_multisine(MultisineSpec(n_samples=4092, n_freqs=682, seed=6))
        _, y = simulate(EX1, u)
        model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=2, degree=3))
        uv = generate_multisine(MultisineSpec(n_samples=4092, n_freqs=682, seed=7))
        _, yv = simulate(EX1, uv)
        assert nrmse(yv, predict(model, uv)) < 5e-3

    def test_static_model_on_saturation_truth(self):
        system = WienerSystem(
            g=EX1_G, f=StaticNonlinearity(kind="saturation", lower=-0.4, upper=0.2))
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=8))
        _, y = simulate(system, u)
        model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=0, degree=3))
        assert model.bank.n_outputs == 1
        assert "bla" not in model.provenance
        err = nrmse(y, predict(model, u))
        assert np.isfinite(err)

    def test_prediction_linear_in_input_for_degree_one_model(self):
        system = WienerSystem(
            g=EX1_G, f=StaticNonlinearity(kind="polynomial",
                                          coefficients=[0.0, 2.0]))
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=9))
        _, y = simulate(system, u)
        model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=1, degree=1))
        ua = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=10))
        ub = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=11))
        mix = SignalRecord(1.5 * ua.samples - 0.25 * ub.samples, periodic=True,
                           period_samples=1020)
        beta_dc = model.poly.coefficients[0]
        lhs = predict(model, mix).samples - beta_dc
        rhs = (1.5 * (predict(model, ua).samples - beta_dc)
               - 0.25 * (predict(model, ub).samples - beta_dc))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.max(np.abs(lhs)))

    def test_scaling_output_scales_prediction_exactly(self):
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=12))
        _, y = simulate(EX1, u)
        cfg = IdentifyConfig(n_a=3, n_b=3, n_rep=1, degree=3)
        m1 = identify(u, y, cfg)
        y_scaled = SignalRecord(4.0 * y.samples, periodic=True, period_samples=1020)
        m2 = identify(u, y_scaled, cfg)
        np.testing.assert_allclose(predict(m2, u).samples,
                                   4.0 * predict(m1, u).samples, rtol=1e-9)

    def test_mismatched_lengths_rejected(self):
        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=40, seed=1))
        y = SignalRecord(np.zeros(100))
        with pytest.raises(InvalidSpecError):
            identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=1, degree=3))

    def test_stage_tag_on_failure(self):
        u = SignalRecord(np.zeros(64), periodic=True, period_samples=64)
        y = SignalRecord(np.zeros(64), periodic=True, period_samples=64)
        with pytest.raises(EstimationError) as err:
            identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=1, degree=3))
        assert err.value.stage == "frf"

    def test_model_json_round_trip_preserves_predictions(self, tmp_path):
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=13))
        _, y = simulate(EX1, u)
        model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=2, degree=3))
        path = tmp_path / "model.json"
        model.to_json(path)
        back = WienerModel.from_json(path)
        np.testing.assert_allclose(predict(back, u).samples,
                                   predict(model, u).samples, rtol=1e-14)


class TestTheRecordDecides:
    """A periodic record gets the period-averaged FRF and steady-state bank
    outputs, an aperiodic one the Welch FRF and bank outputs from rest."""

    def test_aperiodic_tiled_periods_settle_to_the_steady_state(self):
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=17))
        _, y = simulate(EX1, u)
        model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=2, degree=3))
        assert model.provenance["periodic"] is True
        steady = predict(model, u).samples
        tiled = predict(model, SignalRecord(np.tile(u.samples, 4)))
        assert not tiled.periodic
        dev = np.max(np.abs(tiled.samples[3 * 1020:] - steady))
        assert dev <= 1e-8 * np.max(np.abs(steady))

    def test_gaussian_record_runs_welch_from_rest(self):
        cfg = IdentifyConfig(n_a=2, n_b=2, n_rep=2, degree=3, welch_segment=250)
        u = generate_gaussian(2000, seed=18)
        _, y = simulate(example2_polynomial_system().with_noise_seed(19), u)
        model = identify(u, y, cfg)

        frf = bla.estimate_frf_welch(u, y, segment_length=cfg.welch_segment)
        fit = bla.fit_rational(frf, cfg.n_a, cfg.n_b)
        bank = build_bank(bla.stabilize_poles(fit.poles), cfg.n_rep)
        X = bank_outputs(bank, u)
        discard = transient_length(bank, len(u))
        poly = polymodel.fit_poly_model(X[discard:], y.samples[discard:],
                                        degree=cfg.degree, basis=cfg.basis)
        assert discard > 0
        assert np.array_equal(model.poly.coefficients, poly.coefficients)
        assert model.provenance["periodic"] is False
        assert model.provenance["transient_discarded"] == discard

    def test_welch_segment_longer_than_the_record_is_a_config_error(self):
        """Reported before the FRF stage, naming the key; a static model
        reads no FRF and is fitted."""
        u = generate_gaussian(200, seed=20)
        _, y = simulate(example2_polynomial_system().with_noise_seed(21), u)
        with pytest.raises(InvalidSpecError, match="'welch_segment'"):
            identify(u, y, IdentifyConfig(n_a=2, n_b=2, n_rep=1, degree=3,
                                          welch_segment=250))
        static = identify(u, y, IdentifyConfig(n_a=2, n_b=2, n_rep=0, degree=3,
                                               welch_segment=250))
        assert static.bank.n_outputs == 1


class TestIntermediate:
    def test_linear_truth_reconstructs_intermediate_up_to_scale(self):
        system = WienerSystem(
            g=EX1_G, f=StaticNonlinearity(kind="polynomial",
                                          coefficients=[0.0, 1.0]))
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=14))
        x, y = simulate(system, u)
        bank = build_bank(poles(EX1_G), 1)
        X = bank_outputs(bank, u)
        x_hat = estimate_intermediate(bank, y, X)
        corr = np.corrcoef(x_hat, x.samples)[0, 1]
        assert corr > 1 - 1e-10

    def test_zero_output_gives_zero_coefficients(self):
        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=40, seed=15))
        bank = build_bank(poles(EX1_G), 1)
        X = bank_outputs(bank, u)
        y = SignalRecord(np.zeros(256), periodic=True, period_samples=256)
        # X has full column rank, so x_hat = X alpha_hat = 0 forces alpha_hat = 0
        np.testing.assert_allclose(estimate_intermediate(bank, y, X), 0.0,
                                   atol=1e-12)

    def test_scatter_pairs_shape(self):
        u = generate_multisine(MultisineSpec(n_samples=128, n_freqs=20, seed=16))
        bank = build_bank(poles(EX1_G), 1)
        X = bank_outputs(bank, u)
        y = SignalRecord(np.ones(128), periodic=True, period_samples=128)
        x_hat = estimate_intermediate(bank, y, X)
        assert x_hat.shape == y.samples.shape == (128,)
