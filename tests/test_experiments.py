import csv
import ctypes
import itertools
import json
import os
import subprocess
import sys
from collections import namedtuple
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiener_gobf
from wiener_gobf import experiments
from wiener_gobf.errors import EstimationError, InvalidSpecError
from wiener_gobf.experiments import (
    CONVERGENCE,
    EX2_POLYNOMIAL_COEFFICIENTS,
    NOISE,
    POLE_RATE,
    StudyConfig,
    StudyResult,
    TrialRecord,
    example1_system,
    example2_g,
    example2_polynomial_system,
    example2_system,
    fit_loglog_slope,
    min_max_pole_distance,
    run_study,
    system_from_json,
)
from wiener_gobf.gobf import bank_outputs, build_bank
from wiener_gobf.pipeline import (
    IdentifyConfig,
    StaticNonlinearity,
    WienerModel,
    WienerSystem,
    nrmse,
    predict,
    sup_error,
)
from wiener_gobf.polymodel import fit_poly_model
from wiener_gobf.ratfun import RationalTF, filter_time, poles
from wiener_gobf.signals import MultisineSpec, derive_seed, generate_gaussian


def tiny_convergence_config(**kw):
    defaults = dict(kind=CONVERGENCE, system=example1_system(), n_trials=2,
                    base_seed=77, n_freqs_grid=(170, 341), n_rep_set=(1,),
                    validation_n_freqs=341)
    defaults.update(kw)
    return StudyConfig(**defaults)


BlasThreads = namedtuple("BlasThreads", "trial getter threads")


def blas_thread_counts(cfg, trial, validation):
    """A trial runner that reports, per loaded OpenBLAS, its thread count."""
    counts = []
    for library in experiments._openblas_libraries():
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(BlasThreads(trial, name, getter()))
    return counts


def convergence_records_one_bank_per_model(cfg, trial=0):
    """A convergence trial with every n_rep model built on its own: its own
    bank, bank outputs, polynomial fit and prediction."""
    u_val, y_val = experiments._convergence_validation(cfg)
    records = []
    for nf in cfg.n_freqs_grid:
        u, y, pole_set, fit, pole_error = experiments._trial_bla(cfg, trial, nf)
        for n_rep in cfg.n_rep_set:
            bank = build_bank(pole_set, n_rep)
            poly = fit_poly_model(bank_outputs(bank, u), y.samples,
                                  degree=cfg.degree, basis=cfg.basis)
            yhat = predict(WienerModel(bank=bank, poly=poly), u_val)
            records.append(TrialRecord(
                CONVERGENCE, trial, n_freqs=nf, n_rep=n_rep,
                sup_error=sup_error(y_val, yhat), nrmse=nrmse(y_val, yhat),
                pole_error=pole_error))
    return records


class TestSlopeFit:
    def test_exact_power_law(self):
        nf = np.array([100, 200, 400, 800, 1600])
        vals = 3.7 * nf ** (-1.5)
        slope, intercept, stderr = fit_loglog_slope(list(zip(nf, vals)))
        np.testing.assert_allclose(slope, -1.5, atol=1e-12)
        np.testing.assert_allclose(np.exp(intercept), 3.7, rtol=1e-10)
        assert stderr < 1e-12

    def test_constant_values_give_zero_slope(self):
        slope, _, _ = fit_loglog_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
        np.testing.assert_allclose(slope, 0.0, atol=1e-14)

    def test_noisy_power_law_within_tolerance(self):
        rng = np.random.default_rng(5)
        nf = np.array([170, 341, 682, 1365, 2730, 5461, 10922])
        slopes = []
        for _ in range(20):
            vals = 2.0 * nf ** (-1.0) * (1 + 0.1 * rng.standard_normal(7))
            slope, _, _ = fit_loglog_slope(list(zip(nf, vals)))
            slopes.append(slope)
        assert np.max(np.abs(np.array(slopes) + 1.0)) < 0.1

    def test_nonpositive_values_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="nonpositive"):
            slope, _, _ = fit_loglog_slope(
                [(10, 1.0), (100, 0.1), (1000, 0.01), (10000, -1.0)])
        np.testing.assert_allclose(slope, -1.0, atol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidSpecError):
            fit_loglog_slope([(10, 1.0), (100, 0.1)])


class TestPoleMetric:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        est = ref + 0.01 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        base = min_max_pole_distance(est, ref)
        for _ in range(5):
            perm = rng.permutation(4)
            assert abs(min_max_pole_distance(est[perm], ref) - base) < 1e-15

    def test_exact_match_is_zero(self):
        p = np.array([0.5, 0.2 + 0.3j, 0.2 - 0.3j])
        assert min_max_pole_distance(p, p[::-1]) == 0.0

    def test_large_set_exact_match_is_zero(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        d = min_max_pole_distance(ref, ref)
        assert d < 1e-15

    def test_seven_poles_equal_the_best_of_every_permutation(self):
        """Here the assignment of least summed distance has a larger worst
        distance than the best permutation."""
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        est = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        best = min(max(abs(est[perm[j]] - ref[j]) for j in range(7))
                   for perm in itertools.permutations(range(7)))
        assert min_max_pole_distance(est, ref) == best

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidSpecError):
            min_max_pole_distance(np.ones(2), np.ones(3))


class TestSystems:
    def test_example1_poles_inside_circle(self):
        from wiener_gobf.ratfun import poles

        ps = poles(example1_system().g)
        assert np.all(np.abs(ps) < 1)

    def test_example2_saturation_levels(self):
        f = example2_system().f
        np.testing.assert_allclose(f.apply(np.array([-2.0, 0.0, 2.0])),
                                   [-0.4, 0.0, 0.2])

    def test_polynomial_coefficients_are_the_best_cubic(self):
        """The preset's constant is the least-squares cubic of the saturation
        on 200000 samples of x = G u; another BLAS may round the fit
        differently, so equality is to rounding, not bit for bit."""
        u = generate_gaussian(200_000, variance=1.0,
                              seed=derive_seed(0x5E2, "poly-truth-input"))
        x = filter_time(example2_g(), u).samples
        y = np.clip(x, -0.4, 0.2)
        psi = np.vander(x, 4, increasing=True)
        gamma, *_ = np.linalg.lstsq(psi, y, rcond=None)
        np.testing.assert_allclose(EX2_POLYNOMIAL_COEFFICIENTS, gamma,
                                   rtol=1e-12, atol=0)
        assert np.array_equal(example2_polynomial_system().f.coefficients,
                              EX2_POLYNOMIAL_COEFFICIENTS)

    def test_polynomial_preset_leaves_scipy_signal_unloaded(self):
        """Building the preset, alone or as a study's system, filters nothing."""
        script = ("import sys\n"
                  "import wiener_gobf\n"
                  "from wiener_gobf import experiments\n"
                  "experiments.example2_polynomial_system()\n"
                  "experiments.StudyConfig.from_json_dict({'kind': 'noise', "
                  "'n_trials': 1, 'system': {'preset': 'example2_polynomial'}})\n"
                  "print('scipy.signal' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(wiener_gobf.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"

    def test_polynomial_system_carries_noise_spec(self):
        system = example2_polynomial_system(noise_variance=0.01, noise_seed=3)
        assert system.output_noise.variance == 0.01


class TestStudies:
    def test_zero_trials_give_empty_result(self):
        result = run_study(tiny_convergence_config(n_trials=0))
        assert result.records == []
        assert result.aggregates()["n_records"] == 0

    def test_convergence_study_records_and_determinism(self):
        cfg = tiny_convergence_config()
        r1 = run_study(cfg)
        r2 = run_study(cfg)
        assert len(r1.records) == 2 * 2 * 1  # trials x grid x n_rep
        for a, b in zip(r1.records, r2.records):
            assert a == b
        assert all(not r.failed for r in r1.records)
        assert all(r.sup_error > 0 and r.pole_error > 0 for r in r1.records)

    def test_trial_order_independence_via_prior(self):
        """Trials run in separate calls, in either order, give the records
        of one full run, in its order."""
        cfg = tiny_convergence_config(n_trials=3)
        full = run_study(cfg)
        first = run_study(replace(cfg, n_trials=1)).records
        resumed = run_study(cfg, prior=first).records
        assert resumed == full.records
        later = [r for r in resumed if r.trial > 0]
        assert run_study(cfg, prior=later).records == full.records

    def test_parallel_matches_serial(self):
        cfg = tiny_convergence_config(n_trials=2, n_freqs_grid=(170,))
        serial = run_study(cfg, jobs=1)
        parallel = run_study(cfg, jobs=2)
        assert serial.records == parallel.records

    def test_parallel_workers_use_one_blas_thread(self, monkeypatch):
        try:
            with open("/proc/self/maps") as fh:
                if "openblas" not in fh.read():
                    pytest.skip("no OpenBLAS loaded")
        except OSError:
            pytest.skip("no /proc/self/maps")
        cfg = tiny_convergence_config(n_trials=2)
        monkeypatch.setitem(experiments._TRIAL_RUNNERS, CONVERGENCE,
                            blas_thread_counts)
        counts = run_study(cfg, jobs=2).records
        assert counts and all(c.threads == 1 for c in counts), counts

    def test_nested_models_share_bank_outputs_exactly(self):
        cfg = tiny_convergence_config(n_trials=1, n_freqs_grid=(170, 341, 682),
                                      n_rep_set=(1, 2, 3), validation_n_freqs=682)
        assert run_study(cfg).records == convergence_records_one_bank_per_model(cfg)

    def test_failed_shared_bank_outputs_fail_that_n_freqs_only(self, monkeypatch):
        cfg = tiny_convergence_config(n_trials=1, n_freqs_grid=(170, 341, 682),
                                      n_rep_set=(1, 2, 3), validation_n_freqs=682)
        expected = convergence_records_one_bank_per_model(cfg)
        real = experiments.bank_outputs

        def failing(bank, u):
            if len(u.samples) == 6 * 341:
                raise InvalidSpecError("no outputs at N_F = 341")
            return real(bank, u)

        monkeypatch.setattr(experiments, "bank_outputs", failing)
        records = run_study(cfg).records
        assert [(r.n_freqs, r.n_rep) for r in records] \
            == [(r.n_freqs, r.n_rep) for r in expected]
        for got, want in zip(records, expected):
            if got.n_freqs == 341:
                assert got.failed and got.message == "no outputs at N_F = 341"
            else:
                assert got == want

    def test_aggregates_recomputable_and_consistent(self):
        cfg = tiny_convergence_config()
        result = run_study(cfg)
        agg = result.aggregates()
        cond = next(c for c in agg["conditions"]
                    if c["n_rep"] == 1 and c["n_freqs"] == 170)
        vals = [r.sup_error for r in result.records
                if r.n_rep == 1 and r.n_freqs == 170]
        np.testing.assert_allclose(cond["sup_error"]["mean"], np.mean(vals),
                                   rtol=1e-15)
        np.testing.assert_allclose(cond["sup_error"]["median"], np.median(vals),
                                   rtol=1e-15)

    def test_records_csv_round_trip(self, tmp_path):
        cfg = tiny_convergence_config()
        result = run_study(cfg)
        path = tmp_path / "records.csv"
        result.write_records_csv(path)
        back = StudyResult.read_records_csv(path)
        assert back == result.records

    def test_records_csv_header_is_the_field_names(self, tmp_path):
        path = tmp_path / "records.csv"
        StudyResult(config=tiny_convergence_config(),
                    records=[TrialRecord(CONVERGENCE, 0)]).write_records_csv(path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [f.name for f in fields(TrialRecord)]

    def test_records_csv_without_message_column_loads(self, tmp_path):
        """Older records files end at the ``failed`` column."""
        path = tmp_path / "records.csv"
        path.write_text("study,trial,n_freqs,n_rep,sup_error,nrmse,pole_error,"
                        "noise_floor,selected,failed\n"
                        "noise,3,,2,,0.25,,0.125,True,False\n")
        (record,) = StudyResult.read_records_csv(path)
        assert record == TrialRecord(NOISE, 3, n_rep=2, nrmse=0.25,
                                     noise_floor=0.125, selected=True)
        assert record.message == ""

    def test_pole_rate_study_linear_truth_is_exact(self):
        """With an identity nonlinearity the FRF is exactly the linear block,
        so pole errors sit at solver precision."""
        system = WienerSystem(
            g=example1_system().g,
            f=StaticNonlinearity(kind="polynomial", coefficients=[0.0, 1.0]))
        cfg = StudyConfig(kind=POLE_RATE, system=system, n_trials=2,
                          base_seed=5, n_freqs_grid=(170, 341))
        result = run_study(cfg)
        assert all(r.pole_error < 1e-8 for r in result.records)

    def test_noise_study_records_selection_and_floor(self):
        cfg = StudyConfig(kind=NOISE, system=example2_polynomial_system(),
                          n_trials=3, base_seed=11, n_rep_set=(0, 1),
                          n_a=2, n_b=2, n_samples=1000)
        result = run_study(cfg)
        assert len(result.records) == 6
        by_trial = {}
        for r in result.records:
            assert r.nrmse is not None and r.noise_floor is not None
            by_trial.setdefault(r.trial, []).append(r)
        for trial, recs in by_trial.items():
            assert sum(r.selected for r in recs) == 1
            best = min(recs, key=lambda r: r.nrmse)
            assert best.selected

    def test_noise_floor_counts_the_shaping_filter(self):
        """v = H e with H = 1 + 0.9 q^-1 has power 1.81 times the variance of
        e, so its floor is sqrt(1.81) times that of white noise."""
        white = example2_polynomial_system()
        shaped = replace(white, output_noise=replace(
            white.output_noise,
            shaping_filter=RationalTF(b=np.array([1.0, 0.9]), a=np.array([1.0]))))
        floors = [[r.noise_floor for r in run_study(StudyConfig(
            kind=NOISE, system=system, n_trials=2, base_seed=11, n_rep_set=(0,),
            n_a=2, n_b=2, n_samples=500)).records] for system in (white, shaped)]
        np.testing.assert_allclose(floors[1], np.sqrt(1.81) * np.array(floors[0]),
                                   rtol=1e-12)

    def test_noise_study_zero_variance_matches_model_error(self):
        """With the noise switched off, the recorded NRMSE is exactly the
        model error of the same fit reproduced outside the study."""
        from wiener_gobf.gobf import transient_length
        from wiener_gobf.pipeline import identify, nrmse, predict, simulate
        from wiener_gobf.signals import derive_seed, generate_gaussian

        system = example2_polynomial_system(noise_variance=0.0)
        cfg = StudyConfig(kind=NOISE, system=system, n_trials=1, base_seed=3,
                          n_rep_set=(1,), n_a=2, n_b=2)
        result = run_study(cfg)
        rec = result.records[0]
        assert rec.noise_floor == 0.0

        u_est = generate_gaussian(cfg.n_samples, 1.0,
                                  seed=derive_seed(3, "trial", 0, "u-est"))
        u_val = generate_gaussian(cfg.n_samples, 1.0,
                                  seed=derive_seed(3, "trial", 0, "u-val"))
        _, y_est = simulate(system, u_est)
        _, y_val = simulate(system, u_val)
        model = identify(u_est, y_est, cfg.identify_config(1))
        discard = transient_length(model.bank, cfg.n_samples)
        expected = nrmse(y_val, predict(model, u_val), discard=discard)
        np.testing.assert_allclose(rec.nrmse, expected, rtol=1e-12)

    def test_failed_trials_are_recorded_and_excluded(self, monkeypatch):
        """Trials whose identification fails yield failure-tagged records
        with the stage message, counted but excluded from aggregates."""
        def failing_identify(u, y, cfg):
            raise EstimationError("frf", "no usable frequency lines")

        monkeypatch.setattr(experiments, "identify", failing_identify)
        cfg = StudyConfig(kind=NOISE, system=example2_polynomial_system(),
                          n_trials=2, base_seed=9, n_rep_set=(1,),
                          n_a=2, n_b=2, n_samples=100, welch_segment=50)
        result = run_study(cfg)
        assert len(result.records) == 2
        assert all(r.failed for r in result.records)
        assert all("frf" in r.message for r in result.records)
        agg = result.aggregates()
        assert agg["n_failed"] == 2
        assert agg["conditions"] == []

    def test_plot_data_files(self, tmp_path):
        cfg = tiny_convergence_config()
        result = run_study(cfg)
        paths = result.write_plot_data(tmp_path, "tiny")
        assert paths == [str(tmp_path / "tiny_sup_error_n_rep_1.dat"),
                         str(tmp_path / "tiny_pole_error.dat")]
        data = np.loadtxt(paths[0])
        assert data.shape == (2, 2)

    def test_plot_data_is_one_file_per_reported_curve(self, tmp_path):
        """The curves with slopes are those with plot-data files; noise
        studies report none."""
        cfg = tiny_convergence_config(n_trials=1, n_freqs_grid=(170, 341, 682),
                                      n_rep_set=(2, 1), validation_n_freqs=682)
        result = run_study(cfg)
        names = ["sup_error_n_rep_2", "sup_error_n_rep_1", "pole_error"]
        assert list(result.curves()) == list(result.slopes()) == names
        assert result.write_plot_data(tmp_path, "conv") \
            == [str(tmp_path / f"conv_{name}.dat") for name in names]

        noise = run_study(StudyConfig(
            kind=NOISE, system=example2_polynomial_system(), n_trials=1,
            n_rep_set=(0, 1), n_a=2, n_b=2))
        assert noise.curves() == {}
        assert noise.write_plot_data(tmp_path / "none", "noise") == []

    def test_unknown_kind_rejected(self):
        for kind in ("banana", "model_select"):
            with pytest.raises(InvalidSpecError):
                StudyConfig(kind=kind, system=example1_system(), n_trials=1)

    @pytest.mark.parametrize("kind", [CONVERGENCE, POLE_RATE])
    def test_n_a_other_than_the_system_pole_count_rejected(self, kind):
        """The pole error matches every estimate to a true pole."""
        with pytest.raises(InvalidSpecError, match="'n_a' must be 3"):
            StudyConfig(kind=kind, system=example1_system(), n_trials=1, n_a=2)
        StudyConfig(kind=NOISE, system=example1_system(), n_trials=1, n_a=2)

    def test_invalid_config_cannot_be_made_by_replace(self):
        """A config checks itself whenever it is built, so also in
        ``replace``, for each n_rep through that n_rep's IdentifyConfig."""
        cfg = StudyConfig(kind=NOISE, system=example2_polynomial_system(),
                          n_trials=1, n_a=2, n_b=2)
        for change, key in (({"n_rep_set": (1, -1)}, "n_rep"),
                            ({"basis": "legendre"}, "basis"),
                            ({"welch_segment": 2000}, "'welch_segment'"),
                            # the default segment is at least 32 samples
                            ({"welch_segment": None, "n_samples": 20},
                             "'welch_segment'"),
                            ({"n_samples": 0}, "'n_samples'")):
            with pytest.raises(InvalidSpecError, match=key):
                replace(cfg, **change)

    def test_noise_study_on_an_unstable_system_rejected(self):
        """Run, it would score NRMSE ~ 1 for every n_rep without a failed
        record; the system refuses its unstable linear block when built."""
        doc = StudyConfig(kind=NOISE, system=example2_polynomial_system(),
                          n_trials=1, n_a=2, n_b=2).to_json_dict()
        doc["system"]["g"] = {"b": [1.0], "a": [1.0, -1.2]}
        with pytest.raises(InvalidSpecError, match="'g'"):
            StudyConfig.from_json_dict(doc)

    def test_prior_trial_beyond_n_trials_rejected(self):
        cfg = StudyConfig(kind=POLE_RATE, system=example1_system(),
                          n_trials=2, n_freqs_grid=(32,))
        prior = [TrialRecord(POLE_RATE, 3, n_freqs=32, pole_error=0.1)]
        with pytest.raises(InvalidSpecError, match="'n_trials' is 2"):
            run_study(cfg, prior=prior)


class TestStudyConfigJson:
    def test_round_trip_keeps_every_field(self):
        cfg = StudyConfig(
            kind=POLE_RATE, system=example2_system(noise_variance=0.04,
                                                   noise_seed=8),
            n_trials=7, base_seed=5, n_freqs_grid=(100, 200), n_rep_set=(0, 2),
            n_a=2, n_b=1, degree=2, basis="monomial", validation_n_freqs=200,
            n_samples=500, welch_segment=None)
        default = StudyConfig(kind=NOISE, system=example1_system(), n_trials=1)
        for f in fields(StudyConfig):
            if f.name != "system":
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name

        doc = json.loads(json.dumps(cfg.to_json_dict()))
        back = StudyConfig.from_json_dict(doc)
        assert back.to_json_dict() == cfg.to_json_dict()
        # the system holds arrays, so it is compared through its JSON form
        assert replace(back, system=cfg.system) == cfg

    def test_unknown_key_rejected_by_name(self):
        doc = tiny_convergence_config().to_json_dict()
        doc["n_trails"] = 5
        with pytest.raises(InvalidSpecError, match="n_trails"):
            StudyConfig.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["period_per_freq", "input_rms",
                                     "input_variance"])
    def test_fixed_protocol_settings_are_unknown_keys(self, key):
        """The Example-1 multisines and the Example-2 inputs have one shape
        each; a config that tries to set it is rejected by the key's name."""
        doc = dict(tiny_convergence_config().to_json_dict(), **{key: 1})
        with pytest.raises(InvalidSpecError, match=key):
            StudyConfig.from_json_dict(doc)

    def test_n_periods_is_an_unknown_identify_key(self):
        """The periodic FRF always averages every whole period."""
        with pytest.raises(InvalidSpecError, match="n_periods"):
            IdentifyConfig.from_json_dict(
                {"n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1, "n_periods": 2})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)

# Each config document type: its loader and one valid document.
CONFIG_DOCUMENTS = {
    "identify": (IdentifyConfig.from_json_dict, IdentifyConfig(
        n_a=2, n_b=2, n_rep=1, degree=3, welch_segment=64).to_json_dict()),
    "study": (StudyConfig.from_json_dict,
              tiny_convergence_config(system=example2_system(),
                                      n_a=2).to_json_dict()),
    "multisine": (MultisineSpec.from_json_dict,
                  {"n_samples": 64, "n_freqs": 8, "target_rms": 2.0,
                   "seed": 3}),
    "system": (system_from_json, example2_system(0.04, 8).to_json_dict()),
    "transfer_function": (RationalTF.from_json_dict,
                          example2_system().g.to_json_dict()),
}


@pytest.mark.parametrize("document", sorted(CONFIG_DOCUMENTS))
def test_config_base_document_loads(document):
    """Each document the test below mutates is valid as it stands."""
    load, doc = CONFIG_DOCUMENTS[document]
    load(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("document", sorted(CONFIG_DOCUMENTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_field_of_any_json_value_loads_or_raises_invalid_spec(document, data):
    """One field of a valid document replaced by an arbitrary JSON value:
    the loader, which builds and so checks the config, returns or raises
    InvalidSpecError, never another exception."""
    load, doc = CONFIG_DOCUMENTS[document]
    key = data.draw(st.sampled_from(sorted(doc)))
    doc = json.loads(json.dumps(dict(doc, **{key: data.draw(JSON_VALUES)})))
    try:
        load(doc)
    except InvalidSpecError:
        pass
