import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wiener_gobf
from wiener_gobf.cli import main
from wiener_gobf.signals import SignalRecord


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def read_csv_values(path):
    return SignalRecord.from_csv(path).samples


EX1_SYSTEM = {
    "g": {"b": [1.0, 3.0, 3.0, 1.0], "a": [1.0, -2.1, 1.9, -0.7]},
    "nonlinearity": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.8, 0.7]},
}

LTI_SYSTEM = {
    "g": {"b": [1.0, 3.0, 3.0, 1.0], "a": [1.0, -2.1, 1.9, -0.7]},
    "nonlinearity": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
}

IDENTITY_SYSTEM = {
    "g": {"b": [1.0], "a": [1.0]},
    "nonlinearity": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
}


@pytest.fixture
def out(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d


def gen_multisine(tmp_path, out, name="u", n=1020, nf=170, seed=1):
    cfg = write_json(tmp_path / f"{name}_gen.json",
                     {"kind": "multisine", "n_samples": n, "n_freqs": nf,
                      "seed": seed, "name": name})
    assert main(["generate", "--config", cfg, "--out-dir", str(out)]) == 0
    return out / f"{name}.json"


class TestGenerate:
    def test_multisine_csv_and_manifest(self, tmp_path, out):
        gen_multisine(tmp_path, out)
        u = read_csv_values(out / "u.csv")
        assert len(u) == 1020
        assert abs(np.sqrt(np.mean(u**2)) - 1.0) < 1e-9
        manifest = json.loads((out / "u.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert str(out / "u.csv") in manifest["outputs"]
        assert manifest["seeds"] == {"seed": 1}

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, out):
        cfg = write_json(tmp_path / "bad.json",
                         {"kind": "multisine", "n_samples": 10, "n_freqs": 9})
        assert main(["generate", "--config", cfg, "--out-dir", str(out)]) == 2

    def test_seed_override_changes_phases_only(self, tmp_path, out):
        cfg = write_json(tmp_path / "g.json",
                         {"kind": "multisine", "n_samples": 256, "n_freqs": 32,
                          "seed": 1, "name": "sig"})
        main(["generate", "--config", cfg, "--out-dir", str(out)])
        u1 = read_csv_values(out / "sig.csv")
        main(["generate", "--config", cfg, "--out-dir", str(out), "--seed", "2"])
        u2 = read_csv_values(out / "sig.csv")
        assert not np.allclose(u1, u2)
        s1, s2 = np.abs(np.fft.fft(u1)), np.abs(np.fft.fft(u2))
        np.testing.assert_allclose(s1, s2, atol=1e-9 * s1.max())

    def test_gaussian_kind(self, tmp_path, out):
        cfg = write_json(tmp_path / "g.json",
                         {"kind": "gaussian", "n_samples": 500,
                          "variance": 2.0, "seed": 3, "name": "noise"})
        assert main(["generate", "--config", cfg, "--out-dir", str(out)]) == 0
        v = read_csv_values(out / "noise.csv")
        assert abs(np.var(v) - 2.0) < 0.3


class TestSimulate:
    def test_identity_system_reproduces_input(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out)
        sys_cfg = write_json(tmp_path / "sys.json",
                             dict(IDENTITY_SYSTEM, name="ident"))
        assert main(["simulate", "--config", sys_cfg, "--input", str(u_path),
                     "--out-dir", str(out)]) == 0
        y = read_csv_values(out / "ident_y.csv")
        np.testing.assert_allclose(y, read_csv_values(out / "u.csv"),
                                   atol=1e-12)

    def test_oracle_flag_writes_intermediate(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out)
        sys_cfg = write_json(tmp_path / "sys.json", dict(EX1_SYSTEM, name="ex1"))
        assert main(["simulate", "--config", sys_cfg, "--input", str(u_path),
                     "--out-dir", str(out), "--oracle"]) == 0
        x = read_csv_values(out / "ex1_x.csv")
        y = read_csv_values(out / "ex1_y.csv")
        np.testing.assert_allclose(y, x + 0.8 * x**2 + 0.7 * x**3,
                                   atol=1e-10 * np.max(np.abs(y)))

    def test_noise_off_is_repeatable(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out, n=256, nf=32)
        doc = dict(EX1_SYSTEM, name="noisy",
                   noise={"variance": 0.01, "seed": 9})
        sys_cfg = write_json(tmp_path / "sys.json", doc)
        main(["simulate", "--config", sys_cfg, "--input", str(u_path),
              "--out-dir", str(out), "--noise-off"])
        y1 = read_csv_values(out / "noisy_y.csv")
        main(["simulate", "--config", sys_cfg, "--input", str(u_path),
              "--out-dir", str(out), "--noise-off"])
        y2 = read_csv_values(out / "noisy_y.csv")
        assert np.array_equal(y1, y2)

    def test_saturation_preset_system(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out, n=256, nf=32)
        sys_cfg = write_json(tmp_path / "sys.json",
                             {"preset": "example2_saturation", "name": "sat"})
        assert main(["simulate", "--config", sys_cfg, "--input", str(u_path),
                     "--out-dir", str(out), "--noise-off"]) == 0
        y = read_csv_values(out / "sat_y.csv")
        assert y.min() >= -0.4 - 1e-12 and y.max() <= 0.2 + 1e-12


class TestIdentify:
    def test_lti_truth_reports_tiny_nrmse(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out, name="u", n=2046, nf=341)
        sys_cfg = write_json(tmp_path / "sys.json", dict(LTI_SYSTEM, name="lti"))
        main(["simulate", "--config", sys_cfg, "--input", str(u_path),
              "--out-dir", str(out)])
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 3, "n_b": 3, "n_rep": 1, "degree": 1,
                             "name": "lti_model"})
        code = main(["identify", "--config", id_cfg,
                     "--u", str(u_path), "--y", str(out / "lti_y.csv"),
                     "--period", "2046", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "lti_model_report.json").read_text())
        assert report["estimation_nrmse"] < 1e-8

    def test_example1_model_predicts_and_reports_three_poles(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out, name="u", n=4092, nf=682)
        sys_cfg = write_json(tmp_path / "sys.json", dict(EX1_SYSTEM, name="ex1"))
        main(["simulate", "--config", sys_cfg, "--input", str(u_path),
              "--out-dir", str(out)])
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 3, "n_b": 3, "n_rep": 2, "degree": 3,
                             "name": "ex1_model"})
        assert main(["identify", "--config", id_cfg, "--u", str(u_path),
                     "--y", str(out / "ex1_y.csv"), "--period", "4092",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "ex1_model_report.json").read_text())
        assert len(report["poles"]) == 3
        assert np.isfinite(report["estimation_nrmse"])

        assert main(["predict", "--model", str(out / "ex1_model.json"),
                     "--u", str(u_path), "--out-dir", str(out),
                     "--name", "pred"]) == 0
        yhat = read_csv_values(out / "pred.csv")
        y = read_csv_values(out / "ex1_y.csv")
        rel = np.linalg.norm(y - yhat) / np.linalg.norm(y)
        assert rel < 0.05

    def test_aperiodic_record_identifies_with_welch_from_rest(self, tmp_path, out):
        """A default config on a Gaussian CSV record: Welch FRF, bank outputs
        from rest, the transient discarded; the model file says so."""
        gen = write_json(tmp_path / "gen.json", {"kind": "gaussian",
                                                 "n_samples": 2000, "seed": 4})
        assert main(["generate", "--config", gen, "--out-dir", str(out)]) == 0
        sys_cfg = write_json(tmp_path / "sys.json",
                             {"preset": "example2_polynomial", "name": "ex2"})
        assert main(["simulate", "--config", sys_cfg, "--input",
                     str(out / "gaussian.csv"), "--out-dir", str(out)]) == 0
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 2, "n_b": 2, "n_rep": 1, "degree": 3,
                             "welch_segment": 250, "name": "g"})
        assert main(["identify", "--config", id_cfg,
                     "--u", str(out / "gaussian.csv"),
                     "--y", str(out / "ex2_y.csv"), "--out-dir", str(out)]) == 0
        provenance = json.loads((out / "g.json").read_text())["provenance"]
        assert provenance["periodic"] is False
        assert provenance["transient_discarded"] > 0
        assert "filtering" not in provenance["config"]

    def test_mismatched_lengths_exit_2(self, tmp_path, out):
        u_path = gen_multisine(tmp_path, out, name="u", n=256, nf=32)
        y_short = out / "short.csv"
        SignalRecord(np.zeros(100)).to_csv(y_short)
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 3, "n_b": 3, "n_rep": 1, "degree": 1})
        assert main(["identify", "--config", id_cfg, "--u", str(u_path),
                     "--y", str(y_short), "--out-dir", str(out)]) == 2

    def test_estimation_failure_exits_3(self, tmp_path, out, capsys):
        zeros = out / "zeros.csv"
        SignalRecord(np.zeros(256)).to_csv(zeros)
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 3, "n_b": 3, "n_rep": 1, "degree": 1})
        code = main(["identify", "--config", id_cfg, "--u", str(zeros),
                     "--y", str(zeros), "--period", "256",
                     "--out-dir", str(out)])
        assert code == 3
        assert "frf" in capsys.readouterr().err


class TestScatter:
    @staticmethod
    def identify_model(tmp_path, out, n, nf):
        """Write u.json/u.csv, ex1_y.csv and the model m.json fitted to them."""
        u_path = gen_multisine(tmp_path, out, name="u", n=n, nf=nf)
        sys_cfg = write_json(tmp_path / "sys.json", dict(EX1_SYSTEM, name="ex1"))
        main(["simulate", "--config", sys_cfg, "--input", str(u_path),
              "--out-dir", str(out)])
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 3, "n_b": 3, "n_rep": 1, "degree": 3,
                             "name": "m"})
        main(["identify", "--config", id_cfg, "--u", str(u_path),
              "--y", str(out / "ex1_y.csv"), "--out-dir", str(out)])
        return u_path

    def test_scatter_csv(self, tmp_path, out):
        u_path = self.identify_model(tmp_path, out, n=2046, nf=341)
        assert main(["scatter", "--model", str(out / "m.json"),
                     "--u", str(u_path), "--y", str(out / "ex1_y.csv"),
                     "--out-dir", str(out), "--name", "sc"]) == 0
        rows = (out / "sc.csv").read_text().strip().splitlines()
        assert rows[0] == "x_hat,y"
        assert len(rows) == 2047

    def test_predict_and_scatter_agree_on_a_model_without_provenance(
            self, tmp_path, out):
        """Both filter the bank the way the input record says, whatever the
        model file holds: a CSV input is filtered from rest, and in steady
        state when --period marks it periodic."""
        u_json = self.identify_model(tmp_path, out, n=256, nf=32)
        doc = json.loads((out / "m.json").read_text())
        del doc["provenance"]
        model = write_json(tmp_path / "bare.json", doc)
        u_csv, y_csv = str(out / "u.csv"), str(out / "ex1_y.csv")
        for period in ([], ["--period", "256"]):
            assert main(["predict", "--model", model, "--u", u_csv,
                         "--out-dir", str(out), *period]) == 0
            assert main(["scatter", "--model", model, "--u", u_csv,
                         "--y", y_csv, "--out-dir", str(out), *period]) == 0
        steady = read_csv_values(out / "prediction.csv")
        assert main(["predict", "--model", model, "--u", str(u_json),
                     "--out-dir", str(out), "--name", "from_json"]) == 0
        assert np.array_equal(steady, read_csv_values(out / "from_json.csv"))


class TestStudy:
    def study_config(self, tmp_path, trials=2):
        return write_json(tmp_path / "study.json", {
            "kind": "convergence",
            "system": {"preset": "example1"},
            "n_trials": trials,
            "base_seed": 123,
            "n_freqs_grid": [170, 341],
            "n_rep_set": [1],
            "validation_n_freqs": 341,
            "name": "mini",
        })

    def test_single_trial_aggregates_equal_record(self, tmp_path, out):
        cfg = self.study_config(tmp_path)
        assert main(["study", "--config", cfg, "--trials", "1",
                     "--jobs", "1", "--out-dir", str(out)]) == 0
        agg = json.loads((out / "mini_aggregates.json").read_text())
        records = (out / "mini_records.csv").read_text().strip().splitlines()
        assert len(records) == 3  # header + 2 grid points
        cond = agg["aggregates"]["conditions"][0]
        assert cond["count"] == 1
        assert cond["sup_error"]["std"] == 0.0

    def test_resume_completes_remaining_trials(self, tmp_path, out):
        cfg = self.study_config(tmp_path, trials=2)
        main(["study", "--config", cfg, "--trials", "1", "--jobs", "1",
              "--out-dir", str(out)])
        partial = (out / "mini_records.csv").read_text()
        assert main(["study", "--config", cfg, "--jobs", "1", "--resume",
                     "--out-dir", str(out)]) == 0
        resumed = (out / "mini_records.csv").read_text()

        fresh_dir = out / "fresh"
        fresh_dir.mkdir()
        main(["study", "--config", cfg, "--jobs", "1",
              "--out-dir", str(fresh_dir)])
        fresh = (fresh_dir / "mini_records.csv").read_text()
        assert resumed == fresh
        assert partial != fresh

    @pytest.mark.parametrize("study", [
        {"kind": "pole_rate", "system": {"preset": "example1"},
         "n_freqs_grid": [64, 32]},
        {"kind": "noise", "system": {"preset": "example2_polynomial"},
         "n_rep_set": [2, 0, 1], "n_a": 2, "n_b": 2, "n_samples": 500},
        {"kind": "convergence", "system": {"preset": "example1"},
         "n_freqs_grid": [128, 64], "n_rep_set": [2, 1],
         "validation_n_freqs": 128},
    ], ids=["pole_rate-grid-64-32", "noise-n_rep-2-0-1",
            "convergence-grid-128-64"])
    def test_resume_equals_fresh_for_any_condition_order(self, tmp_path, out,
                                                         study):
        """Records, aggregates and plot data, byte for byte."""
        cfg = write_json(tmp_path / "study.json", dict(
            study, n_trials=3, base_seed=4, name="mixed"))
        fresh, resumed = out / "fresh", out / "resumed"
        assert main(["study", "--config", cfg, "--jobs", "1",
                     "--out-dir", str(fresh)]) == 0
        assert main(["study", "--config", cfg, "--trials", "1", "--jobs", "1",
                     "--out-dir", str(resumed)]) == 0
        assert main(["study", "--config", cfg, "--jobs", "2", "--resume",
                     "--out-dir", str(resumed)]) == 0
        names = sorted(p.name for p in fresh.iterdir()
                       if not p.name.endswith("manifest.json"))
        assert names == sorted(p.name for p in resumed.iterdir()
                               if not p.name.endswith("manifest.json"))
        assert ("mixed_pole_error.dat" in names) == (study["kind"] != "noise")
        for name in names:
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes(), name

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\npole_rate,0,", "\npole_rate,zero,"),
        lambda text: text.replace("study,trial,", "study,trail,"),
        lambda text: text.replace(",False,", ",yes,"),
        lambda text: text.replace(",,False,", ",1,False,"),
    ], ids=["non-integer-trial", "missing-trial-column", "failed-cell-yes",
            "selected-cell-1"])
    def test_resume_on_malformed_records_exits_2(self, tmp_path, out, capsys,
                                                 edit):
        cfg = write_json(tmp_path / "poles.json", {
            "kind": "pole_rate", "system": {"preset": "example1"},
            "n_trials": 2, "base_seed": 1, "n_freqs_grid": [32],
            "name": "poles"})
        assert main(["study", "--config", cfg, "--trials", "1", "--jobs", "1",
                     "--out-dir", str(out)]) == 0
        path = out / "poles_records.csv"
        records = edit(path.read_text())
        path.write_text(records)
        capsys.readouterr()
        assert main(["study", "--config", cfg, "--jobs", "1", "--resume",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0], err
        assert path.read_text() == records

    def test_resume_refuses_a_changed_config(self, tmp_path, out, capsys):
        cfg = write_json(tmp_path / "poles.json", {
            "kind": "pole_rate", "system": {"preset": "example1"},
            "n_trials": 2, "base_seed": 1, "n_freqs_grid": [32],
            "name": "poles"})
        assert main(["study", "--config", cfg, "--trials", "1", "--jobs", "1",
                     "--out-dir", str(out)]) == 0
        records = (out / "poles_records.csv").read_text()
        capsys.readouterr()
        assert main(["study", "--config", cfg, "--seed", "2", "--jobs", "1",
                     "--resume", "--out-dir", str(out)]) == 2
        assert "base_seed" in capsys.readouterr().err
        assert (out / "poles_records.csv").read_text() == records

        (out / "poles_study.manifest.json").unlink()
        assert main(["study", "--config", cfg, "--jobs", "1", "--resume",
                     "--out-dir", str(out)]) == 2
        assert (out / "poles_records.csv").read_text() == records

    def test_bad_config_reported_before_resume_reads_a_file(self, tmp_path,
                                                             out, capsys):
        """The config checks itself when it is read, so neither the missing
        manifest nor the unreadable records are reached."""
        cfg = write_json(tmp_path / "poles.json", {
            "kind": "pole_rate", "system": {"preset": "example1"},
            "n_trials": 2, "n_freqs_grid": [32], "n_rep_set": [-1],
            "name": "poles"})
        (out / "poles_records.csv").write_text("not a records file\n")
        assert main(["study", "--config", cfg, "--jobs", "1", "--resume",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "n_rep must be >= 0" in err[0], err

    def test_resume_refuses_fewer_trials_than_recorded(self, tmp_path, out,
                                                       capsys):
        cfg = write_json(tmp_path / "poles.json", {
            "kind": "pole_rate", "system": {"preset": "example1"},
            "n_trials": 4, "base_seed": 1, "n_freqs_grid": [32],
            "name": "poles"})
        assert main(["study", "--config", cfg, "--jobs", "1",
                     "--out-dir", str(out)]) == 0
        records = (out / "poles_records.csv").read_text()
        capsys.readouterr()
        assert main(["study", "--config", cfg, "--trials", "2", "--jobs", "1",
                     "--resume", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'n_trials'" in err[0], err
        assert (out / "poles_records.csv").read_text() == records

    def test_named_studies_share_an_out_dir(self, tmp_path, out):
        """Each study's manifest lists plot data that exists and holds its
        own curve, not that of a study written later."""
        grids = {"a": [32, 64], "b": [40, 80]}
        for name, grid in grids.items():
            cfg = write_json(tmp_path / f"{name}.json", {
                "kind": "pole_rate", "system": {"preset": "example1"},
                "n_trials": 1, "base_seed": 1, "n_freqs_grid": grid,
                "name": name})
            assert main(["study", "--config", cfg, "--jobs", "1",
                         "--out-dir", str(out)]) == 0
        for name, grid in grids.items():
            manifest = json.loads(
                (out / f"{name}_study.manifest.json").read_text())
            plots = [p for p in manifest["outputs"] if p.endswith(".dat")]
            assert plots == [str(out / f"{name}_pole_error.dat")]
            assert np.loadtxt(plots[0])[:, 0].tolist() == grid

    def test_env_var_out_dir(self, tmp_path, out, monkeypatch):
        monkeypatch.setenv("WIENER_GOBF_OUT_DIR", str(out))
        cfg = self.study_config(tmp_path)
        assert main(["study", "--config", cfg, "--trials", "1",
                     "--jobs", "1"]) == 0
        assert (out / "mini_records.csv").exists()

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


# Each case: argument template (placeholders name the files built below),
# the exit code, and a text the error message must contain.
MALFORMED_INPUT_CASES = {
    "simulate-unstable-system": (
        ["simulate", "--config", "{unstable}", "--input", "{u}"], 3, "stable"),
    "predict-model-without-poles": (
        ["predict", "--model", "{no_poles}", "--u", "{u}"], 2, "base_poles"),
    "predict-non-json-model": (
        ["predict", "--model", "{garbage}", "--u", "{u}"], 2, "model file"),
    "predict-directory-model": (
        ["predict", "--model", "{directory}", "--u", "{u}"], 2, "model file"),
    "scatter-non-json-model": (
        ["scatter", "--model", "{garbage}", "--u", "{u}", "--y", "{u}"], 2,
        "model file"),
    "simulate-non-json-signal": (
        ["simulate", "--config", "{identity}", "--input", "{garbage}"], 2,
        "signal file"),
    "study-unknown-key": (["study", "--config", "{study_typo}"], 2, "n_trails"),
    "identify-unknown-key": (
        ["identify", "--config", "{identify_typo}", "--u", "{u}", "--y", "{u}"],
        2, "degre"),
    "generate-wrong-type-n_samples": (
        ["generate", "--config", "{gen_n_samples}"], 2, "'n_samples'"),
    "generate-zero-gaussian-n_samples": (
        ["generate", "--config", "{gen_n_samples_zero}"], 2, "'n_samples'"),
    "generate-wrong-type-seed": (["generate", "--config", "{gen_seed}"], 2,
                                 "'seed'"),
    "simulate-wrong-type-g": (
        ["simulate", "--config", "{system_g}", "--input", "{u}"], 2, "'g'"),
    "study-wrong-type-n_trials": (["study", "--config", "{study_n_trials}"], 2,
                                  "'n_trials'"),
    "identify-wrong-type-welch_segment": (
        ["identify", "--config", "{identify_welch}", "--u", "{u}", "--y", "{u}"],
        2, "'welch_segment'"),
    "study-unknown-preset": (["study", "--config", "{study_preset}"], 2,
                             "example2_saturation"),
    "identify-negative-n_a": (
        ["identify", "--config", "{identify_n_a}", "--u", "{u}", "--y", "{u}"],
        2, "'n_a'"),
    "identify-zero-welch_segment": (
        ["identify", "--config", "{identify_welch_zero}", "--u", "{u}", "--y",
         "{u}"], 2, "'welch_segment'"),
    "study-negative-n_a": (["study", "--config", "{study_n_a}"], 2, "'n_a'"),
    "study-n_a-not-the-system-pole-count": (
        ["study", "--config", "{study_n_a_two}"], 2, "'n_a'"),
    "study-zero-n_freqs-entry": (["study", "--config", "{study_n_freqs_zero}"],
                                 2, "'n_freqs_grid'"),
    "study-zero-validation_n_freqs": (
        ["study", "--config", "{study_validation_zero}"], 2,
        "'validation_n_freqs'"),
    "predict-non-finite-signal": (
        ["predict", "--model", "{static_model}", "--u", "{non_finite}",
         "--period", "1020"], 2, "non_finite.csv"),
    "identify-non-finite-signal": (
        ["identify", "--config", "{identify}", "--u", "{non_finite}", "--y",
         "{non_finite}", "--period", "1020"], 2, "non_finite.csv"),
    "identify-zero-period_samples": (
        ["identify", "--config", "{identify}", "--u", "{period_zero}", "--y",
         "{period_zero}"], 2, "period_samples"),
    "identify-negative-period_samples": (
        ["identify", "--config", "{identify}", "--u", "{period_negative}",
         "--y", "{period_negative}"], 2, "period_samples"),
    "identify-empty-periodic-signal": (
        ["identify", "--config", "{identify}", "--u", "{periodic_empty}",
         "--y", "{periodic_empty}"], 2, "period_samples"),
    "identify-zero-period": (
        ["identify", "--config", "{identify}", "--u", "{u}", "--y", "{u}",
         "--period", "0"], 2, "--period"),
    "identify-negative-period": (
        ["identify", "--config", "{identify}", "--u", "{u}", "--y", "{u}",
         "--period", "-5"], 2, "--period"),
    "predict-unknown-basis": (
        ["predict", "--model", "{poly_basis}", "--u", "{u}"], 2, "legendre"),
    "predict-negative-degree": (
        ["predict", "--model", "{poly_degree}", "--u", "{u}"], 2, "degree"),
    "predict-float-degree": (
        ["predict", "--model", "{poly_degree_float}", "--u", "{u}"], 2,
        "degree"),
    "predict-string-coefficient": (
        ["predict", "--model", "{poly_coefficient_string}", "--u", "{u}"], 2,
        "coefficients"),
    "predict-exponent-above-degree": (
        ["predict", "--model", "{poly_exponent_high}", "--u", "{u}"], 2,
        "exponents"),
    "predict-too-many-exponents": (
        ["predict", "--model", "{poly_exponents_long}", "--u", "{u}"], 2,
        "exponents"),
    "predict-float-exponent": (
        ["predict", "--model", "{poly_exponent_float}", "--u", "{u}"], 2,
        "exponents"),
    "predict-negative-exponent": (
        ["predict", "--model", "{poly_exponent_negative}", "--u", "{u}"], 2,
        "exponents"),
    "predict-standardization-length": (
        ["predict", "--model", "{poly_std_length}", "--u", "{u}"], 2,
        "standardization"),
    "predict-zero-scale": (
        ["predict", "--model", "{poly_std_zero}", "--u", "{u}"], 2,
        "standardization"),
    "predict-string-standardization": (
        ["predict", "--model", "{poly_std_string}", "--u", "{u}"], 2,
        "standardization"),
    "predict-monomial-standardization": (
        ["predict", "--model", "{poly_std_monomial}", "--u", "{u}"], 2,
        "standardization"),
    "predict-float-n_rep": (
        ["predict", "--model", "{bank_n_rep_float}", "--u", "{u}"], 2, "n_rep"),
    "predict-pole-without-conjugate": (
        ["predict", "--model", "{bank_lone_pole}", "--u", "{u}"], 2,
        "conjugate"),
    "predict-pole-pair-off-by-one-ulp": (
        ["predict", "--model", "{bank_ulp_pair}", "--u", "{u}"], 2,
        "not conjugate closed"),
    "identify-validation-records-of-unequal-length": (
        ["identify", "--config", "{identify_static}", "--u", "{u}", "--y",
         "{u}", "--validate-u", "{u}", "--validate-y", "{short_json}"], 2,
        "100 and 256 samples"),
    "identify-validate-u-without-validate-y": (
        ["identify", "--config", "{identify_static}", "--u", "{u}", "--y",
         "{u}", "--validate-u", "{u}"], 2, "--validate-u and --validate-y"),
    "predict-non-finite-pole": (
        ["predict", "--model", "{bank_nan_pole}", "--u", "{u}"], 2,
        "bank_nan_pole.json is malformed"),
    "identify-empty-json-signal": (
        ["identify", "--config", "{identify}", "--u", "{empty_json}", "--y",
         "{empty_json}"], 2, "empty.json"),
    "identify-empty-csv-signal": (
        ["identify", "--config", "{identify}", "--u", "{empty_csv}", "--y",
         "{empty_csv}"], 2, "empty.csv"),
    "simulate-one-column-csv-signal": (
        ["simulate", "--config", "{identity}", "--input", "{one_column_csv}"],
        2, "one_column.csv is malformed"),
    "simulate-headerless-csv-signal": (
        ["simulate", "--config", "{identity}", "--input", "{headerless_csv}"],
        2, "headerless.csv is malformed"),
    "simulate-three-column-csv-signal": (
        ["simulate", "--config", "{identity}", "--input", "{three_column_csv}"],
        2, "three_column.csv is malformed"),
    "identify-filtering-key": (
        ["identify", "--config", "{identify_filtering}", "--u", "{u}", "--y",
         "{u}"], 2, "filtering"),
    "identify-frf-key": (
        ["identify", "--config", "{identify_frf}", "--u", "{u}", "--y", "{u}"],
        2, "frf"),
    "identify-string-periodic-signal": (
        ["identify", "--config", "{identify}", "--u", "{string_periodic}",
         "--y", "{string_periodic}"], 2, "'periodic'"),
    "predict-aperiodic-signal-with-period": (
        ["predict", "--model", "{static_model}", "--u", "{aperiodic_period}"],
        2, "period_samples"),
    "identify-string-samples-signal": (
        ["identify", "--config", "{identify}", "--u", "{string_samples}",
         "--y", "{string_samples}"], 2, "'samples'"),
    "study-repeated-n_rep_set": (["study", "--config", "{study_n_rep_twice}"],
                                 2, "n_rep_set"),
    "study-repeated-n_freqs_grid": (
        ["study", "--config", "{study_n_freqs_twice}"], 2, "n_freqs_grid"),
    "simulate-empty-coefficients": (
        ["simulate", "--config", "{empty_coefficients}", "--input", "{u}"], 2,
        "'coefficients'"),
    "simulate-negative-noise-variance": (
        ["simulate", "--config", "{negative_variance}", "--input", "{u}"], 2,
        "'variance'"),
    "study-negative-noise-variance": (
        ["study", "--config", "{study_negative_variance}"], 2, "'variance'"),
    "simulate-noiseless-unstable-shaping-filter": (
        ["simulate", "--config", "{unstable_shaping}", "--input", "{u}"], 3,
        "unit circle"),
    # y = 2x, had the file been read as written
    "predict-repeated-term": (
        ["predict", "--model", "{poly_term_twice}", "--u", "{u}"], 2,
        "exponents"),
    "predict-reordered-terms": (
        ["predict", "--model", "{poly_terms_reordered}", "--u", "{u}"], 2,
        "exponents"),
    "generate-sample_period": (
        ["generate", "--config", "{gen_sample_period}"], 2, "sample_period"),
    "study-welch_segment-longer-than-n_samples": (
        ["study", "--config", "{study_welch_long}"], 2, "'welch_segment'"),
    "identify-welch_segment-longer-than-the-record": (
        ["identify", "--config", "{identify_welch_long}", "--u", "{u_csv}",
         "--y", "{u_csv}"], 2, "'welch_segment'"),
    "study-zero-noise-n_samples": (
        ["study", "--config", "{study_n_samples_zero}"], 2, "'n_samples'"),
    # float(10**400) overflows
    "predict-coefficient-beyond-float-range": (
        ["predict", "--model", "{poly_coefficient_huge}", "--u", "{u}"], 2,
        "coefficients"),
    "predict-standardization-beyond-float-range": (
        ["predict", "--model", "{poly_std_huge}", "--u", "{u}"], 2,
        "standardization"),
    # the default Welch segment is at least 32 samples
    "study-default-welch_segment-longer-than-n_samples": (
        ["study", "--config", "{study_welch_default_long}"], 2,
        "'welch_segment' is 32"),
    "identify-default-welch_segment-longer-than-the-record": (
        ["identify", "--config", "{identify}", "--u", "{tiny_json}", "--y",
         "{tiny_json}"], 2, "'welch_segment' is 32"),
}

# Options a subcommand does not take: argparse rejects them with exit 2.
UNKNOWN_OPTION_CASES = {
    "simulate-mode": ["simulate", "--config", "c.json", "--input", "u.csv",
                      "--mode", "zero-initial"],
    "identify-seed": ["identify", "--config", "c.json", "--u", "u.csv",
                      "--y", "y.csv", "--seed", "5"],
    "predict-seed": ["predict", "--model", "m.json", "--u", "u.csv",
                     "--seed", "5"],
    "scatter-seed": ["scatter", "--model", "m.json", "--u", "u.csv",
                     "--y", "y.csv", "--seed", "5"],
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_OPTION_CASES))
def test_unknown_option_exits_2(case, capsys):
    argv = UNKNOWN_OPTION_CASES[case]
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

STATIC_POLY = {"n_channels": 1, "degree": 1, "basis": "monomial",
               "terms": [{"exponents": [0], "coefficient": 0.0},
                         {"exponents": [1], "coefficient": 1.0}]}


def static_model(exponents=None, **poly):
    """The model y = x of a bank without poles; ``exponents`` replaces those
    of the linear term, ``poly`` other keys of the polynomial."""
    doc = dict(STATIC_POLY, **poly)
    if exponents is not None:
        doc["terms"] = [doc["terms"][0], {"exponents": exponents,
                                          "coefficient": 1.0}]
    return {"bank": {"base_poles": [], "n_rep": 0}, "poly": doc}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT_CASES))
def test_malformed_input_exits_cleanly(case, tmp_path, out):
    """Bad files and numerically impossible requests end in exit 2 or 3
    with a one-line message, never a traceback."""
    template, code, message = MALFORMED_INPUT_CASES[case]
    garbage = tmp_path / "garbage.json"
    garbage.write_text("this is not JSON {")
    non_finite = tmp_path / "non_finite.csv"
    values = ["abc" if i == 3 else "nan" if i == 7 else "0.5"
              for i in range(1020)]
    non_finite.write_text("index,value\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(values)))
    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("index,value\n")
    csv_bodies = {"one_column": "0.5\n1.0\n-2.0\n3.0\n",
                  "headerless": "0,0.5\n1,1.0\n2,-2.0\n3,3.0\n",
                  "three_column": "index,value\n0,0.5,1\n1,1.0,1\n"}
    for key, body in csv_bodies.items():
        (tmp_path / f"{key}.csv").write_text(body)
    files = {
        "u": gen_multisine(tmp_path, out, n=256, nf=32),
        "u_csv": out / "u.csv",  # the same samples, aperiodic
        "garbage": garbage,
        "directory": tmp_path,
        "non_finite": non_finite,
        "empty_csv": empty_csv,
        **{f"{key}_csv": tmp_path / f"{key}.csv" for key in csv_bodies},
        "empty_json": write_json(tmp_path / "empty.json", {"samples": []}),
        "short_json": write_json(tmp_path / "short.json",
                                 {"samples": [0.5] * 100}),
        "tiny_json": write_json(tmp_path / "tiny.json",
                                {"samples": [0.5, -1.0, 2.0] * 8}),
        "no_poles": write_json(tmp_path / "no_poles.json", {"bank": {}}),
        "static_model": write_json(tmp_path / "static_model.json",
                                   static_model()),
        "identify": write_json(tmp_path / "id_ok.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1}),
        # fits y = u
        "identify_static": write_json(tmp_path / "id_static.json", {
            "n_a": 0, "n_b": 0, "n_rep": 0, "degree": 1}),
        "identity": write_json(tmp_path / "identity.json", IDENTITY_SYSTEM),
        "unstable": write_json(tmp_path / "unstable.json", {
            "g": {"b": [1.0], "a": [1.0, -1.5]},
            "nonlinearity": {"kind": "polynomial", "coefficients": [0.0, 1.0]}}),
        "study_typo": write_json(tmp_path / "study.json", {
            "kind": "pole_rate", "system": {"preset": "example1"},
            "n_trials": 1, "n_trails": 5, "n_freqs_grid": [32]}),
        "identify_typo": write_json(tmp_path / "id.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1, "degre": 3}),
        "gen_n_samples": write_json(tmp_path / "gen_n.json", {
            "kind": "multisine", "n_samples": "abc", "n_freqs": 8}),
        "gen_n_samples_zero": write_json(tmp_path / "gen_n_zero.json", {
            "kind": "gaussian", "n_samples": 0}),
        "gen_seed": write_json(tmp_path / "gen_seed.json", {
            "kind": "gaussian", "n_samples": 64, "seed": "x"}),
        "system_g": write_json(tmp_path / "system_g.json",
                               dict(IDENTITY_SYSTEM, g=5)),
        "study_n_trials": write_json(tmp_path / "study_n.json", {
            "kind": "pole_rate", "system": "example1", "n_trials": "x"}),
        "identify_welch": write_json(tmp_path / "id_welch.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1, "welch_segment": "x"}),
        "study_preset": write_json(tmp_path / "study_preset.json", {
            "kind": "pole_rate", "system": {"preset": "example3"},
            "n_trials": 1}),
        "identify_n_a": write_json(tmp_path / "id_n_a.json", {
            "n_a": -1, "n_b": 1, "n_rep": 1, "degree": 1}),
        "identify_welch_zero": write_json(tmp_path / "id_welch_zero.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1, "welch_segment": 0}),
        "identify_filtering": write_json(tmp_path / "id_filtering.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1,
            "filtering": "zero-initial"}),
        "identify_frf": write_json(tmp_path / "id_frf.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1, "frf": "welch"}),
        "string_periodic": write_json(tmp_path / "string_periodic.json", {
            "samples": [0.5, 1, -2, 3], "periodic": "false",
            "period_samples": 2}),
        "aperiodic_period": write_json(tmp_path / "aperiodic_period.json", {
            "samples": [0.5, 1, -2, 3], "periodic": False,
            "period_samples": 3}),
        "string_samples": write_json(tmp_path / "string_samples.json", {
            "samples": ["0.5", "1", "-2", "3"]}),
        "study_n_rep_twice": write_json(tmp_path / "study_n_rep_twice.json", {
            "kind": "noise", "system": {"preset": "example2_polynomial"},
            "n_trials": 1, "n_rep_set": [1, 1], "n_a": 2, "n_b": 2}),
        "study_n_freqs_twice": write_json(
            tmp_path / "study_n_freqs_twice.json", {
                "kind": "pole_rate", "system": "example1", "n_trials": 1,
                "n_freqs_grid": [32, 32]}),
        "study_n_a": write_json(tmp_path / "study_n_a.json", {
            "kind": "pole_rate", "system": "example1", "n_trials": 1,
            "n_freqs_grid": [32], "n_a": -1}),
        "study_n_a_two": write_json(tmp_path / "study_n_a_two.json", {
            "kind": "pole_rate", "system": "example1", "n_trials": 1,
            "n_freqs_grid": [32], "n_a": 2}),
        "study_n_freqs_zero": write_json(tmp_path / "study_n_freqs_zero.json", {
            "kind": "pole_rate", "system": "example1", "n_trials": 1,
            "n_freqs_grid": [64, 0]}),
        "study_validation_zero": write_json(
            tmp_path / "study_validation_zero.json", {
                "kind": "convergence", "system": "example1", "n_trials": 1,
                "n_freqs_grid": [32], "n_rep_set": [1],
                "validation_n_freqs": 0}),
        "period_zero": write_json(tmp_path / "period_zero.json", {
            "samples": [0.5] * 256, "periodic": True, "period_samples": 0}),
        "period_negative": write_json(tmp_path / "period_negative.json", {
            "samples": [0.5] * 256, "periodic": True, "period_samples": -2}),
        "periodic_empty": write_json(tmp_path / "periodic_empty.json", {
            "samples": [], "periodic": True}),
        "empty_coefficients": write_json(tmp_path / "empty_coefficients.json", {
            "g": {"b": [1.0], "a": [1.0, -0.5]},
            "nonlinearity": {"kind": "polynomial", "coefficients": []}}),
        "negative_variance": write_json(
            tmp_path / "negative_variance.json",
            dict(IDENTITY_SYSTEM, noise={"variance": -1, "seed": 1})),
        "unstable_shaping": write_json(
            tmp_path / "unstable_shaping.json",
            dict(IDENTITY_SYSTEM, noise={
                "variance": 0, "shaping_filter": {"b": [1.0], "a": [1.0, -1.5]}})),
        "gen_sample_period": write_json(tmp_path / "gen_sample_period.json", {
            "kind": "multisine", "n_samples": 64, "n_freqs": 8,
            "sample_period": 0.5}),
        "study_welch_long": write_json(tmp_path / "study_welch_long.json", {
            "kind": "noise", "system": {"preset": "example2_polynomial"},
            "n_trials": 1, "n_rep_set": [1], "n_a": 2, "n_b": 2,
            "n_samples": 100, "welch_segment": 200}),
        "identify_welch_long": write_json(tmp_path / "id_welch_long.json", {
            "n_a": 1, "n_b": 1, "n_rep": 1, "degree": 1, "welch_segment": 512}),
        "study_welch_default_long": write_json(
            tmp_path / "study_welch_default_long.json", {
                "kind": "noise", "system": {"preset": "example2_polynomial"},
                "n_trials": 1, "n_rep_set": [1], "n_a": 2, "n_b": 2,
                "n_samples": 20, "welch_segment": None}),
        "study_n_samples_zero": write_json(
            tmp_path / "study_n_samples_zero.json", {
                "kind": "noise", "system": {"preset": "example2_polynomial"},
                "n_trials": 1, "n_rep_set": [1], "n_a": 2, "n_b": 2,
                "n_samples": 0}),
        "study_negative_variance": write_json(
            tmp_path / "study_negative_variance.json", {
                "kind": "noise", "n_trials": 1, "n_rep_set": [1],
                "system": dict(IDENTITY_SYSTEM,
                               noise={"variance": -1, "seed": 1})}),
    }
    for key, model in {
            "poly_basis": static_model(basis="legendre"),
            "poly_degree": static_model(degree=-1),
            "poly_degree_float": static_model(degree=1.9),
            "poly_coefficient_string": static_model(terms=[
                {"exponents": [0], "coefficient": "0.0"},
                {"exponents": [1], "coefficient": "2.5"}]),
            "poly_coefficient_huge": static_model(terms=[
                {"exponents": [0], "coefficient": 10**400},
                {"exponents": [1], "coefficient": 1.0}]),
            "poly_std_huge": static_model(
                basis="hermite",
                standardization={"mean": [0.0], "scale": [10**400]}),
            "poly_exponent_high": static_model(exponents=[2]),
            "poly_exponents_long": static_model(exponents=[0, 1]),
            "poly_exponent_float": static_model(exponents=[1.0]),
            "poly_exponent_negative": static_model(exponents=[-1]),
            "poly_term_twice": static_model(terms=[
                {"exponents": [1], "coefficient": 1.0}] * 2),
            "poly_terms_reordered": static_model(terms=[
                {"exponents": [1], "coefficient": 1.0},
                {"exponents": [0], "coefficient": 0.0}]),
            "poly_std_length": static_model(
                basis="hermite",
                standardization={"mean": [0.0, 0.0], "scale": [1.0, 1.0]}),
            "poly_std_zero": static_model(
                basis="hermite",
                standardization={"mean": [0.0], "scale": [0.0]}),
            "poly_std_string": static_model(
                basis="hermite",
                standardization={"mean": ["0.5"], "scale": [1.0]}),
            # evaluate reads a standardization in the hermite basis only
            "poly_std_monomial": static_model(
                standardization={"mean": [0.0], "scale": [1.0]}),
            "bank_n_rep_float": dict(static_model(),
                                     bank={"base_poles": [], "n_rep": 1.9}),
            "bank_lone_pole": dict(static_model(), bank={
                "base_poles": [[0.5, 0.3]], "n_rep": 1}),
            # the pair's second member one ulp off the first's conjugate
            "bank_ulp_pair": dict(static_model(), bank={
                "base_poles": [[0.5, 0.3], [0.5, -0.30000000000000004]],
                "n_rep": 1}, poly=dict(STATIC_POLY, n_channels=3, terms=[
                    {"exponents": [0, 0, 0], "coefficient": 0.0},
                    {"exponents": [1, 0, 0], "coefficient": 1.0}])),
            # json writes and reads NaN; two real poles, three channels
            "bank_nan_pole": dict(static_model(), bank={
                "base_poles": [[float("nan"), 0.0]] * 2, "n_rep": 1},
                poly=dict(STATIC_POLY, n_channels=3, terms=[
                    {"exponents": [0, 0, 0], "coefficient": 0.0},
                    {"exponents": [1, 0, 0], "coefficient": 1.0}])),
    }.items():
        files[key] = write_json(tmp_path / f"{key}.json", model)
    argv = [arg.format(**files) for arg in template] + ["--out-dir", str(out)]
    src = os.path.dirname(os.path.dirname(wiener_gobf.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "wiener_gobf.cli", *argv], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


# Each command once: argument template (placeholders name the files
# ``run_contract_inputs`` writes) and the manifest it documents.
RUN_CONTRACT_CASES = {
    "generate": (["generate", "--config", "{gen}"], "sig.manifest.json"),
    "simulate": (["simulate", "--config", "{system}", "--input", "{u}",
                  "--oracle"], "ex1_simulate.manifest.json"),
    "identify": (["identify", "--config", "{identify}", "--u", "{u}", "--y",
                  "{y}"], "m_identify.manifest.json"),
    "predict": (["predict", "--model", "{model}", "--u", "{u}", "--name",
                 "pred"], "pred_predict.manifest.json"),
    "scatter": (["scatter", "--model", "{model}", "--u", "{u}", "--y", "{y}",
                 "--name", "sc"], "sc_scatter.manifest.json"),
    "study": (["study", "--config", "{study}", "--jobs", "1"],
              "poles_study.manifest.json"),
}
MANIFEST_KEYS = ["command", "config", "seeds", "outputs", "version",
                 "duration_s"]


def run_contract_inputs(tmp_path):
    """Configs, signals and a model in their own directory, so a command's
    out-dir holds only what that command writes."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    u_path = TestScatter.identify_model(tmp_path, inputs, n=256, nf=32)
    return {
        "u": u_path, "y": inputs / "ex1_y.csv", "model": inputs / "m.json",
        "system": tmp_path / "sys.json", "identify": tmp_path / "id.json",
        "gen": write_json(tmp_path / "sig.json", {
            "kind": "gaussian", "n_samples": 64, "seed": 2, "name": "sig"}),
        "study": write_json(tmp_path / "poles.json", {
            "kind": "pole_rate", "system": {"preset": "example1"},
            "n_trials": 1, "n_freqs_grid": [32, 64], "name": "poles"}),
    }


@pytest.mark.parametrize("command", sorted(RUN_CONTRACT_CASES))
def test_run_contract(command, tmp_path, out, capsys):
    """Exit 0, stdout the first output, and a manifest at its documented
    name, with the documented keys in order, listing what the command
    wrote: its outputs, and nothing else is left in the out-dir."""
    template, manifest_name = RUN_CONTRACT_CASES[command]
    files = run_contract_inputs(tmp_path)
    capsys.readouterr()
    argv = [arg.format(**files) for arg in template] + ["--out-dir", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / manifest_name).read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["version"] == wiener_gobf.__version__
    assert capsys.readouterr().out == manifest["outputs"][0] + "\n"
    assert sorted(os.listdir(out)) == sorted(
        [manifest_name] + [os.path.basename(p) for p in manifest["outputs"]])
    assert all(os.path.dirname(p) == str(out) for p in manifest["outputs"])


def test_failed_run_writes_no_manifest(tmp_path, out):
    """A failed run leaves its out-dir empty: every input is read before
    anything is written."""
    files = run_contract_inputs(tmp_path)
    assert main(["predict", "--model", str(tmp_path / "missing.json"),
                 "--u", str(files["u"]), "--out-dir", str(out)]) == 2
    assert os.listdir(out) == []
    assert main(["identify", "--config", str(files["identify"]),
                 "--u", str(files["u"]), "--y", str(files["y"]),
                 "--validate-u", str(files["u"]),
                 "--validate-y", str(tmp_path / "missing.csv"),
                 "--out-dir", str(out)]) == 2
    assert os.listdir(out) == []


def loads_scipy_signal(*commands):
    """Run CLI commands in one fresh interpreter, after ``import wiener_gobf``;
    whether that interpreter then holds scipy.signal."""
    script = ("import sys\n"
              "import wiener_gobf\n"
              "from wiener_gobf.cli import main\n"
              f"for argv in {[list(c) for c in commands]!r}:\n"
              "    if main(argv) != 0:\n"
              "        sys.exit(f'{argv} failed')\n"
              "print('scipy.signal' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(wiener_gobf.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


class TestColdStart:
    """scipy.signal is imported only where a record is filtered from rest."""

    def test_periodic_identify_and_predict_leave_it_unloaded(self, tmp_path, out):
        u_path = TestScatter.identify_model(tmp_path, out, n=1020, nf=170)
        id_cfg = tmp_path / "id.json"
        assert not loads_scipy_signal(
            ["identify", "--config", str(id_cfg), "--u", str(u_path),
             "--y", str(out / "ex1_y.csv"), "--out-dir", str(out)],
            ["predict", "--model", str(out / "m.json"), "--u", str(u_path),
             "--out-dir", str(out)])

    def test_aperiodic_identify_loads_it(self, tmp_path, out):
        gen = write_json(tmp_path / "gen.json", {"kind": "gaussian",
                                                 "n_samples": 2000, "seed": 4})
        assert main(["generate", "--config", gen, "--out-dir", str(out)]) == 0
        sys_cfg = write_json(tmp_path / "sys.json",
                             {"preset": "example2_polynomial", "name": "ex2"})
        assert main(["simulate", "--config", sys_cfg, "--input",
                     str(out / "gaussian.csv"), "--out-dir", str(out)]) == 0
        id_cfg = write_json(tmp_path / "id.json",
                            {"n_a": 2, "n_b": 2, "n_rep": 1, "degree": 3,
                             "welch_segment": 250})
        assert loads_scipy_signal(
            ["identify", "--config", id_cfg, "--u", str(out / "gaussian.csv"),
             "--y", str(out / "ex2_y.csv"), "--out-dir", str(out)])
