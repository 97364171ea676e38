import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiener_gobf import experiments, pipeline, polymodel
from wiener_gobf.errors import InvalidSpecError, RankDeficiencyWarning
from wiener_gobf.gobf import build_bank, bank_outputs
from wiener_gobf.polymodel import (
    HERMITE,
    MONOMIAL,
    ROW_BLOCK,
    ChannelStandardization,
    MultiPolyModel,
    build_regressors,
    enumerate_multi_indices,
    evaluate,
    fit_ls,
    fit_poly_model,
)
from wiener_gobf.ratfun import RationalTF, filter_time, poles
from wiener_gobf.signals import MultisineSpec, generate_gaussian, generate_multisine

EX1 = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                 a=np.array([1.0, -2.1, 1.9, -0.7]))


def example1_channels(n_rep=1, n=1020, nf=170, seed=1):
    u = generate_multisine(MultisineSpec(n_samples=n, n_freqs=nf, seed=seed))
    return bank_outputs(build_bank(poles(EX1), n_rep), u)


# The stabilized BLA poles of default pool trial 13 at N_F = 341, as the
# rational fit gave them when these tests were written; held fixed so the
# tests below do not move with the fit.
HARD_TRIAL_POLES = np.array([
    complex(float.fromhex(re), float.fromhex(im)) for re, im in (
        ("0x1.7f8e6c673024dp-1", "0x1.52a7c330b0d21p-1"),
        ("0x1.7f8e6c673024dp-1", "-0x1.52a7c330b0d21p-1"),
        ("0x1.922b801aadbd9p-1", "0x0p+0"))])


def hard_trial_record():
    """Default convergence trial 13 of the benchmark at N_F = 341 (N = 2046):
    its record (u, y) and the stabilized BLA poles of that record."""
    cfg = experiments.StudyConfig(kind=experiments.CONVERGENCE,
                                  system=experiments.example1_system(),
                                  n_trials=1, base_seed=1_000_013)
    u, y, *_ = experiments._trial_bla(cfg, 0, 341)
    return u, y, HARD_TRIAL_POLES.copy()


class TestMultiIndices:
    def test_two_channels_degree_two(self):
        got = enumerate_multi_indices(2, 2)
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_degree_zero_is_constant_only(self):
        assert enumerate_multi_indices(3, 0) == [(0, 0, 0)]

    def test_stars_and_bars_count(self):
        assert len(enumerate_multi_indices(4, 3)) == 35

    def test_counts_match_binomial_identity(self):
        for n_ch in (1, 2, 5):
            for q in (0, 1, 4):
                assert len(enumerate_multi_indices(n_ch, q)) == math.comb(n_ch + q, q)


class TestRegressors:
    def test_single_channel_monomials(self):
        x = np.array([[1.0], [2.0], [3.0]])
        psi = build_regressors(x, 3, MONOMIAL)
        expected = np.column_stack([np.ones(3), x[:, 0], x[:, 0] ** 2, x[:, 0] ** 3])
        np.testing.assert_allclose(psi, expected)

    def test_hermite_columns_nearly_uncorrelated_on_gaussian_data(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10_000, 1)) * 3.0 + 1.0
        psi = build_regressors(x, 3, HERMITE, ChannelStandardization.from_data(x))
        he1, he2 = psi[:, 1], psi[:, 2]
        corr = np.corrcoef(he1, he2)[0, 1]
        assert abs(corr) < 0.05

    def test_hermite_without_standardization_takes_raw_channels(self):
        x = np.array([[-1.5], [0.0], [2.0]])
        np.testing.assert_array_equal(
            build_regressors(x, 3, HERMITE),
            np.column_stack([np.ones(3), x[:, 0], x[:, 0] ** 2 - 1,
                             x[:, 0] ** 3 - 3 * x[:, 0]]))

    def test_monomial_and_hermite_span_coincide(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 2))
        mono = build_regressors(x, 3, MONOMIAL)
        herm = build_regressors(x, 3, HERMITE, ChannelStandardization.from_data(x))
        # each monomial column projects exactly onto the hermite columns
        coef, *_ = np.linalg.lstsq(herm, mono, rcond=None)
        resid = mono - herm @ coef
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(mono))

    def test_zero_variance_channel_warns_and_uses_unit_scale(self):
        x = np.column_stack([np.ones(50), np.linspace(-1, 1, 50)])
        with pytest.warns(RankDeficiencyWarning):
            std = ChannelStandardization.from_data(x)
        assert np.array_equal(std.scale[:1], [1.0])
        assert np.all(np.isfinite(build_regressors(x, 2, HERMITE, std)))


def channel_poly(x, e, basis):
    """Degree-e (e >= 1) basis polynomial of one (standardized) channel, by
    the same recurrence as the library."""
    lo, hi = np.ones_like(x), x.copy()
    for k in range(2, e + 1):
        lo, hi = hi, (x * hi - (k - 1) * lo if basis == HERMITE else x * hi)
    return hi


def reference_columns(X, indices, basis, std):
    """One regressor column per multi-index: the product over channels, in
    channel order, of per-channel polynomials."""
    Xs = (X - std.mean) / std.scale if basis == HERMITE else X
    psi = np.empty((X.shape[0], len(indices)))
    for j, expo in enumerate(indices):
        col = np.ones(X.shape[0])
        for ch, e in enumerate(expo):
            if e:
                col = col * channel_poly(Xs[:, ch], e, basis)
        psi[:, j] = col
    return psi


def reference_evaluate(model, X):
    """The coefficient-first streaming sum evaluate has always computed."""
    std = model.standardization
    Xs = (X - std.mean) / std.scale if model.basis == HERMITE else X
    out = np.zeros(X.shape[0])
    for expo, coef in zip(enumerate_multi_indices(model.n_channels, model.degree),
                          model.coefficients):
        if coef == 0.0:
            continue
        col = np.full(X.shape[0], coef)
        for ch, e in enumerate(expo):
            if e:
                col = col * channel_poly(Xs[:, ch], e, model.basis)
        out += col
    return out


class TestExactLayout:
    """Regressors built column from parent column, and evaluate's in-place
    sum, are bit-identical to the plain per-column products."""

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=4),
           st.sampled_from([MONOMIAL, HERMITE]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.just((40, 30)))
    # Records longer than two row blocks, ending in a partial one.
    @example(3, 3, MONOMIAL, 5, (2 * ROW_BLOCK + 3, 2 * ROW_BLOCK + 3))
    @example(3, 3, HERMITE, 6, (2 * ROW_BLOCK + 3, 2 * ROW_BLOCK + 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_column_products_exactly(self, n_ch, degree, basis, seed,
                                                 rows):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows[0], n_ch)) * rng.uniform(0.1, 5.0, n_ch) \
            + rng.uniform(-2.0, 2.0, n_ch)
        std = ChannelStandardization.from_data(X) if basis == HERMITE else None
        indices = enumerate_multi_indices(n_ch, degree)
        psi = build_regressors(X, degree, basis, std)
        assert psi.flags.f_contiguous
        assert np.array_equal(psi, reference_columns(X, indices, basis, std))

        beta = rng.standard_normal(len(indices))
        beta[rng.random(len(beta)) < 0.2] = 0.0
        model = MultiPolyModel(n_channels=n_ch, degree=degree, basis=basis,
                               coefficients=beta, standardization=std)
        X2 = rng.standard_normal((rows[1], n_ch))
        assert np.array_equal(evaluate(model, X2), reference_evaluate(model, X2))

    @pytest.mark.parametrize("basis", [MONOMIAL, HERMITE])
    @pytest.mark.parametrize("layout", ["one-column", "fortran"])
    def test_channels_left_unchanged(self, basis, layout):
        """The channels are standardized in a copy, also where X.T is already
        C-contiguous and a plain transpose would be a view of X."""
        rng = np.random.default_rng(8)
        n_ch = 1 if layout == "one-column" else 3
        X = np.asfortranarray(2.0 * rng.standard_normal((50, n_ch)) + 1.0)
        X0 = X.copy()
        model = fit_poly_model(X, rng.standard_normal(50), 3, basis)
        build_regressors(X, 3, basis, model.standardization)
        evaluate(model, X)
        assert np.array_equal(X, X0)


class TestFitLs:
    @pytest.mark.parametrize("where, rows", [("psi", 20), ("y", 20),
                                             ("psi", 2), ("y", 2)],
                             ids=["psi", "y", "wide-psi", "wide-y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, where, rows, bad):
        """A tall psi (20 x 3) is caught through its normal equations, a wide
        one (2 x 3) before gelsd."""
        x = np.linspace(-1.0, 1.0, rows)[:, None]
        data = {"psi": build_regressors(x, 2, MONOMIAL), "y": x[:, 0] ** 2}
        data[where][1] = bad
        with pytest.raises(InvalidSpecError, match="finite"):
            fit_ls(data["psi"], data["y"])

    def test_overflowing_normal_equations_are_not_non_finite_data(self):
        """psi is finite but psi^T psi overflows: no finiteness error, the
        factorization fails and gelsd gives its coefficients."""
        psi, y = self.random_problem(20, np.ones(3))
        psi *= 1e200
        with np.errstate(over="ignore"):
            beta = fit_ls(psi, y)
            assert not np.all(np.isfinite(psi.T @ psi))
        assert np.array_equal(beta, self.gelsd(psi, y))

    def test_target_length_must_match_rows(self):
        x = np.linspace(-1.0, 1.0, 20)[:, None]
        psi = build_regressors(x, 2, MONOMIAL)
        with pytest.raises(InvalidSpecError, match="target length"):
            fit_ls(psi, np.ones(19))
        with pytest.raises(InvalidSpecError, match="target length"):
            fit_poly_model(x, np.ones(19), 2)

    def test_exact_interpolation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((400, 3))
        psi = build_regressors(x, 2, MONOMIAL)
        beta_true = rng.standard_normal(psi.shape[1])
        beta = fit_ls(psi, psi @ beta_true)
        np.testing.assert_allclose(beta, beta_true, atol=1e-10)

    def test_orthogonal_residual_leaves_coefficients_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((300, 2))
        psi = build_regressors(x, 2, MONOMIAL)
        beta_true = rng.standard_normal(psi.shape[1])
        y0 = psi @ beta_true
        noise = rng.standard_normal(300)
        # orthogonalize the noise against the regressor columns
        proj, *_ = np.linalg.lstsq(psi, noise, rcond=None)
        r = noise - psi @ proj
        beta = fit_ls(psi, y0 + r)
        np.testing.assert_allclose(beta, beta_true, atol=1e-8)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((500, 2))
        psi = build_regressors(x, 3, HERMITE, ChannelStandardization.from_data(x))
        y = rng.standard_normal(500)
        beta = fit_ls(psi, y)
        resid = y - psi @ beta
        dots = psi.T @ resid
        assert np.max(np.abs(dots)) < 1e-8 * np.linalg.norm(y) * \
            np.max(np.linalg.norm(psi, axis=0))

    def test_recovers_example1_nonlinearity_on_true_intermediate(self):
        """Cubic fit on the true intermediate signal returns the generator
        coefficients (0, 1, 0.8, 0.7)."""
        u = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=5))
        x = filter_time(EX1, u).samples
        y = x + 0.8 * x**2 + 0.7 * x**3
        beta = fit_ls(build_regressors(x[:, None], 3, MONOMIAL), y)
        np.testing.assert_allclose(beta, [0.0, 1.0, 0.8, 0.7], atol=1e-10)

    def test_rank_deficiency_warns_and_returns_min_norm(self):
        x = np.linspace(-1, 1, 100)
        psi = np.column_stack([x, x])  # duplicated column
        with pytest.warns(RankDeficiencyWarning):
            beta = fit_ls(psi, 2.0 * x)
        np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-10)

    @staticmethod
    def random_problem(n, singular_values, seed=7):
        """psi = U diag(s) V^T in Fortran order, and a random target."""
        rng = np.random.default_rng(seed)
        m = len(singular_values)
        u, _ = np.linalg.qr(rng.standard_normal((n, m)))
        v, _ = np.linalg.qr(rng.standard_normal((m, m)))
        return np.asfortranarray(u * singular_values @ v.T), rng.standard_normal(n)

    @staticmethod
    def gelsd(psi, y):
        return scipy.linalg.lstsq(psi, y, lapack_driver="gelsd")[0]

    def test_well_conditioned_matches_gelsd_without_calling_it(self, monkeypatch):
        psi, y = self.random_problem(400, np.linspace(1.0, 0.1, 20))
        expected = self.gelsd(psi, y)
        monkeypatch.setattr(scipy.linalg, "lstsq", None)  # Cholesky path only
        beta = fit_ls(psi, y)
        np.testing.assert_allclose(beta, expected, rtol=1e-10, atol=0)

    def test_ill_conditioned_falls_back_to_gelsd_exactly(self):
        psi, y = self.random_problem(400, np.logspace(0, -6, 20))
        assert np.array_equal(fit_ls(psi, y), self.gelsd(psi, y))

    def test_wide_problem_returns_min_norm_and_warns(self):
        psi, y = self.random_problem(8, np.ones(8))
        psi = np.asfortranarray(np.hstack([psi, psi[:, :4]]))
        with pytest.warns(RankDeficiencyWarning):
            beta = fit_ls(psi, y)
        np.testing.assert_allclose(beta, np.linalg.pinv(psi) @ y, atol=1e-10)

    @pytest.mark.parametrize("smallest", [0.1, 1e-6], ids=["cholesky", "gelsd"])
    def test_inputs_unchanged(self, smallest):
        psi, y = self.random_problem(300, np.linspace(1.0, smallest, 15))
        psi0, y0 = psi.copy(), y.copy()
        fit_ls(psi, y)
        assert np.array_equal(psi, psi0) and np.array_equal(y, y0)

    def test_benchmark_hard_case_stays_on_gelsd(self):
        """Default convergence trial 13 of the benchmark at N_F = 341,
        n_rep = 3: cond(psi) is about 7.7e4, so the guard must send it to
        gelsd and reproduce gelsd's coefficients bit for bit."""
        u, y, pole_set = hard_trial_record()
        X = bank_outputs(build_bank(pole_set, 3), u)
        psi = build_regressors(X, 3, HERMITE, ChannelStandardization.from_data(X))
        assert np.array_equal(fit_ls(psi, y.samples), self.gelsd(psi, y.samples))

    def test_long_fit_builds_one_slice_at_a_time(self, monkeypatch):
        """Above ROW_BLOCK rows the normal equations are summed over slices:
        no build_regressors call sees more than ROW_BLOCK rows, and the
        Cholesky coefficients match gelsd on the whole psi."""
        rng = np.random.default_rng(8)
        n = 4 * ROW_BLOCK + 123
        X = rng.standard_normal((n, 3))
        y = X[:, 0] - 0.4 * X[:, 1] * X[:, 2] + 0.1 * rng.standard_normal(n)
        std = ChannelStandardization.from_data(X)
        expected = self.gelsd(build_regressors(X, 3, HERMITE, std), y)
        built = []

        def spy(X, *args):
            built.append(len(X))
            return build_regressors(X, *args)

        monkeypatch.setattr(polymodel, "build_regressors", spy)
        monkeypatch.setattr(scipy.linalg, "lstsq", None)  # Cholesky path only
        beta = fit_poly_model(X, y, 3).coefficients
        assert built == [ROW_BLOCK] * 4 + [123]
        np.testing.assert_allclose(beta, expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [50, ROW_BLOCK])
    @pytest.mark.parametrize("form", ["array", "rows"])
    def test_one_slice_solves_the_whole_normal_equations(self, n, form):
        """A record of at most ROW_BLOCK rows is one slice: the coefficients
        are dpotrf/dpotrs on psi^T psi and psi^T y, bit for bit."""
        psi, y = self.random_problem(n, np.linspace(1.0, 0.1, 12))
        r, info = scipy.linalg.lapack.dpotrf(psi.T @ psi)
        assert info == 0
        expected, info = scipy.linalg.lapack.dpotrs(r, psi.T @ y)
        assert info == 0
        source = psi if form == "array" else lambda rows: psi[rows]
        assert np.array_equal(fit_ls(source, y), expected)

    @pytest.mark.parametrize("form", ["array", "rows"])
    def test_long_ill_conditioned_fit_is_gelsd_exactly(self, form):
        psi, y = self.random_problem(2 * ROW_BLOCK + 7, np.logspace(0, -6, 12))
        assert np.linalg.cond(psi) > 1e4
        source = psi if form == "array" else lambda rows: psi[rows]
        assert np.array_equal(fit_ls(source, y), self.gelsd(psi, y))

    @pytest.mark.parametrize("where", ["psi", "y"])
    @pytest.mark.parametrize("form", ["array", "rows"])
    def test_non_finite_long_record_rejected(self, where, form):
        """A NaN in the last slice of a long record makes that slice's normal
        equations non-finite, and the scan before gelsd finds it."""
        data = dict(zip(("psi", "y"), self.random_problem(
            2 * ROW_BLOCK + 7, np.linspace(1.0, 0.1, 6))))
        data[where][-1] = np.nan
        psi = data["psi"]
        source = psi if form == "array" else lambda rows: psi[rows]
        with pytest.raises(InvalidSpecError, match="regression data must be finite"):
            fit_ls(source, data["y"])

    def test_fit_holds_under_two_slices_of_psi(self):
        """fit_poly_model at the benchmark's largest size (65532 x 10
        channels, degree 3, 286 columns) never holds the whole psi, nor two
        slices of it at once."""
        rng = np.random.default_rng(9)
        X = rng.standard_normal((65532, 10))
        y = X[:, 0] + 0.5 * X[:, 1] ** 3
        n_columns = math.comb(10 + 3, 3)
        tracemalloc.start()
        try:
            fit_poly_model(X, y, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * ROW_BLOCK * n_columns * 8

    def test_scale_equivariance_in_target(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 2))
        psi = build_regressors(x, 2, HERMITE, ChannelStandardization.from_data(x))
        y = rng.standard_normal(200)
        b1 = fit_ls(psi, y)
        b2 = fit_ls(psi, 3.5 * y)
        np.testing.assert_allclose(b2, 3.5 * b1, rtol=1e-10)


class TestNestedModels:
    """Models with n_rep = 1, 2 on the record of an n_rep = 3 model are exact
    sub-problems of it: their bank outputs, standardizations and Hermite
    regressors are column subsets of the n_rep = 3 ones, bit for bit."""

    @pytest.fixture(scope="class")
    def records(self):
        u, _, pole_set = hard_trial_record()
        gauss = generate_gaussian(len(u), seed=11)
        return pole_set, {"periodic-steady-state": u, "zero-initial": gauss}

    # Each record is named by how the bank filters it: the periodic
    # multisine in steady state, the aperiodic Gaussian record from rest.
    @pytest.mark.parametrize("record", ["periodic-steady-state", "zero-initial"])
    @pytest.mark.parametrize("n_rep", [1, 2])
    def test_column_subsets_of_the_largest_model(self, records, record, n_rep):
        pole_set, inputs = records
        u = inputs[record]
        X3 = bank_outputs(build_bank(pole_set, 3), u)
        X = bank_outputs(build_bank(pole_set, n_rep), u)
        n_ch, n_ch3 = X.shape[1], X3.shape[1]
        assert np.array_equal(X, X3[:, :n_ch])

        std3 = ChannelStandardization.from_data(X3)
        std = ChannelStandardization.from_data(X)
        assert np.array_equal(std.mean, std3.mean[:n_ch])
        assert np.array_equal(std.scale, std3.scale[:n_ch])

        position3 = {expo: j for j, expo in
                     enumerate(enumerate_multi_indices(n_ch3, 3))}
        columns = [position3[expo + (0,) * (n_ch3 - n_ch)]
                   for expo in enumerate_multi_indices(n_ch, 3)]
        assert np.array_equal(build_regressors(X, 3, HERMITE, std),
                              build_regressors(X3, 3, HERMITE, std3)[:, columns])

    @staticmethod
    def nested_model(pole_set, u, n_rep):
        """A model of bank (pole_set, n_rep) fitted to a smooth nonlinear
        target of its own bank outputs."""
        bank = build_bank(pole_set, n_rep)
        X = bank_outputs(bank, u)
        y = np.tanh(X[:, -1]) + 0.3 * X[:, 0] * X[:, 1]
        return pipeline.WienerModel(bank=bank, poly=fit_poly_model(X, y, 3))

    @pytest.mark.parametrize("record", ["periodic-steady-state", "zero-initial"])
    @pytest.mark.parametrize("n_rep", [1, 2])
    def test_predict_on_the_largest_bank_outputs(self, records, record, n_rep):
        pole_set, inputs = records
        u = inputs[record]
        model = self.nested_model(pole_set, u, n_rep)
        X3 = bank_outputs(build_bank(pole_set, 3), u)
        assert np.array_equal(pipeline.predict(model, u, X=X3).samples,
                              pipeline.predict(model, u).samples)

    def test_predict_rejects_bank_outputs_that_do_not_cover_the_model(self, records):
        pole_set, inputs = records
        u = inputs["periodic-steady-state"]
        model = self.nested_model(pole_set, u, 2)
        X = bank_outputs(model.bank, u)
        for bad in (X[1:], X[:, :-1], X[:, 0]):
            with pytest.raises(InvalidSpecError, match="bank outputs"):
                pipeline.predict(model, u, X=bad)


class TestModel:
    def test_constant_model(self):
        model = MultiPolyModel(n_channels=2, degree=1, basis=MONOMIAL,
                               coefficients=[4.2, 0.0, 0.0])
        out = evaluate(model, np.random.default_rng(0).standard_normal((10, 2)))
        np.testing.assert_allclose(out, 4.2)

    def test_fit_then_evaluate_closure(self):
        X = example1_channels()
        y = X[:, 0] + 0.3 * X[:, 1] * X[:, 2] - 0.1 * X[:, 3] ** 2
        model = fit_poly_model(X, y, degree=2, basis=HERMITE)
        np.testing.assert_allclose(evaluate(model, X), y,
                                   atol=1e-10 * np.max(np.abs(y)))

    def test_monomial_and_hermite_predictions_agree(self):
        X = example1_channels()
        rng = np.random.default_rng(7)
        y = np.tanh(X[:, 1] / np.std(X[:, 1])) + 0.01 * rng.standard_normal(len(X))
        m_mono = fit_poly_model(X, y, degree=3, basis=MONOMIAL)
        m_herm = fit_poly_model(X, y, degree=3, basis=HERMITE)
        y_rms = np.sqrt(np.mean(y**2))
        diff = np.max(np.abs(evaluate(m_mono, X) - evaluate(m_herm, X)))
        assert diff < 1e-8 * y_rms

    def test_hermite_conditioning_no_worse_than_monomial(self):
        X = example1_channels(n_rep=2)
        cond_mono = np.linalg.cond(build_regressors(X, 3, MONOMIAL))
        cond_herm = np.linalg.cond(build_regressors(
            X, 3, HERMITE, ChannelStandardization.from_data(X)))
        assert cond_herm <= 1.1 * cond_mono

    def test_channel_count_mismatch_rejected(self):
        model = MultiPolyModel(n_channels=2, degree=1, basis=MONOMIAL,
                               coefficients=[0.0, 1.0, 1.0])
        with pytest.raises(InvalidSpecError):
            evaluate(model, np.zeros((5, 3)))

    def test_unknown_basis_rejected(self):
        """Only the two bases evaluate knows are accepted, so a model never
        evaluates in a basis other than its own."""
        with pytest.raises(InvalidSpecError, match="legendre"):
            MultiPolyModel(n_channels=1, degree=1, basis="legendre",
                           coefficients=[0.0, 1.0])

    @pytest.mark.parametrize("basis, mean", [(MONOMIAL, [0.0]),
                                             (HERMITE, [0.0, 0.0])],
                             ids=["monomial", "hermite-two-means"])
    def test_standardization_outside_its_hermite_form_rejected(self, basis,
                                                               mean):
        std = ChannelStandardization(mean=mean, scale=[1.0] * len(mean))
        with pytest.raises(InvalidSpecError, match="standardization"):
            MultiPolyModel(n_channels=1, degree=1, basis=basis,
                           coefficients=[0.0, 1.0], standardization=std)

    def test_json_round_trip(self):
        X = example1_channels()
        y = X[:, 1] + 0.2 * X[:, 2] ** 3
        model = fit_poly_model(X, y, degree=3, basis=HERMITE)
        doc = json.loads(json.dumps(model.to_json_dict()))
        back = MultiPolyModel.from_json_dict(doc)
        np.testing.assert_allclose(evaluate(back, X), evaluate(model, X),
                                   rtol=1e-14)

    def test_standardization_frozen_at_fit_time(self):
        X = example1_channels()
        y = X[:, 1] ** 2
        model = fit_poly_model(X, y, degree=2, basis=HERMITE)
        # evaluating on shifted data must reuse the stored standardization
        X2 = X + 5.0
        direct = evaluate(model, X2)
        psi2 = build_regressors(X2, 2, HERMITE, model.standardization)
        np.testing.assert_allclose(direct, psi2 @ model.coefficients,
                                   rtol=1e-12)
