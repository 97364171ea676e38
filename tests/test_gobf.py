import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wiener_gobf.bla import stabilize_poles
from wiener_gobf.errors import InvalidSpecError, UnstableFilterError
from wiener_gobf.gobf import (
    GobfBank,
    bank_frequency_matrix,
    bank_outputs,
    build_bank,
    decay_rho,
    gram_matrix,
    pair_whitening,
    project_expansion,
)
from wiener_gobf.ratfun import RationalTF, poles
from wiener_gobf.signals import MultisineSpec, SignalRecord, generate_multisine

EX1 = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                 a=np.array([1.0, -2.1, 1.9, -0.7]))
EX1_POLES = poles(EX1)
U64 = generate_multisine(MultisineSpec(n_samples=64, n_freqs=8, seed=1))

# Real-coefficient denominators: random coefficients (a[0] = 1), or the
# product of roots, some repeated, some at 0, some far outside the unit
# circle, and pairs within about 1e-9 rad of the real axis.
_modulus = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.95),
                     st.floats(min_value=1.05, max_value=3.0),
                     st.floats(min_value=3.0, max_value=1e6))
_angle = st.one_of(st.floats(min_value=0.0, max_value=np.pi),
                   st.floats(min_value=0.0, max_value=1e-9),
                   st.floats(min_value=np.pi - 1e-9, max_value=np.pi))
_root_groups = st.lists(
    st.tuples(_modulus, _angle, st.booleans(),
              st.integers(min_value=1, max_value=3)),
    min_size=1, max_size=3)
denominators = st.one_of(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1,
             max_size=6).map(lambda c: np.array([1.0] + c)),
    _root_groups.map(lambda groups: np.real(np.poly([
        r for modulus, angle, real, times in groups
        for r in ([modulus if angle < np.pi / 2 else -modulus] if real
                  else [modulus * np.exp(1j * angle),
                        modulus * np.exp(-1j * angle)]) * times]))))


class TestBuildBank:
    def test_single_zero_pole_is_pure_delay_basis(self):
        bank = build_bank(np.array([0.0 + 0.0j]), n_rep=1)
        om = np.linspace(0.1, 3.0, 7)
        f = bank_frequency_matrix(bank, om)
        np.testing.assert_allclose(f[:, 0], 1.0)              # constant column
        np.testing.assert_allclose(f[:, 1], np.exp(-1j * om), rtol=1e-13)

    def test_counts_for_example1_poles(self):
        bank = build_bank(EX1_POLES, n_rep=2)
        assert bank.n_base == 3
        assert bank.n_dynamic == 6
        assert bank.n_outputs == 7
        # repetition pattern: xi_{j + k*n_base} == xi_j
        seq = bank.pole_sequence
        np.testing.assert_allclose(seq[3:], seq[:3])

    def test_n_rep_zero_is_constant_only(self):
        bank = build_bank(EX1_POLES, n_rep=0)
        assert bank.n_outputs == 1
        u = generate_multisine(MultisineSpec(n_samples=64, n_freqs=8, seed=1))
        X = bank_outputs(bank, u)
        np.testing.assert_allclose(X[:, 0], u.samples)

    def test_unstable_pole_rejected_with_pointer_to_stabilize(self):
        with pytest.raises(UnstableFilterError, match="stabilize"):
            build_bank(np.array([1.1 + 0.0j]), n_rep=1)

    def test_non_finite_pole_rejected(self):
        with pytest.raises(InvalidSpecError, match="finite"):
            build_bank(np.array([np.nan, np.nan], dtype=complex), 1)

    def test_complex_pole_without_conjugate_rejected(self):
        with pytest.raises(InvalidSpecError, match="conjugate"):
            build_bank(np.array([0.5 + 0.3j]), 1)

    def test_pair_off_by_one_ulp_rejected(self):
        with pytest.raises(InvalidSpecError, match="conjugate"):
            build_bank(np.array([0.5 + 0.3j, 0.5 - 0.30000000000000004j]), 1)

    @given(denominators, st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_poles_of_real_denominators_make_a_closed_bank(self, a, n_rep):
        """Any real denominator's stabilized poles make a bank whose complex
        base poles each have their conjugate in the set bit for bit, and
        whose outputs on a periodic record are finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ps = stabilize_poles(poles(RationalTF(b=np.array([1.0]), a=a)))
        assume(np.all(np.abs(ps) < 1.0))       # |p| = 1 stays on the circle
        bank = build_bank(ps, n_rep)
        base = bank.base_poles
        assert len(base) == len(ps)
        np.testing.assert_array_equal(np.sort(base[base.imag > 0]),
                                      np.sort(np.conj(base[base.imag < 0])))
        assert np.all(np.isfinite(bank_outputs(bank, U64)))

    def test_ordering_is_canonical_regardless_of_input_order(self):
        p = EX1_POLES
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            bank = build_bank(p[perm], n_rep=1)
            np.testing.assert_allclose(bank.base_poles,
                                       build_bank(p, 1).base_poles)

    def test_json_round_trip(self):
        bank = build_bank(EX1_POLES, n_rep=3)
        doc = bank.to_json_dict()
        back = GobfBank.from_json_dict(doc)
        np.testing.assert_allclose(back.base_poles, bank.base_poles)
        assert back.n_rep == 3 and back.n_outputs == 10
        with pytest.raises(InvalidSpecError, match="F_0"):
            GobfBank.from_json_dict(dict(doc, include_constant=False))


class TestFrequencyMatrix:
    @given(st.floats(min_value=-0.95, max_value=0.95),
           st.floats(min_value=-0.9, max_value=0.9),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=50, deadline=None)
    def test_allpass_factor_unit_modulus(self, re, im_frac, om):
        xi = complex(re, im_frac * np.sqrt(max(0.0, 0.9025 - re * re)))
        z = np.exp(1j * om)
        factor = (1 - np.conj(xi) * z) / (z - xi)
        assert abs(abs(factor) - 1.0) < 1e-12

    def test_constant_column_is_one(self):
        bank = build_bank(EX1_POLES, n_rep=2)
        f = bank_frequency_matrix(bank, np.linspace(0, np.pi, 33))
        np.testing.assert_allclose(f[:, 0], 1.0)

    def test_column_norms_under_circle_quadrature(self):
        bank = build_bank(EX1_POLES, n_rep=2)
        g = gram_matrix(bank, n_points=100_000)
        np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-8)

    def test_complex_gram_is_identity(self):
        bank = build_bank(EX1_POLES, n_rep=2)
        g = gram_matrix(bank, n_points=50_000)
        assert np.max(np.abs(g - np.eye(bank.n_outputs))) < 1e-8

    def test_real_recombined_gram_is_identity(self):
        bank = build_bank(EX1_POLES, n_rep=2)
        g = gram_matrix(bank, n_points=50_000, real_outputs=True)
        assert np.max(np.abs(g - np.eye(bank.n_outputs))) < 1e-8

    def test_impulse_outputs_are_recombined_frequency_columns(self):
        """The DFT of the bank outputs on a periodic unit impulse is the
        real-channel frequency response: real poles pass F_l through, and a
        conjugate pair whitens the Re/Im combination of F_l at w and -w."""
        bank = build_bank(EX1_POLES, n_rep=2)
        n = 512
        om = 2 * np.pi * np.arange(n) / n
        x = bank_outputs(bank, SignalRecord(np.eye(1, n)[0], periodic=True))
        f = bank_frequency_matrix(bank, om)
        fbar = np.conj(bank_frequency_matrix(bank, -om))
        expected = f.copy()
        seq = bank.pole_sequence
        for l in range(len(seq)):
            if seq[l].imag > 0:       # first member of a pair (canonical order)
                c = 1 + l
                re = (f[:, c] + fbar[:, c]) / np.sqrt(2)
                im = (f[:, c] - fbar[:, c]) / (np.sqrt(2) * 1j)
                expected[:, c:c + 2] = np.column_stack([re, im]) @ pair_whitening(seq[l])
        assert np.max(np.abs(np.fft.fft(x, axis=0) - expected)) <= 1e-12

    def test_pair_whitening_matches_quadrature_moments(self):
        """The analytic in-pair cross moment <F, conj-F> agrees with direct
        quadrature of F(z) F(conj z) on the circle."""
        xi = 0.63718888 + 0.66470724j
        m = 200_000
        z = np.exp(2j * np.pi * np.arange(m) / m)
        f_z = np.sqrt(1 - abs(xi) ** 2) / (z - xi)
        f_zc = np.sqrt(1 - abs(xi) ** 2) / (np.conj(z) - xi)
        g_quad = np.mean(f_z * f_zc)
        g_formula = (1 - abs(xi) ** 2) / (1 - xi**2)
        np.testing.assert_allclose(g_quad, g_formula, atol=1e-9)
        w = pair_whitening(xi)
        assert w.shape == (2, 2) and np.all(np.isfinite(w))


class TestBankOutputs:
    def test_first_column_is_input(self):
        u = generate_multisine(MultisineSpec(n_samples=128, n_freqs=20, seed=3))
        X = bank_outputs(build_bank(EX1_POLES, 1), u)
        np.testing.assert_allclose(X[:, 0], u.samples)

    def test_real_pole_bank_outputs_match_direct_filtering(self):
        from wiener_gobf.ratfun import filter_time

        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=40, seed=4))
        bank = build_bank(np.array([0.5 + 0j, -0.3 + 0j]), n_rep=1)
        X = bank_outputs(bank, u)
        # F_1 = sqrt(1-0.09)/(z+0.3), F_2 = sqrt(1-0.25)/(z-0.5)*(1+0.3z)/(z+0.3)
        # (canonical order sorts by modulus: -0.3 then 0.5)
        f1 = RationalTF(b=np.array([0.0, np.sqrt(1 - 0.09)]),
                        a=np.array([1.0, 0.3]))
        np.testing.assert_allclose(X[:, 1], filter_time(f1, u).samples,
                                   atol=1e-10)
        f2 = RationalTF(
            b=np.sqrt(1 - 0.25) * np.convolve([0.0, 1.0], [0.3, 1.0]),
            a=np.convolve([1.0, -0.5], [1.0, 0.3]))
        np.testing.assert_allclose(X[:, 2], filter_time(f2, u).samples,
                                   atol=1e-10)

    def test_zero_initial_converges_to_periodic(self):
        """The periodic record's steady-state outputs equal, once settled,
        the outputs from rest of its aperiodic copy."""
        one = generate_multisine(MultisineSpec(n_samples=512, n_freqs=80, seed=5))
        four = SignalRecord(np.tile(one.samples, 4), periodic=True,
                            period_samples=512)
        bank = build_bank(EX1_POLES, 2)
        xp = bank_outputs(bank, four)
        xz = bank_outputs(bank, SignalRecord(four.samples))
        last = slice(3 * 512, 4 * 512)
        assert np.max(np.abs(xp[last] - xz[last])) < 1e-8

    def test_sample_gram_on_full_band_multisine(self):
        """Flat excitation over the whole band makes the sample channel
        covariance approach rms^2 * identity (quadrature oracle)."""
        n = 8192
        u = generate_multisine(MultisineSpec(n_samples=n, n_freqs=n // 2 - 1,
                                             target_rms=1.0, seed=6))
        bank = build_bank(EX1_POLES, 1)
        X = bank_outputs(bank, u)
        gram = X.T @ X / n
        assert np.max(np.abs(gram - np.eye(bank.n_outputs))) < 0.05


class TestDecayRho:
    def test_matching_pole_sets_give_zero(self):
        assert decay_rho(EX1_POLES, EX1_POLES) < 1e-14

    def test_single_real_mismatch(self):
        np.testing.assert_allclose(
            decay_rho(np.array([0.0 + 0j]), np.array([0.5 + 0j])), 0.5,
            atol=1e-14)

    def test_swap_symmetry(self):
        p, xi = 0.4 + 0.2j, 0.1 - 0.5j
        f1 = abs((p - xi) / (1 - p * xi))
        f2 = abs((xi - p) / (1 - xi * p))
        assert abs(f1 - f2) < 1e-15

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_stable_conjugate_closed_sets_give_rho_below_one(self, seed):
        rng = np.random.default_rng(seed)
        def random_closed(n_real, n_pair):
            reals = rng.uniform(-0.95, 0.95, n_real)
            mags = rng.uniform(0.05, 0.95, n_pair)
            angs = rng.uniform(0.05, np.pi - 0.05, n_pair)
            pairs = mags * np.exp(1j * angs)
            return np.concatenate([reals.astype(complex), pairs, np.conj(pairs)])

        bank_poles = random_closed(1, 1)
        target = random_closed(1, 1)
        rho = decay_rho(bank_poles, target)
        assert 0.0 <= rho < 1.0


class TestProjection:
    def test_basis_member_projects_onto_itself(self):
        bank = build_bank(np.array([-0.3 + 0j, 0.5 + 0j]), n_rep=1)
        # F_2 as an explicit rational function (see output test above)
        f2 = RationalTF(
            b=np.sqrt(1 - 0.25) * np.convolve([0.0, 1.0], [0.3, 1.0]),
            a=np.convolve([1.0, -0.5], [1.0, 0.3]))
        res = project_expansion(f2, bank)
        np.testing.assert_allclose(res.coefficients[2], 1.0, atol=1e-10)
        assert np.all(np.abs(np.delete(res.coefficients, 2)) < 1e-10)
        assert res.residual_sup < 1e-10

    def test_exact_span_with_matching_poles(self):
        bank = build_bank(EX1_POLES, n_rep=1)
        res = project_expansion(EX1, bank)
        assert res.residual_sup < 1e-8
        assert decay_rho(bank.base_poles, EX1_POLES) < 1e-14

    def test_strictly_proper_target_with_matching_poles(self):
        g_sp = RationalTF(b=EX1.b - (EX1.b[0] / EX1.a[0]) * EX1.a, a=EX1.a)
        res = project_expansion(g_sp, bank := build_bank(EX1_POLES, 1))
        assert res.residual_sup < 1e-8

    def test_geometric_decay_against_rho(self):
        """Perturbed bank poles: residual ratios track the mismatch factor."""
        perturbed = EX1_POLES + 0.01 * EX1_POLES / np.abs(EX1_POLES)
        rho = decay_rho(perturbed, EX1_POLES)
        assert 0 < rho < 1
        residuals = project_expansion(EX1, build_bank(perturbed, 4)).residual_by_rep
        for r in (2, 3, 4):
            ratio = residuals[r] / residuals[r - 1]
            assert ratio < 3.0 * rho
            assert ratio > rho / 3.0

    def test_lower_repetitions_are_leading_channel_fits(self):
        """residual_by_rep[r] of a bank is the residual of the bank with r
        repetitions."""
        perturbed = EX1_POLES * (1.0 + 0.01 / np.abs(EX1_POLES))
        by_rep = project_expansion(EX1, build_bank(perturbed, 4)).residual_by_rep
        for r in range(5):
            assert project_expansion(EX1, build_bank(perturbed, r)).residual_sup \
                == by_rep[r]

    def test_unstable_target_rejected(self):
        bad = RationalTF(b=np.array([1.0]), a=np.array([1.0, -1.5]))
        with pytest.raises(UnstableFilterError):
            project_expansion(bad, build_bank(EX1_POLES, 1))

    def test_residual_rate_with_estimated_poles(self):
        """Banks built from identification-grade pole estimates approximate
        the linear block with sup-residuals decaying like N_F^(-n_rep/2)."""
        from wiener_gobf.bla import estimate_frf, fit_rational, stabilize_poles
        from wiener_gobf.experiments import example1_system, fit_loglog_slope
        from wiener_gobf.pipeline import simulate

        system = example1_system()
        grid = (170, 682, 2730, 10922)
        residuals = {1: {nf: [] for nf in grid}, 2: {nf: [] for nf in grid}}
        for trial in range(6):
            for nf in grid:
                u = generate_multisine(MultisineSpec(
                    n_samples=6 * nf, n_freqs=nf, seed=7000 + 31 * trial + nf))
                _, y = simulate(system, u)
                fit = fit_rational(estimate_frf(u, y), n_a=3, n_b=3)
                bank = build_bank(stabilize_poles(fit.poles), 2)
                by_rep = project_expansion(system.g, bank).residual_by_rep
                residuals[1][nf].append(by_rep[1])
                residuals[2][nf].append(by_rep[2])
        for n_rep in (1, 2):
            means = [(nf, np.mean(residuals[n_rep][nf])) for nf in grid]
            slope, _, _ = fit_loglog_slope(means)
            assert abs(slope - (-n_rep / 2)) < 0.3, \
                f"n_rep={n_rep}: residual slope {slope:+.3f}"
