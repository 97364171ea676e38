"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see the
lines for passing criteria as well).

Criteria 6 and 7 are known-red: they require a static polynomial model of
the input to sit at the output-noise floor of a system whose linear block
differs from unity.  A static model cannot absorb the dynamic deviation
(G - 1)u, whose contribution to the output power (~0.047 here) exceeds the
noise power (0.01), so its NRMSE is ~2x the noise floor and it essentially
never wins the validation comparison.  The checks are kept at their stated
thresholds rather than weakened; the supplementary test below demonstrates
the same noise-floor/selection phenomenon on the two smallest dynamic
models, where it does hold.
"""

import numpy as np
import pytest

from wiener_gobf.bla import estimate_frf, fit_rational, stabilize_poles
from wiener_gobf.experiments import (
    CONVERGENCE,
    NOISE,
    StudyConfig,
    example1_system,
    example2_polynomial_system,
    example2_system,
    fit_loglog_slope,
    run_study,
)
from wiener_gobf.gobf import (
    bank_outputs,
    build_bank,
    decay_rho,
    gram_matrix,
    project_expansion,
)
from wiener_gobf.pipeline import (
    IdentifyConfig,
    StaticNonlinearity,
    WienerSystem,
    estimate_intermediate,
    identify,
    nrmse,
    predict,
    simulate,
)
from wiener_gobf.polymodel import HERMITE, MONOMIAL, fit_poly_model, evaluate
from wiener_gobf.ratfun import RationalTF, filter_time, poles
from wiener_gobf.signals import (
    MultisineSpec,
    SignalRecord,
    generate_gaussian,
    generate_multisine,
)

BASE_SEED = 20260808
NF_GRID = (170, 341, 682, 1365, 2730, 5461, 10922)

EX1_G = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                   a=np.array([1.0, -2.1, 1.9, -0.7]))


REPORT_LINES = []


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# Shared Monte-Carlo runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def convergence_result():
    cfg = StudyConfig(kind=CONVERGENCE, system=example1_system(), n_trials=20,
                      base_seed=BASE_SEED, n_freqs_grid=NF_GRID,
                      n_rep_set=(1, 2, 3), validation_n_freqs=10922)
    return run_study(cfg, jobs=2)


@pytest.fixture(scope="module")
def noise_result_static_vs_one():
    cfg = StudyConfig(kind=NOISE, system=example2_polynomial_system(),
                      n_trials=200, base_seed=BASE_SEED + 1, n_rep_set=(0, 1),
                      n_a=2, n_b=2, degree=3, n_samples=1000)
    return run_study(cfg, jobs=2)


@pytest.fixture(scope="module")
def example1_estimated_poles():
    """Pole estimates from one Example-1 identification run."""
    u = generate_multisine(MultisineSpec(n_samples=6 * 682, n_freqs=682,
                                         seed=BASE_SEED + 2))
    _, y = simulate(example1_system(), u)
    fit = fit_rational(estimate_frf(u, y), n_a=3, n_b=3)
    return stabilize_poles(fit.poles)


# ---------------------------------------------------------------------------
# 1. Convergence rates
# ---------------------------------------------------------------------------

def test_criterion_1_convergence_rates(convergence_result):
    """Mean validation sup-error decays as N_F^(-n_rep/2) +- 0.2 in log-log
    slope for one, two, and three repetitions (20 trials, noise free)."""
    slopes = {}
    ok = True
    for n_rep in (1, 2, 3):
        curve = convergence_result.mean_curve("sup_error", n_rep=n_rep)
        slope, _, _ = fit_loglog_slope(list(curve.items()))
        slopes[n_rep] = slope
        ok &= abs(slope - (-n_rep / 2)) <= 0.2
    detail = ", ".join(f"n_rep={r}: slope {s:+.3f} (target {-r/2:+.1f} +- 0.2)"
                       for r, s in slopes.items())
    report("1 (convergence rates)", ok, detail)
    for n_rep, slope in slopes.items():
        assert abs(slope - (-n_rep / 2)) <= 0.2, \
            f"n_rep={n_rep}: slope {slope:+.3f} outside {-n_rep/2} +- 0.2"


def test_criterion_2_pole_estimate_rate(convergence_result):
    """Mean worst-case pole error decays as N_F^(-1/2) +- 0.2 (same runs)."""
    curve = convergence_result.mean_curve("pole_error")
    slope, _, stderr = fit_loglog_slope(list(curve.items()))
    ok = abs(slope + 0.5) <= 0.2
    report("2 (pole-estimate rate)", ok,
           f"slope {slope:+.3f} +- {stderr:.3f} (target -0.5 +- 0.2)")
    assert ok, f"pole-error slope {slope:+.3f} outside -0.5 +- 0.2"


def test_supplementary_repetition_ordering_at_densest_grid(convergence_result):
    """At the densest excitation the two-repetition model beats the
    one-repetition model trial for trial (>= 90% required)."""
    top = max(NF_GRID)
    per_trial = {}
    for r in convergence_result.ok_records:
        if r.n_freqs == top:
            per_trial.setdefault(r.trial, {})[r.n_rep] = r.sup_error
    wins = np.mean([v[2] < v[1] for v in per_trial.values()])
    report("supplementary (n_rep=2 beats n_rep=1 at N_F=10922)", wins >= 0.9,
           f"better in {100*wins:.0f}% of {len(per_trial)} trials")
    assert wins >= 0.9


# ---------------------------------------------------------------------------
# 3. Orthonormality
# ---------------------------------------------------------------------------

def test_criterion_3_orthonormality(example1_estimated_poles):
    """Gram matrix of {F_0..F_n} from estimated poles on a 1e5-point circle
    quadrature: identity to 1e-8; constant-function inner products to 1e-10."""
    worst_gram, worst_const = 0.0, 0.0
    for n_rep in (1, 2, 3, 4):
        bank = build_bank(example1_estimated_poles, n_rep)
        for real_outputs in (False, True):
            g = gram_matrix(bank, n_points=100_000, real_outputs=real_outputs)
            dev = np.max(np.abs(g - np.eye(bank.n_outputs)))
            worst_gram = max(worst_gram, dev)
            worst_const = max(worst_const, np.max(np.abs(g[1:, 0])))
    ok = worst_gram < 1e-8 and worst_const < 1e-10
    report("3 (orthonormality)", ok,
           f"max Gram deviation {worst_gram:.2e} (< 1e-8), "
           f"max <F_l, F_0> {worst_const:.2e} (< 1e-10), n_rep <= 4")
    assert worst_gram < 1e-8
    assert worst_const < 1e-10


# ---------------------------------------------------------------------------
# 4. Exact-span recovery
# ---------------------------------------------------------------------------

def test_criterion_4_exact_span_recovery():
    """Bank built from the true poles spans the linear block exactly, and a
    noise-free linear system is identified to NRMSE < 1e-8 end to end."""
    res = project_expansion(EX1_G, build_bank(poles(EX1_G), 1))

    lti = WienerSystem(g=EX1_G, f=StaticNonlinearity(
        kind="polynomial", coefficients=[0.0, 1.0]))
    u = generate_multisine(MultisineSpec(n_samples=2046, n_freqs=341,
                                         seed=BASE_SEED + 3))
    _, y = simulate(lti, u)
    model = identify(u, y, IdentifyConfig(n_a=3, n_b=3, n_rep=1, degree=1))
    uv = generate_multisine(MultisineSpec(n_samples=2046, n_freqs=341,
                                          seed=BASE_SEED + 4))
    _, yv = simulate(lti, uv)
    err = nrmse(yv, predict(model, uv))

    ok = res.residual_sup < 1e-8 and err < 1e-8
    report("4 (exact-span recovery)", ok,
           f"projection residual {res.residual_sup:.2e} (< 1e-8), "
           f"LTI end-to-end NRMSE {err:.2e} (< 1e-8)")
    assert res.residual_sup < 1e-8
    assert err < 1e-8


# ---------------------------------------------------------------------------
# 5. Geometric decay
# ---------------------------------------------------------------------------

def test_criterion_5_geometric_decay():
    """With bank poles perturbed radially by 0.01, successive-repetition
    residual ratios stay within a factor 3 of the mismatch factor rho."""
    true_ps = poles(EX1_G)
    perturbed = true_ps * (1.0 + 0.01 / np.abs(true_ps))
    rho = decay_rho(perturbed, true_ps)
    residuals = project_expansion(EX1_G, build_bank(perturbed, 4)).residual_by_rep
    ratios = {r: residuals[r] / residuals[r - 1] for r in (2, 3, 4)}
    ok = all(rho / 3 <= ratio <= 3 * rho for ratio in ratios.values())
    detail = f"rho={rho:.4f}; " + ", ".join(
        f"res({r})/res({r-1})={v:.4f}" for r, v in ratios.items())
    report("5 (geometric decay)", ok, detail)
    for r, ratio in ratios.items():
        assert rho / 3 <= ratio <= 3 * rho, \
            f"ratio at n_rep={r} is {ratio:.4f}, outside [{rho/3:.4f}, {3*rho:.4f}]"


# ---------------------------------------------------------------------------
# 6 and 7. Noise floor and model selection with the static model (known red)
# ---------------------------------------------------------------------------

def _noise_stats(result, n_rep_pair):
    lo, hi = n_rep_pair
    by = {r: np.array([x.nrmse for x in result.ok_records if x.n_rep == r])
          for r in n_rep_pair}
    floors = np.array([x.noise_floor for x in result.ok_records
                       if x.n_rep == lo])
    se = np.sqrt(by[lo].var(ddof=1) / len(by[lo])
                 + by[hi].var(ddof=1) / len(by[hi]))
    sel_lo = np.mean([x.selected for x in result.ok_records if x.n_rep == lo])
    return by, float(np.median(floors)), float(se), float(sel_lo)


def test_criterion_6_noise_floor_static_vs_one(noise_result_static_vs_one):
    """Known-red: requires the static model (n_rep=0) and the one-block model
    to agree within 3 standard errors and both medians to sit within 20% of
    the noise floor.  The static model's unexplainable dynamic variance
    (~0.047) exceeds the noise power (0.01), so its median lands near 2x the
    floor; see the module docstring and the nested-model test below."""
    by, floor, se, _ = _noise_stats(noise_result_static_vs_one, (0, 1))
    mean_gap = abs(by[0].mean() - by[1].mean())
    med0, med1 = np.median(by[0]), np.median(by[1])
    ok_means = mean_gap < 3 * se
    ok_medians = abs(med0 - floor) < 0.2 * floor and abs(med1 - floor) < 0.2 * floor
    report("6 (noise floor, n_rep 0 vs 1)", ok_means and ok_medians,
           f"mean gap {mean_gap:.4f} vs 3SE {3*se:.4f}; medians "
           f"{med0:.4f}/{med1:.4f} vs floor {floor:.4f} +- 20%")
    assert ok_means, f"mean NRMSE gap {mean_gap:.4f} exceeds 3 SE ({3*se:.4f})"
    assert ok_medians, (f"medians {med0:.4f}/{med1:.4f} not within 20% of "
                        f"noise floor {floor:.4f}")


def test_criterion_7_model_selection_static_majority(noise_result_static_vs_one):
    """Known-red: requires the validation rule to pick the static model in
    more than 70% of trials; the dynamic model wins almost always because the
    static model cannot represent (G - 1)u (see module docstring)."""
    _, _, _, sel0 = _noise_stats(noise_result_static_vs_one, (0, 1))
    ok = sel0 > 0.7
    report("7 (model selection picks n_rep=0)", ok,
           f"n_rep=0 selected in {100*sel0:.1f}% of trials (required > 70%)")
    assert ok, f"n_rep=0 selected in only {100*sel0:.1f}% of trials"


def test_supplementary_noise_floor_nested_dynamic_models():
    """The noise-floor equivalence and small-model preference do hold between
    the two smallest models that contain the dynamics: both medians within
    20% of the noise-floor oracle, medians within 10% of the floor of each
    other, and the smaller model preferred in the majority of trials."""
    cfg = StudyConfig(kind=NOISE, system=example2_polynomial_system(),
                      n_trials=200, base_seed=BASE_SEED + 5, n_rep_set=(1, 2),
                      n_a=2, n_b=2, degree=3, n_samples=1000)
    result = run_study(cfg, jobs=2)
    by, floor, _, sel1 = _noise_stats(result, (1, 2))
    med1, med2 = np.median(by[1]), np.median(by[2])
    ok = (abs(med1 - floor) < 0.2 * floor and abs(med2 - floor) < 0.2 * floor
          and abs(med1 - med2) < 0.1 * floor and sel1 > 0.5)
    report("supplementary (noise floor, n_rep 1 vs 2)", ok,
           f"medians {med1:.4f}/{med2:.4f} vs floor {floor:.4f}; "
           f"smaller model selected in {100*sel1:.1f}%")
    assert abs(med1 - floor) < 0.2 * floor
    assert abs(med2 - floor) < 0.2 * floor
    assert abs(med1 - med2) < 0.1 * floor
    assert sel1 > 0.5


def test_supplementary_noise_error_independent_of_repetitions():
    """With heavy output noise on multisine data at a fixed dense grid, the
    validation NRMSE is the same for one, two, and three repetitions (all
    model errors are buried in the noise floor): pairwise mean differences
    stay within 3 standard errors."""
    from wiener_gobf.signals import NoiseSpec, rms

    nf, n = 5461, 6 * 5461
    base = example1_system()
    uv = generate_multisine(MultisineSpec(n_samples=n, n_freqs=nf,
                                          seed=BASE_SEED + 20))
    _, yv0 = simulate(base, uv)
    variance = (0.3 * rms(yv0.samples)) ** 2
    noisy = WienerSystem(g=base.g, f=base.f,
                         output_noise=NoiseSpec(variance=variance, seed=0))

    scores = {1: [], 2: [], 3: []}
    for trial in range(6):
        u = generate_multisine(MultisineSpec(
            n_samples=n, n_freqs=nf, seed=BASE_SEED + 30 + trial))
        _, y = simulate(noisy.with_noise_seed(BASE_SEED + 60 + trial), u)
        _, y_val = simulate(noisy.with_noise_seed(BASE_SEED + 90 + trial), uv)
        for n_rep in (1, 2, 3):
            model = identify(u, y, IdentifyConfig(n_a=3, n_b=3,
                                                  n_rep=n_rep, degree=3))
            scores[n_rep].append(nrmse(y_val, predict(model, uv)))

    ok = True
    details = []
    for a, b in ((1, 2), (2, 3), (1, 3)):
        xa, xb = np.array(scores[a]), np.array(scores[b])
        gap = abs(xa.mean() - xb.mean())
        se = np.sqrt(xa.var(ddof=1) / len(xa) + xb.var(ddof=1) / len(xb))
        details.append(f"{a} vs {b}: gap {gap:.5f} vs 3SE {3*se:.5f}")
        ok &= gap < 3 * se
    report("supplementary (noise error independent of n_rep)", ok,
           "; ".join(details))
    assert ok, "; ".join(details)


# ---------------------------------------------------------------------------
# 8. Saturation shape from the intermediate-signal scatter
# ---------------------------------------------------------------------------

def test_criterion_8_saturation_shape():
    """Binned intermediate-signal scatter is monotone nondecreasing (at most
    2 statistically significant drops among 50 quantile bins) with flat
    saturation plateaus at both extremes (< 0.1 of the central slope)."""
    n = 16384
    system = example2_system(noise_variance=0.01, noise_seed=BASE_SEED + 6)
    u = generate_gaussian(n, 1.0, seed=BASE_SEED + 7)
    _, y = simulate(system, u)
    model = identify(u, y, IdentifyConfig(n_a=2, n_b=2, n_rep=1, degree=3,
                                          welch_segment=1024))
    X = bank_outputs(model.bank, u)
    x_hat = estimate_intermediate(model.bank, y, X)

    order = np.argsort(x_hat)
    bins = np.array_split(order, 50)
    centers = np.array([x_hat[b].mean() for b in bins])
    means = np.array([y.samples[b].mean() for b in bins])
    ses = np.array([y.samples[b].std(ddof=1) / np.sqrt(len(b)) for b in bins])

    diffs = np.diff(means)
    se_diff = np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2)
    violations = int(np.sum(diffs < -3.0 * se_diff))

    def seg_slope(sl):
        return np.polyfit(centers[sl], means[sl], 1)[0]

    central = seg_slope(slice(22, 28))
    low_ratio = abs(seg_slope(slice(0, 10)) / central)
    high_ratio = abs(seg_slope(slice(40, 50)) / central)

    ok = violations <= 2 and low_ratio < 0.1 and high_ratio < 0.1
    report("8 (saturation shape)", ok,
           f"{violations} significant drop(s) (<= 2 allowed); plateau/central "
           f"slope ratios {low_ratio:.4f}, {high_ratio:.4f} (< 0.1)")
    assert violations <= 2
    assert low_ratio < 0.1
    assert high_ratio < 0.1


# ---------------------------------------------------------------------------
# 9. Property suite
# ---------------------------------------------------------------------------

def test_criterion_9_property_suite():
    """Determinism of seeded operations, least-squares residual
    orthogonality, monomial/Hermite prediction equivalence, filter linearity,
    and the all-pass unit-modulus identity."""
    checks = {}

    spec = MultisineSpec(n_samples=1020, n_freqs=170, seed=BASE_SEED + 8)
    u1, u2 = generate_multisine(spec), generate_multisine(spec)
    checks["seeded determinism"] = np.array_equal(u1.samples, u2.samples)

    _, y = simulate(example1_system(), u1)
    X = bank_outputs(build_bank(poles(EX1_G), 1), u1)
    model = fit_poly_model(X, y.samples, degree=3, basis=HERMITE)
    from wiener_gobf.polymodel import build_regressors

    psi = build_regressors(X, 3, HERMITE, model.standardization)
    resid = y.samples - psi @ model.coefficients
    col_norms = np.linalg.norm(psi, axis=0)
    checks["LS residual orthogonality"] = bool(
        np.max(np.abs(psi.T @ resid) / (col_norms * np.linalg.norm(y.samples)))
        < 1e-8)

    m_mono = fit_poly_model(X, y.samples, degree=3, basis=MONOMIAL)
    diff = np.max(np.abs(evaluate(m_mono, X) - evaluate(model, X)))
    y_rms = float(np.sqrt(np.mean(y.samples**2)))
    checks["monomial/Hermite equivalence"] = bool(diff < 1e-8 * y_rms)

    ua = generate_multisine(MultisineSpec(n_samples=512, n_freqs=80,
                                          seed=BASE_SEED + 9))
    ub = generate_multisine(MultisineSpec(n_samples=512, n_freqs=80,
                                          seed=BASE_SEED + 10))
    mix = SignalRecord(1.5 * ua.samples - 2.0 * ub.samples, periodic=True,
                       period_samples=512)
    lhs = filter_time(EX1_G, mix).samples
    rhs = (1.5 * filter_time(EX1_G, ua).samples
           - 2.0 * filter_time(EX1_G, ub).samples)
    checks["filter linearity"] = bool(
        np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs)))

    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(200):
        mag, ang = rng.uniform(0, 0.99), rng.uniform(0, 2 * np.pi)
        xi = mag * np.exp(1j * ang)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi))
        worst = max(worst, abs(abs((1 - np.conj(xi) * z) / (z - xi)) - 1.0))
    checks["all-pass unit modulus"] = bool(worst < 1e-12)

    ok = all(checks.values())
    report("9 (property suite)", ok,
           "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}"
                     for k, v in checks.items()))
    for name, passed in checks.items():
        assert passed, f"property violated: {name}"
