import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from wiener_gobf.bla import stabilize_poles
from wiener_gobf.errors import InvalidSpecError
from wiener_gobf.gobf import build_bank, transient_length
from wiener_gobf.ratfun import RationalTF, filter_time, freq_response, poles
from wiener_gobf.signals import MultisineSpec, SignalRecord, generate_multisine

EX1 = RationalTF(b=np.array([1.0, 3.0, 3.0, 1.0]),
                 a=np.array([1.0, -2.1, 1.9, -0.7]))


def random_stable_tf(seed, n=3):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.9, 0.9, n)
    z = rng.uniform(-0.9, 0.9, n)
    return RationalTF(b=1.7 * np.poly(z), a=np.poly(p))


def aperiodic(u: SignalRecord) -> SignalRecord:
    """The same samples as a record without periodicity: filtered from rest."""
    return SignalRecord(samples=u.samples)


def assert_conjugate_closed(p):
    """The pole set equals its own conjugate set exactly, not to a tolerance."""
    np.testing.assert_array_equal(np.sort_complex(p), np.sort_complex(p.conj()))


# (modulus, angle, real): the real pole +-modulus, signed as cos(angle), or
# the conjugate pair modulus*exp(+-j angle).
pole_specs = st.lists(
    st.tuples(st.floats(min_value=0.05, max_value=0.95),
              st.floats(min_value=0.0, max_value=np.pi), st.booleans()),
    min_size=1, max_size=4)


class TestFreqResponse:
    def test_example1_dc_gain(self):
        # (1+3+3+1) / (1-2.1+1.9-0.7) = 8 / 0.1
        np.testing.assert_allclose(freq_response(EX1, [0.0])[0], 80.0, rtol=1e-10)

    def test_unity_tf(self):
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0]))
        om = np.linspace(0, np.pi, 20)
        np.testing.assert_allclose(freq_response(tf, om), 1.0, rtol=1e-14)

    def test_pure_delay(self):
        tf = RationalTF(b=np.array([0.0, 1.0]), a=np.array([1.0]))
        om = np.linspace(0.1, 3.0, 15)
        h = freq_response(tf, om)
        np.testing.assert_allclose(h, np.exp(-1j * om), rtol=1e-14)
        np.testing.assert_allclose(np.abs(h), 1.0, rtol=1e-14)

    def test_singularity_raises(self):
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0, -1.0]))
        with pytest.raises(InvalidSpecError, match="vanishes"):
            freq_response(tf, [0.0])


class TestFilterTime:
    def test_identity_filter(self):
        u = generate_multisine(MultisineSpec(n_samples=64, n_freqs=10, seed=1))
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0]))
        y = filter_time(tf, u)
        np.testing.assert_allclose(y.samples, u.samples, atol=1e-12)

    def test_delay_is_circular_shift_in_periodic_mode(self):
        u = generate_multisine(MultisineSpec(n_samples=64, n_freqs=10, seed=2))
        tf = RationalTF(b=np.array([0.0, 1.0]), a=np.array([1.0]))
        y = filter_time(tf, u)
        np.testing.assert_allclose(y.samples, np.roll(u.samples, 1), atol=1e-12)

    def test_periodic_equals_settled_zero_initial(self):
        """After the transient decays, the recursion from rest on the
        aperiodic copy reaches the exact steady state computed in the
        frequency domain on the periodic record."""
        one = generate_multisine(MultisineSpec(n_samples=1020, n_freqs=170, seed=3))
        four = SignalRecord(samples=np.tile(one.samples, 4), periodic=True,
                            period_samples=1020)
        y_per = filter_time(EX1, four)
        y_rec = filter_time(EX1, aperiodic(four))
        last = slice(3 * 1020, 4 * 1020)
        dev = np.max(np.abs(y_per.samples[last] - y_rec.samples[last]))
        assert dev < 1e-8 * np.max(np.abs(y_per.samples))

    def test_linear_in_input(self):
        rng = np.random.default_rng(3)
        u1 = SignalRecord(rng.standard_normal(256), periodic=True)
        u2 = SignalRecord(rng.standard_normal(256), periodic=True)
        tf = random_stable_tf(7)
        mix = SignalRecord(2.0 * u1.samples - 0.5 * u2.samples, periodic=True)
        for kind in (lambda u: u, aperiodic):
            lhs = filter_time(tf, kind(mix)).samples
            rhs = (2.0 * filter_time(tf, kind(u1)).samples
                   - 0.5 * filter_time(tf, kind(u2)).samples)
            scale = np.max(np.abs(lhs))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(scale, 1.0))

    def test_unstable_filter_rejected_in_periodic_mode(self):
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0, -1.2]))
        u = generate_multisine(MultisineSpec(n_samples=64, n_freqs=8, seed=1))
        with pytest.raises(InvalidSpecError, match="stable filter"):
            filter_time(tf, u)

    def test_aperiodic_record_filtered_from_rest(self):
        u = generate_multisine(MultisineSpec(n_samples=256, n_freqs=40, seed=4))
        y = filter_time(EX1, aperiodic(u))
        assert not y.periodic
        assert np.array_equal(y.samples, lfilter(EX1.b, EX1.a, u.samples))


class TestRoots:
    def test_single_real_pole(self):
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0, -0.5]))
        np.testing.assert_allclose(poles(tf), [0.5], atol=1e-14)

    def test_example1_poles_reconstruct_polynomial(self):
        ps = poles(EX1)
        assert len(ps) == 3
        rebuilt = np.real(np.poly(ps))
        np.testing.assert_allclose(rebuilt, EX1.a, atol=1e-10)
        assert_conjugate_closed(ps)

    def test_pure_imaginary_pair(self):
        tf = RationalTF(b=np.array([1.0]), a=np.array([1.0, 0.0, 0.25]))
        got = np.sort_complex(poles(tf))
        # roots of z^2 + 0.25 by the quadratic formula
        expected = np.sort_complex(np.array([0.5j, -0.5j]))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @given(pole_specs, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_closure_is_exact(self, specs, cut):
        """Poles of a stable real transfer function are exactly conjugate
        closed, stay so when stabilize_poles reflects pairs back inside the
        unit circle, and make a bank."""
        roots = []
        for modulus, angle, real in specs:
            roots += [modulus if angle < np.pi / 2 else -modulus] if real else \
                [modulus * np.exp(1j * angle), modulus * np.exp(-1j * angle)]
        tf = RationalTF(b=np.array([1.0]), a=np.real(np.poly(roots)))
        ps = poles(tf)
        assert len(ps) == len(roots)
        assert_conjugate_closed(ps)

        outside = np.where(np.abs(ps) > cut, 1.0 / np.conj(ps), ps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stable = stabilize_poles(outside)
        assert np.all(np.abs(stable) < 1.0)
        assert_conjugate_closed(stable)
        assert build_bank(stable, n_rep=1).n_base == len(roots)

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(InvalidSpecError):
            RationalTF(b=np.array([1.0]), a=np.array([0.0, 1.0]))


class TestTransient:
    """Start-up transient of filtering from rest, estimated from the
    poles of the basis bank that does the filtering."""

    def test_geometric_decay_length(self):
        bank = build_bank(np.array([0.5 + 0.0j]), n_rep=1)
        t = transient_length(bank, 4000)
        # 0.5^k falls below 1e-8 after ~27 steps
        assert 20 <= t <= 40

    def test_capped_at_quarter_record(self):
        bank = build_bank(np.array([0.9999 + 0.0j]), n_rep=1)
        assert transient_length(bank, 400) == 100
