import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmvel.core import EmpiricalMeasure
from bohmvel.errors import InvalidInputError
from bohmvel.stats import (
    ks_critical_value,
    ks_distance,
    ks_two_sample_1d,
    ks_vs_cdf_1d,
    ks_w1_1d,
    wasserstein1_1d,
)


def uniform_measure(values):
    return EmpiricalMeasure.from_samples(np.asarray(values, dtype=float))


class TestKS:
    def test_identical_measures(self):
        m = uniform_measure([0.0, 1.0, 2.0])
        assert ks_distance(m, m)[0] == pytest.approx(0.0, abs=1e-15)

    def test_point_masses(self):
        a = uniform_measure([0.0])
        b = uniform_measure([1.0])
        assert ks_distance(a, b)[0] == pytest.approx(1.0)

    def test_gaussian_shift_value(self):
        # sup_x |Phi(x) - Phi(x - 0.5)| = 2 Phi(0.25) - 1 = 0.19741...
        rng = np.random.default_rng(11)
        n = 20_000
        a = uniform_measure(rng.normal(0.0, 1.0, n))
        b = uniform_measure(rng.normal(0.5, 1.0, n))
        assert ks_distance(a, b)[0] == pytest.approx(0.19741265, abs=0.02)

    def test_matches_scipy_two_sample(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=500)
        b = rng.normal(0.3, 1.3, size=400)
        ours = ks_two_sample_1d(a, np.ones(500), b, np.ones(400))
        ref = scipy.stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_matches_scipy_one_sample(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=400)
        ours = ks_vs_cdf_1d(a, np.ones(400), scipy.stats.norm.cdf)
        ref = scipy.stats.kstest(a, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_weighted_duplicates_equal_unweighted(self):
        # Doubling a sample's weight must equal listing it twice.
        a_vals = np.array([0.0, 1.0, 2.0])
        a_w = np.array([2.0, 1.0, 1.0])
        a_dup = np.array([0.0, 0.0, 1.0, 2.0])
        b = np.array([0.5, 1.5])
        d1 = ks_two_sample_1d(a_vals, a_w, b, np.ones(2))
        d2 = ks_two_sample_1d(a_dup, np.ones(4), b, np.ones(2))
        assert d1 == pytest.approx(d2, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ks_two_sample_1d(np.array([]), np.array([]), np.array([1.0]), np.array([1.0]))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=64), rng.normal(size=100)
        wa, wb = np.ones(64), np.ones(100)
        assert ks_two_sample_1d(a, wa, b, wb) == pytest.approx(
            ks_two_sample_1d(b, wb, a, wa), abs=1e-15
        )


class TestWasserstein:
    def test_identical(self):
        m = uniform_measure([0.0, 1.0])
        assert wasserstein1_1d(m, m) == pytest.approx(0.0, abs=1e-15)

    def test_point_masses(self):
        assert wasserstein1_1d(uniform_measure([0.0]), uniform_measure([2.5])) == pytest.approx(2.5)

    def test_normal_translation(self):
        rng = np.random.default_rng(12)
        n = 20_000
        a = uniform_measure(rng.normal(0.0, 1.0, n))
        b = uniform_measure(rng.normal(0.8, 1.0, n))
        assert wasserstein1_1d(a, b) == pytest.approx(0.8, abs=0.03)

    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=300)
        b = rng.normal(1.0, 2.0, size=500)
        ours = wasserstein1_1d(uniform_measure(a), uniform_measure(b))
        ref = scipy.stats.wasserstein_distance(a, b)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestKsW1:
    def test_one_sort_is_bitwise_the_two_metrics(self):
        # Rounded draws tie within and across the samples; the weights are
        # uneven and do not sum to one before normalization.
        rng = np.random.default_rng(14)
        a = EmpiricalMeasure.from_samples(np.round(rng.normal(size=3000), 1), rng.uniform(0.5, 1.5, 3000))
        b = EmpiricalMeasure.from_samples(np.round(rng.normal(0.2, 1.0, 7000), 1), rng.uniform(0.5, 1.5, 7000))
        ks, w1 = ks_w1_1d(a, b)
        assert ks == ks_two_sample_1d(a.samples[:, 0], a.weights, b.samples[:, 0], b.weights)
        assert w1 == wasserstein1_1d(a, b)

    def test_needs_1d_measures(self):
        with pytest.raises(InvalidInputError, match="1D measures"):
            ks_w1_1d(uniform_measure(np.zeros((3, 2))), uniform_measure([0.0]))


@given(c=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_wasserstein_translation_identity(c):
    rng = np.random.default_rng(17)
    vals = rng.normal(size=200)
    a = uniform_measure(vals)
    b = uniform_measure(vals + c)
    assert wasserstein1_1d(a, b) == pytest.approx(abs(c), abs=1e-12)


class TestCompareMeasures:
    def test_mixture_refinement_monotonicity(self):
        rng = np.random.default_rng(30)
        a = uniform_measure(rng.normal(size=400))
        b = uniform_measure(rng.normal(size=300))
        c = uniform_measure(rng.normal(size=300))
        mix = EmpiricalMeasure.from_samples(
            np.concatenate([b.samples, c.samples]),
            np.concatenate([0.5 * b.weights, 0.5 * c.weights]),
        )
        d_mix = ks_distance(a, mix)[0]
        assert d_mix <= max(ks_distance(a, b)[0], ks_distance(a, c)[0]) + 1e-12


def test_critical_value_shapes():
    assert ks_critical_value(10_000, 10_000, 0.01) == pytest.approx(0.02302, abs=1e-4)
    assert ks_critical_value(10_000, alpha=0.01) == pytest.approx(0.01628, abs=1e-4)
