import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmvel.core import EmpiricalMeasure
from bohmvel.errors import InvalidInputError
from bohmvel.stats import (
    _quantiles,
    ks_critical_value,
    ks_distance,
    ks_two_sample_1d,
    ks_vs_cdf_1d,
    ks_w1_1d,
    wasserstein1_1d,
)

from oracles import stable_ks_two_sample, stable_ks_vs_cdf, stable_w1


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


def _sort_cases():
    rng = np.random.default_rng(41)
    normal = rng.normal(size=3000), rng.normal(0.1, 1.0, 5000)
    ones = np.ones(3000), np.ones(5000)
    uneven = rng.uniform(0.5, 1.5, 3000), rng.uniform(0.5, 1.5, 5000)
    # Values on a coarse lattice tie within and across the samples; the
    # lattice holds 0.0, negated in b, so 0.0 meets -0.0.
    coarse = np.round(rng.normal(size=3000), 1), -np.round(rng.normal(size=5000), 1)
    return {
        "no_ties": (normal[0], ones[0], normal[1], ones[1]),
        "no_ties_uneven_weights": (normal[0], uneven[0], normal[1], uneven[1]),
        "ties_across": (coarse[0], ones[0], coarse[1], ones[1]),
        "ties_across_uneven_weights": (coarse[0], uneven[0], coarse[1], uneven[1]),
        "signed_zeros": (
            np.array([0.0, -0.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0, 4.0]),
            np.array([-0.0, 0.0, -1.0]), np.array([3.0, 1.0, 2.0]),
        ),
        # Found by a search over small integer samples: numpy 2.4's default
        # argsort (AVX-512) orders both tie groups unlike the stable sort,
        # and KS and W1 then differ in their last bit from the stable sums.
        "default_order_differs": (
            np.array([2.0, 0.0, 0.0]), np.array([2.0, 3.0, 2.0]),
            np.array([2.0, 0.0, 0.0]), np.array([3.0, 1.0, 2.0]),
        ),
    }


SORT_CASES = _sort_cases()


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()


class TestStableSort:
    """Every metric reads the same bits as sums along the stable
    (mergesort) order, whichever sort finds that order."""

    @pytest.mark.parametrize("case", sorted(SORT_CASES))
    def test_two_sample_metrics(self, case):
        a_v, a_w, b_v, b_w = SORT_CASES[case]
        a = EmpiricalMeasure.from_samples(a_v, a_w)
        b = EmpiricalMeasure.from_samples(b_v, b_w)
        ks = stable_ks_two_sample(a_v, a_w, b_v, b_w)
        assert _bits(ks_two_sample_1d(a_v, a_w, b_v, b_w)) == _bits(ks)
        want = (stable_ks_two_sample(a_v, a.weights, b_v, b.weights), stable_w1(a_v, a.weights, b_v, b.weights))
        assert _bits(wasserstein1_1d(a, b)) == _bits(want[1])
        assert _bits(*ks_w1_1d(a, b)) == _bits(*want)

    @pytest.mark.parametrize("case", sorted(SORT_CASES))
    def test_sample_against_a_cdf(self, case):
        a_v, a_w, b_v, b_w = SORT_CASES[case]
        values, weights = np.concatenate([a_v, b_v]), np.concatenate([a_w, b_w])

        def logistic(x):
            return 1.0 / (1.0 + np.exp(-x))

        got = ks_vs_cdf_1d(values, weights, logistic)
        assert _bits(got) == _bits(stable_ks_vs_cdf(values, weights, logistic))


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


QUANTILE_LEVELS = (0.5, 0.9, 0.99)


def _quantile_cases():
    rng = np.random.default_rng(37)
    cases = {
        "n1": np.array([0.3]),
        "n2": np.array([0.7, 0.2]),
        "ties": rng.integers(0, 4, 57).astype(float),
        # (n - 1) q is an integer at every level: 100 (n - 1) = 9900 q.
        "integer_index": rng.random(101),
        "integer_index_with_ties": np.repeat(rng.random(11), 91)[:1001],
        "tiny_scale": 1e-12 * rng.random(333),
        "large_scale": 10.0 * rng.standard_normal(2999),
        "signed_zeros": np.array([0.0, -0.0, 0.0, 1.0, -0.0]),
    }
    cases.update({f"random_{n}": rng.exponential(size=n) for n in rng.integers(1, 3000, 12)})
    return cases


@pytest.mark.parametrize("name", list(_quantile_cases()))
def test_quantiles_are_bitwise_numpy_quantile(name):
    values = _quantile_cases()[name]
    got = _quantiles(values.copy(), QUANTILE_LEVELS)
    want = [float(np.quantile(values, q)) for q in QUANTILE_LEVELS]
    assert _bits(*got) == _bits(*want)
    assert all(type(x) is float for x in got)
