"""Distribution-comparison metrics.

All metrics are deterministic for fixed inputs. Kolmogorov-Smirnov
distances support weighted samples in both two-sample and sample-vs-CDF
modes; the 1D Wasserstein distance is the exact quantile coupling of the
two weighted atom sets.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import EmpiricalMeasure
from .errors import InvalidInputError

__all__ = [
    "ks_distance",
    "ks_two_sample_1d",
    "ks_vs_cdf_1d",
    "wasserstein1_1d",
    "ks_w1_1d",
    "ks_critical_value",
    "GRID_SLACK",
]

# Shared by every experiment: the additive slack absorbing grid and
# interpolation bias on top of the sampling-noise critical value.
GRID_SLACK = 0.005


def _trapezoid_cdf(x: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Trapezoid CDF of a density on the nodes x, normalized to 1 at the last node."""
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(x))])
    cdf /= cdf[-1]
    return cdf


def _inverse_cdf(u: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Piecewise-linear inverse of a node CDF at the uniforms u."""
    # Strictly increasing knots are required by interp; collapse flats.
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    return np.interp(u, cdf[keep], x[keep])


def _merged_cdf_differences(a_values, b_values, *weights):
    """The two samples merged and stably sorted, and along them, for each
    (a_weights, b_weights) pair, the running sum of a's weights minus b's."""
    values = np.concatenate([a_values, b_values])
    order = np.argsort(values, kind="mergesort")
    diffs = [np.concatenate([a_w, -b_w])[order] for a_w, b_w in weights]
    return values[order], [np.cumsum(d, out=d) for d in diffs]


def _ks_sup(values, cdf_diff) -> float:
    # At tied values the CDF difference is only meaningful after the whole
    # tie group has been accumulated. |cdf_diff| is taken in place.
    distinct = np.ones(values.size, dtype=bool)
    np.greater(values[1:], values[:-1], out=distinct[:-1])
    return float(np.max(np.abs(cdf_diff, out=cdf_diff), where=distinct, initial=0.0))


def _w1(values, cdf_diff) -> float:
    return float(np.sum(np.abs(cdf_diff[:-1]) * np.diff(values)))


def ks_two_sample_1d(
    a_values: np.ndarray,
    a_weights: np.ndarray,
    b_values: np.ndarray,
    b_weights: np.ndarray,
) -> float:
    """Sup distance between two weighted empirical CDFs on the line."""
    a_values = np.asarray(a_values, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    if a_values.size == 0 or b_values.size == 0:
        raise InvalidInputError("empty sample in KS computation")
    values, (cdf_diff,) = _merged_cdf_differences(
        a_values, b_values, (a_weights / a_weights.sum(), b_weights / b_weights.sum())
    )
    return _ks_sup(values, cdf_diff)


def ks_vs_cdf_1d(
    values: np.ndarray,
    weights: np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Sup distance between a weighted empirical CDF and a target CDF."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InvalidInputError("empty sample in KS computation")
    order = np.argsort(values, kind="mergesort")
    values = values[order]
    w = np.asarray(weights, dtype=float)[order]
    w = w / w.sum()
    emp_after = np.cumsum(w)
    emp_before = emp_after - w
    target = np.asarray(cdf(values), dtype=float)
    return float(max(np.max(np.abs(emp_after - target)), np.max(np.abs(emp_before - target))))


def ks_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> np.ndarray:
    """Per-axis two-sample KS distance between two measures."""
    if a.dim != b.dim:
        raise InvalidInputError("measures have different dimensions")
    return np.asarray(
        [
            ks_two_sample_1d(a.samples[:, i], a.weights, b.samples[:, i], b.weights)
            for i in range(a.dim)
        ]
    )


def wasserstein1_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W1 between two weighted measures on the line.

    Computed as the integral of |F_a - F_b| over the merged support,
    which coincides with the optimal quantile coupling in 1D.
    """
    if a.dim != 1 or b.dim != 1:
        raise InvalidInputError("wasserstein1_1d requires 1D measures (apply per axis)")
    values, (cdf_diff,) = _merged_cdf_differences(a.samples[:, 0], b.samples[:, 0], (a.weights, b.weights))
    return _w1(values, cdf_diff)


def ks_w1_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> tuple[float, float]:
    """``ks_two_sample_1d`` and ``wasserstein1_1d`` of two measures on the
    line, bitwise, from one sort of the merged sample."""
    if a.dim != 1 or b.dim != 1:
        raise InvalidInputError("ks_w1_1d requires 1D measures (apply per axis)")
    ks_weights = (a.weights / a.weights.sum(), b.weights / b.weights.sum())
    values, (ks_diff, w1_diff) = _merged_cdf_differences(
        a.samples[:, 0], b.samples[:, 0], ks_weights, (a.weights, b.weights)
    )
    return _ks_sup(values, ks_diff), _w1(values, w1_diff)


def ks_critical_value(n_a: int, n_b: int | None = None, alpha: float = 0.01) -> float:
    """Asymptotic KS critical value at level alpha (two-sample if n_b given)."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    if n_b is None:
        return c / math.sqrt(n_a)
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))
