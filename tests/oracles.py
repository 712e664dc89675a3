"""Independent oracles for the test suite.

Everything here is derived from closed forms or from methods disjoint
from the code paths under test (analytic Gaussian integrals, the
time-independent transfer matrix, explicit boost formulas for velocities
and sampled world lines, the causal condition on sampled world lines, the
monotone transport map of a 1D flow and its limiting velocities, the
KS and W1 sums along an always-stable sort), so agreement is evidence
rather than tautology. The one exception is
``boost_residual``: it runs the package's limiting-velocity fit on both
sides of the independent world-line boost, because what it tests is that
the fit commutes with the boost.
"""

from __future__ import annotations

import numpy as np

from bohmvel.asymptotics import estimate_asymptotic_measure
from bohmvel.core import SampledTrajectory
from bohmvel.relativity import transform_velocity_block


def gaussian_width(t, m=1.0, sigma0=1.0):
    """Spreading law sigma(t) = sigma0 sqrt(1 + (t / 2 m sigma0^2)^2)."""
    tau = 2.0 * m * sigma0**2
    return sigma0 * np.sqrt(1.0 + (t / tau) ** 2)


def free_gaussian_trajectory(x0, t, m=1.0, sigma0=1.0, center0=0.0, p0=0.0):
    """Guided trajectory through a free Gaussian: the offset from the
    moving packet center scales with the spreading width."""
    center = center0 + p0 * t / m
    return center + (x0 - center0) * gaussian_width(t, m, sigma0) / sigma0


def free_gaussian_velocity(x, t, m=1.0, sigma0=1.0):
    """Guiding field of a centered free Gaussian: v = x t / (tau^2 + t^2)."""
    tau = 2.0 * m * sigma0**2
    return x * t / (tau**2 + t**2)


def free_gaussian_psi(x, t, m=1.0, sigma0=1.0, x0=0.0, p0=0.0):
    """Exact free evolution of a normalized Gaussian packet.

    Evaluated as the closed-form complex-Gaussian momentum integral of
    psi_hat_0(p) exp(i p x - i p^2 t / 2m); no FFT involved.
    """
    x = np.asarray(x, dtype=float)
    a = sigma0**2 + 0.5j * t / m
    b = 2.0 * sigma0**2 * p0 + 1j * (x - x0)
    pref = (2.0 * sigma0**2 / np.pi) ** 0.25 / np.sqrt(2.0 * np.pi)
    return pref * np.sqrt(np.pi / a) * np.exp(b**2 / (4.0 * a) - sigma0**2 * p0**2)


# Spectral refinement factor of the transport oracle: refined 64 times,
# the quantile map is 2.3e-5 off the closed-form free-Gaussian trajectory
# at t = 20 within 3 sigma0 (test_transport_oracle_matches_closed_form),
# and 4.7e-5 at t = 40.
TRANSPORT_REFINEMENT = 64
# Start quantiles the transport oracle is gated on: the central 99.73%
# (3 sigma of a Gaussian). The map's error is delta F / rho_t, so it is
# ill-conditioned in the low-density tails.
CENTRAL_BAND = (0.00135, 0.99865)


def refined_cdf(amplitudes, x_min, dx):
    """Fine grid and normalized CDF of |psi|^2, refined spectrally.

    ``amplitudes`` has shape (n,) (scalar) or (2, n) (spinor; the
    component densities are summed) on the periodic grid x_min + dx k.
    Every component's spectrum is zero-padded to r n modes, r =
    TRANSPORT_REFINEMENT (the Nyquist mode split evenly between +/- n/2),
    so the fine samples are the band-limited interpolant of the grid
    values; the CDF is the cumulative trapezoid rule over
    [x_min, x_min + n dx], closed periodically.
    """
    r = TRANSPORT_REFINEMENT
    amps = np.atleast_2d(np.asarray(amplitudes, dtype=complex))
    n = amps.shape[1]
    half = n // 2
    hat = np.fft.fft(amps, axis=1)
    padded = np.zeros((amps.shape[0], r * n), dtype=complex)
    padded[:, :half] = hat[:, :half]
    padded[:, -half + 1 :] = hat[:, half + 1 :]
    padded[:, half] = 0.5 * hat[:, half]
    padded[:, -half] = 0.5 * hat[:, half]
    fine = np.fft.ifft(padded, axis=1) * r
    rho = np.sum(np.abs(fine) ** 2, axis=0)
    rho = np.append(rho, rho[0])
    x = x_min + (dx / r) * np.arange(r * n + 1)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]))])
    return x, cdf / cdf[-1]


def transport_oracle(snapshots, starts):
    """Oracle positions of 1D guided trajectories: x(t) = F_t^-1(F_0(x(0))).

    A 1D Bohmian flow keeps the order of the trajectories and carries
    |psi_0|^2 to |psi_t|^2, so each trajectory sits at the quantile of
    |psi_t|^2 that it started at. ``snapshots`` are the wave functions at
    the recorded times (first one at the start time), as an integration
    records them; ``starts`` has shape (n,) or (n, 1). Returns the start
    quantiles, shape (n,), and the oracle positions, shape (n, n_times).
    Uses only the snapshots' amplitudes and grid: no stencil, no RK4 and
    no guiding field.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1)
    out = np.empty((starts.size, len(snapshots)))
    quantiles = None
    for k, psi in enumerate(snapshots):
        x, cdf = refined_cdf(psi.amplitudes, psi.spec.x_min, psi.spec.dx)
        if quantiles is None:
            quantiles = np.interp(starts, x, cdf)
        out[:, k] = np.interp(quantiles, cdf, x)
    return quantiles, out


def transport_oracle_band(integration):
    """Oracle positions of every trajectory of a 1D integration, shape
    (n, n_times), and the mask, shape (n,), of the live trajectories whose
    start quantile lies in CENTRAL_BAND: the starts the oracle is gated on."""
    quantiles, oracle = transport_oracle(integration.snapshots, integration.positions[:, 0, 0])
    inside = (quantiles >= CENTRAL_BAND[0]) & (quantiles <= CENTRAL_BAND[1])
    return inside & ~integration.diagnostics.failed, oracle


def transport_oracle_errors(integration):
    """Largest |x(t) - oracle| at each recorded time over the starts of
    ``transport_oracle_band``; shape (n_times,)."""
    inside, oracle = transport_oracle_band(integration)
    return np.max(np.abs(integration.positions[inside, :, 0] - oracle[inside]), axis=0)


def velocity_oracle(psi0, q_dist, starts):
    """Oracle limiting velocities of 1D guided trajectories:
    v+ = Q_q(F_0(x(0))).

    The flow keeps the order of the trajectories, and their limiting
    velocities are distributed by the quantum velocity distribution
    ``q_dist``, so each trajectory's v+ is the quantile of q_dist that
    it started at: F_0 is the refined CDF of |psi_0|^2 (``refined_cdf``)
    and Q_q the inverse of ``q_dist.cdf`` on its velocity grid, linear
    between grid points. ``starts`` has shape (n,) or (n, 1); returns
    the start quantiles and the oracle velocities, both shape (n,). No
    stencil, RK4 or fit.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1)
    x, cdf = refined_cdf(psi0.amplitudes, psi0.spec.x_min, psi0.spec.dx)
    quantiles = np.interp(starts, x, cdf)
    return quantiles, np.interp(quantiles, q_dist.cdf(q_dist.v), q_dist.v)


def transfer_matrix_transmission(v_func, p, mass=1.0, x_lo=-8.0, x_hi=8.0, n_seg=4000):
    """Transmission coefficients of a 1D short-range potential at the
    momenta p (zero where p^2 / 2m <= 0), by piecewise-constant slicing
    and 2x2 interface-matrix products, one batched over p per slice."""
    p = np.asarray(p, dtype=float)
    energy = p**2 / (2.0 * mass)
    out = np.zeros(p.shape)
    live = energy > 0
    edges = np.linspace(x_lo, x_hi, n_seg + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vs = np.concatenate([[0.0], np.asarray(v_func(mids), dtype=float), [0.0]])
    ks = np.sqrt(2.0 * mass * (energy[live][:, None] - vs) + 0j)
    bounds = np.concatenate([[edges[0]], edges, [edges[-1]]])
    m = np.broadcast_to(np.eye(2, dtype=complex), (ks.shape[0], 2, 2))
    iface = np.empty_like(m)
    for j in range(ks.shape[1] - 1):
        k1, k2, xb = ks[:, j], ks[:, j + 1], bounds[j + 1]
        iface[:, 0, 0] = (k2 + k1) * np.exp(1j * (k1 - k2) * xb)
        iface[:, 0, 1] = (k2 - k1) * np.exp(-1j * (k1 + k2) * xb)
        iface[:, 1, 0] = (k2 - k1) * np.exp(1j * (k1 + k2) * xb)
        iface[:, 1, 1] = (k2 + k1) * np.exp(-1j * (k1 - k2) * xb)
        m = (iface / (2.0 * k2)[:, None, None]) @ m
    out[live] = 1.0 / np.abs(m[:, 1, 1]) ** 2
    return out


def rectangular_barrier_transmission(energy, v0, width, mass=1.0):
    """Closed-form tunneling coefficient for a rectangular barrier (E < V0)."""
    kappa = np.sqrt(2.0 * mass * (v0 - energy))
    return 1.0 / (1.0 + v0**2 * np.sinh(kappa * width) ** 2 / (4.0 * energy * (v0 - energy)))


def boost_velocity_1d(v, u):
    """Collinear relativistic velocity addition (v - u) / (1 - u v)."""
    return (v - u) / (1.0 - u * v)


def random_worldline_polyline(rng, dim=3, max_speed=0.9, n_interior=8, t_interior=10.0):
    """Random Lipschitz-bounded polyline with a long straight tail.

    Interior kinks live on (0, t_interior); beyond that the velocity is
    frozen out to t = 160, long enough that geometric checkpoint ladders
    anchored at the endpoint stay inside the tail even after a moderate
    boost. Returns (times, points) with points of shape (n_nodes, dim).
    """
    interior = np.sort(rng.uniform(0.0, t_interior, n_interior))
    times = np.concatenate([[0.0], interior, [t_interior, 40.0, 160.0]])
    times = np.unique(times)
    n_seg = times.size - 1
    dirs = rng.normal(size=(n_seg, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    speeds = rng.uniform(0.0, max_speed, n_seg)
    vels = dirs * speeds[:, None]
    # Freeze the tail (last two segments share one velocity).
    vels[-1] = vels[-2]
    x0 = rng.uniform(-1.0, 1.0, dim)
    steps = vels * np.diff(times)[:, None]
    points = np.concatenate([x0[None, :], x0 + np.cumsum(steps, axis=0)])
    return times, points


def position_at(times, points, t):
    """Position of the polyline (times, points) at time(s) t, linear
    between samples: shape (d,) for a scalar t, (m, d) for m times."""
    return np.stack([np.interp(t, times, col) for col in np.transpose(points)], axis=-1)


def ndjson_record(times, points) -> dict:
    """The NDJSON record of one trajectory; its line in the file is
    ``json.dumps(record, sort_keys=True)``."""
    return {"times": times.tolist(), "points": points.tolist(), "n": 1, "d": points.shape[1]}


def is_worldline(times, points) -> bool:
    """Causal condition dt^2 - |dk|^2 >= -eps on adjacent samples of one
    polyline, points (T, d), or of a block on one time grid, (n, T, d).

    For a polyline the condition on every pair of samples follows from
    the adjacent ones by the triangle inequality. The checked quantity has
    units of time^2, so eps is 1e-9 times the squared time span (floored
    at 1 to keep short fixtures meaningful).
    """
    eps = 1e-9 * max(1.0, float(times[-1] - times[0])) ** 2
    gap = np.diff(times) ** 2 - np.sum(np.diff(points, axis=-2) ** 2, axis=-1)
    return bool(np.all(gap >= -eps))


def boost_worldline(times, points, u):
    """Image (times, points) of a sampled world line under the boost of
    speed u along x.

    The new time s = gamma (t - u x(t)) must increase along the samples
    (ValueError otherwise); inverting it is linear between samples, the
    exact inverse under the polyline model. The new grid is a uniform
    backbone of twice the sample count over the s-range merged with the
    images of the samples, so kinks survive and the reverse boost returns
    the input to rounding.
    """
    gamma = 1.0 / np.sqrt(1.0 - u * u)
    s = gamma * (times - u * points[:, 0])
    if np.any(np.diff(s) <= 0):
        raise ValueError("reparameterization is not increasing; input is not a world line")
    nodes = np.sort(np.concatenate([np.linspace(s[0], s[-1], 2 * times.size), s]))
    nodes = nodes[np.concatenate([[True], np.diff(nodes) > 1e-12 * max(1.0, s[-1] - s[0])])]
    t_back = np.interp(nodes, s, times)
    out = position_at(times, points, t_back)
    out[:, 0] = gamma * (out[:, 0] - u * t_back)
    return nodes, out


def fitted_velocity(traj, checkpoints):
    """(v+ of shape (d,), fit residual) of one trajectory, from the
    package's ensemble fit at an infinite tolerance."""
    measure, report = estimate_asymptotic_measure([traj], checkpoints, tol=np.inf)
    return measure.samples[0], report.residual_quantiles["max"]


def boost_residual(times, points, u, checkpoints) -> float:
    """|v+ of the world line (times, points) boosted by u - the boost of
    its v+|: zero when boosting commutes with taking the limiting
    velocity.

    The boosted ladder anchors the last checkpoint at its image and keeps
    the geometric ratios (the raw images can compress below the factor-4
    span the fit requires).
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    v_plus, _ = fitted_velocity(SampledTrajectory(times, points), checkpoints)
    gamma = 1.0 / np.sqrt(1.0 - u * u)
    s_last = gamma * (checkpoints[-1] - u * np.interp(checkpoints[-1], times, points[:, 0]))
    boosted = SampledTrajectory(*boost_worldline(times, points, u))
    v_boosted, _ = fitted_velocity(boosted, s_last * checkpoints / checkpoints[-1])
    return float(np.linalg.norm(v_boosted - transform_velocity_block(v_plus[None, :], u)[0]))


def stable_merged_cdf(a_values, a_weights, b_values, b_weights):
    """The merged sample in ``kind="mergesort"`` order, which keeps ties
    in input order (a before b), and along it the running sum of a's
    weights minus b's."""
    values = np.concatenate([a_values, b_values])
    order = np.argsort(values, kind="mergesort")
    return values[order], np.cumsum(np.concatenate([a_weights, -b_weights])[order])


def stable_ks_two_sample(a_values, a_weights, b_values, b_weights) -> float:
    """Two-sample KS of weighted samples (each normalized to total 1),
    read at the last position of each tie group."""
    values, diff = stable_merged_cdf(
        a_values, a_weights / a_weights.sum(), b_values, b_weights / b_weights.sum()
    )
    group_end = np.append(values[1:] > values[:-1], True)
    return float(np.abs(diff)[group_end].max())


def stable_w1(a_values, a_weights, b_values, b_weights) -> float:
    """W1 of two weighted samples: the integral of |F_a - F_b|, summed as
    np.sum over the gaps between merged values."""
    values, diff = stable_merged_cdf(a_values, a_weights, b_values, b_weights)
    return float(np.sum(np.abs(diff[:-1]) * np.diff(values)))


def stable_ks_vs_cdf(values, weights, cdf) -> float:
    """KS of a weighted sample against a CDF, on either side of each atom."""
    order = np.argsort(values, kind="mergesort")
    w = weights[order]
    w = w / w.sum()
    after = np.cumsum(w)
    target = cdf(values[order])
    return float(max(np.abs(after - target).max(), np.abs(after - w - target).max()))
