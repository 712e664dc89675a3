"""Asymptotic velocities of trajectory ensembles and of quantum states.

Trajectory side: the limiting velocity is extrapolated at a geometric
ladder of m checkpoints with a least-squares polynomial in 1/t, justified
by the free-dynamics expansion k(t) = v t + c + d/t + e/t^2 + ...: then
k(t)/t = v + c/t + d/t^2 + ... and the guiding velocity
u(t) = v - d/t^2 - 2e/t^3 - ... has no 1/t term. An integrated ensemble
records u at every recorded time, and the fit takes both rows at each
checkpoint, as in Hermite interpolation: the columns 1, 1/t, ...,
(1/t)^m, 2m rows and m - 1 residual degrees of freedom. A list of
trajectories has positions only, and the fit of k(t)/t alone stays at
degree m - 2: 3 checkpoints give the affine fit, 4 add the 1/t^2 term.
The fit residual at the last two checkpoints is the convergence measure,
and trajectories above tolerance are excluded with recorded weight.

Quantum side: velocity distributions derived from momentum densities,
q(v) = m |psi_hat(m v)|^2 for Schrodinger states (free or via the
outgoing asymptote of a scattering state without a bound part) and the
pushforward of |psi_hat(p)|^2 through v(p) = p / sqrt(p^2 + m^2) for
positive-energy Dirac states.

The rotating family k_v(t) = R(axis, omega t) v t is the stock example
of an ensemble whose instantaneous velocity distribution is stationary
while no single trajectory has a limiting velocity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import EmpiricalMeasure, SampledTrajectory
from .errors import InvalidInputError, RegularityError
from .stats import (
    _inverse_cdf,
    _trapezoid_cdf,
    ks_critical_value,
    ks_w1_1d,
    GRID_SLACK,
)
from .wavefunction import (
    KIND_DIRAC,
    KIND_SCHRODINGER,
    GridWavefunction,
    OutgoingAsymptote,
    momentum_density,
    positive_energy_part,
)

__all__ = [
    "RegularityReport",
    "VelocityDistribution",
    "estimate_asymptotic_measure",
    "velocity_measure_at",
    "free_velocity_distribution",
    "scattering_velocity_distribution",
    "dirac_velocity_distribution",
    "verify_distribution_equality",
    "rotating_trajectory_family",
]

# The convergence residual is measured at this many trailing checkpoints.
_TAIL_CHECKPOINTS = 2
# An ensemble is read this many trajectories at a time, so what the fit
# gathers stays this size however large the ensemble.
_FIT_BLOCK = 1024

REGULARITY_FRACTION = 0.999
HARD_FAILURE_FRACTION = 0.5

# Distribution comparison: KS level of the default threshold and the cap
# on the quantum-side sample count.
_KS_ALPHA = 0.01
_N_Q_MAX = 200_000


@dataclass(frozen=True)
class RegularityReport:
    """Ensemble-level convergence bookkeeping for the limiting velocities."""

    fraction_converged: float
    residual_quantiles: dict
    verdict: bool
    n_total: int
    n_converged: int

    def to_dict(self) -> dict:
        return asdict(self)


def _validate_checkpoints(checkpoints: np.ndarray) -> None:
    if np.any(checkpoints <= 0) or np.any(np.diff(checkpoints) <= 0):
        raise InvalidInputError("checkpoints must be positive and increasing")
    if checkpoints.size < 3:
        raise InvalidInputError("the fit in 1/t needs at least 3 checkpoints")
    if checkpoints[-1] / checkpoints[0] < 4.0 - 1e-9:
        raise InvalidInputError("checkpoints must span a factor >= 4 in time")


def _blocks(trajs):
    """(times, positions (b, T, D), velocities (b, T, D) or None) of each
    block of ``_FIT_BLOCK`` trajectories: the live ones of an integration
    result, or a list on one time grid (positions only; the grid is checked
    once over the whole list). A block of one would change the fit's last
    bits, as einsum then sums in another order, so a remainder of one
    joins the block before it."""
    if hasattr(trajs, "positions"):
        times, vel = trajs.times, trajs.velocities
        failed = trajs.diagnostics.failed
        live = np.flatnonzero(~failed)
        n = live.size

        def block(a, b):
            # With nothing failed the blocks are views, not copies.
            rows = slice(a, b) if n == failed.size else live[a:b]
            return trajs.positions[rows], None if vel is None else vel[rows]
    else:
        trajs = list(trajs)
        n = len(trajs)
        times = trajs[0].times
        dim = trajs[0].dim
        # Ensembles built together share one times object; the identity
        # test spares comparing 10^5 equal grids element by element.
        if not all(t.times is times or np.array_equal(t.times, times) for t in trajs):
            raise InvalidInputError("the trajectories must share one time grid")

        def block(a, b):
            # Only the dimension can differ (every points array has one row
            # per time), and then the concatenate or the reshape raises.
            try:
                pos = np.concatenate([t.points for t in trajs[a:b]])
                return pos.reshape(b - a, times.size, dim), None
            except ValueError:
                dims = ", ".join(map(str, sorted({t.dim for t in trajs})))
                raise InvalidInputError(
                    f"the trajectories must share one dimension, found dimensions {dims}"
                ) from None
    bounds = [0, *range(_FIT_BLOCK, n, _FIT_BLOCK), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    for a, b in zip(bounds, bounds[1:]):
        yield (times, *block(a, b))


def _eta_block(times, pos, vel, checkpoints: np.ndarray):
    """k(t)/t and u(t) at the checkpoints of one block of ``_blocks``: two
    arrays of shape (b, n_cp, D), the second None when ``vel`` is None.
    Both are interpolated linearly between the recorded ``times``, so they
    are exact at checkpoints that are recorded."""
    if checkpoints[0] < times[0] - 1e-12 or checkpoints[-1] > times[-1] + 1e-12:
        raise InvalidInputError("checkpoints outside the recorded time range")
    idx = np.searchsorted(times, checkpoints, side="right") - 1
    idx = np.clip(idx, 0, times.size - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    w = np.where(t1 > t0, (checkpoints - t0) / (t1 - t0), 0.0)

    def at_checkpoints(arr):
        # (1 - w) a + w b, in place on the gathered copies.
        out = arr[:, idx, :]
        out *= (1.0 - w)[None, :, None]
        upper = arr[:, idx + 1, :]
        upper *= w[None, :, None]
        out += upper
        return out

    eta = at_checkpoints(pos)
    eta /= checkpoints[None, :, None]
    return eta, None if vel is None else at_checkpoints(vel)


def _fit_eta(eta: np.ndarray, checkpoints: np.ndarray, vel: np.ndarray | None = None):
    """Least-squares fit in 1/t per trajectory: (v_plus (n, D), residual (n,)).

    The model is k(t) = v t + c + d/t + e/t^2 + ..., so k(t)/t = v + c/t
    + d/t^2 + ... and u(t) = v - d/t^2 - 2e/t^3 - ...: the row of u for
    the column (1/t)^k is -(k - 1)/t^k, the time derivative of
    t (1/t)^k. A ladder of m checkpoints with position rows only is
    fitted with the columns 1, 1/t, ..., (1/t)^(m-2); with velocity rows
    ``vel`` as well, with 1, 1/t, ..., (1/t)^m: m - 1 residual degrees
    of freedom with velocity rows (2m rows, m + 1 unknowns), one without.
    The residual is the largest deviation over the rows of the last
    ``_TAIL_CHECKPOINTS`` checkpoints; k(t)/t is in velocity units, like
    u.
    """
    inv = 1.0 / checkpoints
    columns = [np.ones_like(checkpoints)]
    for _ in range(checkpoints.size - (2 if vel is None else 0)):
        columns.append(columns[-1] * inv)
    design = np.stack(columns, axis=1)
    rows = eta
    if vel is not None:
        design = np.concatenate([design, design * (1.0 - np.arange(len(columns)))])
        rows = np.concatenate([eta, vel], axis=1)
    pinv = np.linalg.pinv(design)
    coef = np.einsum("kc,ncd->nkd", pinv, rows)
    v_plus = coef[:, 0, :].copy()
    # |rows - fit| over D, in place, each array freed once used: velocity
    # rows double these (n, rows, D) arrays.
    dev = np.einsum("ck,nkd->ncd", design, coef)
    del coef
    np.subtract(rows, dev, out=dev)
    del rows
    dev *= dev
    dev = np.add.reduce(dev, axis=2)
    np.sqrt(dev, out=dev)
    dev = dev.reshape(dev.shape[0], dev.shape[1] // checkpoints.size, checkpoints.size)
    residual = np.max(dev[:, :, -_TAIL_CHECKPOINTS:], axis=(1, 2))
    return v_plus, residual


def _fit_trajectories(trajs, checkpoints: np.ndarray):
    """``_fit_eta`` of each block of ``_blocks``: (v_plus (n, D), residual
    (n,)), bitwise the fit of all blocks at once, as each fit is its own."""
    fits = []
    for times, pos, vel in _blocks(trajs):
        eta, vel = _eta_block(times, pos, vel, checkpoints)
        fits.append(_fit_eta(eta, checkpoints, vel))
    v_plus, residual = zip(*fits)
    return np.concatenate(v_plus), np.concatenate(residual)


def estimate_asymptotic_measure(
    trajs,
    checkpoints,
    tol: float,
) -> tuple[EmpiricalMeasure, RegularityReport]:
    """Empirical measure of the converged limiting velocities.

    Non-converged trajectories are excluded with their weight recorded in
    the report; a converged fraction below 0.5 is treated as a broken
    experiment and raises.
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    _validate_checkpoints(checkpoints)
    v_plus, residual = _fit_trajectories(trajs, checkpoints)
    if residual.size == 0:
        raise InvalidInputError("empty ensemble")
    converged = residual <= tol
    n_total = residual.size
    n_conv = int(converged.sum())
    fraction = n_conv / n_total
    quantiles = {
        "q50": float(np.quantile(residual, 0.5)),
        "q90": float(np.quantile(residual, 0.9)),
        "q99": float(np.quantile(residual, 0.99)),
        "max": float(np.max(residual)),
    }
    report = RegularityReport(
        fraction_converged=fraction,
        residual_quantiles=quantiles,
        verdict=bool(fraction >= REGULARITY_FRACTION),
        n_total=n_total,
        n_converged=n_conv,
    )
    if fraction < HARD_FAILURE_FRACTION:
        raise RegularityError(
            f"only {fraction:.1%} of trajectories have limiting velocities; "
            "the experiment setup is inconsistent with asymptotic regularity",
            report=report,
        )
    measure = EmpiricalMeasure.from_samples(v_plus[converged])
    return measure, report


def velocity_measure_at(trajs, t: float) -> EmpiricalMeasure:
    """Instantaneous empirical measure of k(t)/t over the ensemble.

    By construction this equals the pushforward of the position cloud at
    time t through division by t, sample by sample.
    """
    if t <= 0:
        raise InvalidInputError("velocity measures are defined for t > 0")
    t = np.asarray([t], dtype=float)
    samples = [_eta_block(times, pos, None, t)[0][:, 0] for times, pos, _ in _blocks(trajs)]
    return EmpiricalMeasure.from_samples(np.concatenate(samples))


@dataclass(frozen=True)
class VelocityDistribution:
    """1D velocity density on a grid.

    The density is trapezoid-normalized on its (possibly non-uniform)
    grid; sampling inverts the piecewise-linear CDF, which is exactly the
    distribution that ``cdf`` reports.
    """

    v: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        q = np.asarray(self.density, dtype=float)
        if v.ndim != 1 or v.size < 2 or np.any(np.diff(v) <= 0):
            raise InvalidInputError("v grid must be strictly increasing")
        if q.shape != v.shape or np.any(q < 0):
            raise InvalidInputError("density must be nonnegative on the v grid")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "density", q)

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.v))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.v, _trapezoid_cdf(self.v, self.density), left=0.0, right=1.0)

    def mean(self) -> float:
        return float(np.trapezoid(self.v * self.density, self.v))

    def sample(self, n: int, seed) -> np.ndarray:
        """Inverse-CDF draws, shape (n, 1); deterministic under the seed."""
        rng = np.random.default_rng(seed)
        cdf = _trapezoid_cdf(self.v, self.density)
        return _inverse_cdf(rng.random(n), self.v, cdf)[:, None]

    def as_measure(self, n: int, seed) -> EmpiricalMeasure:
        return EmpiricalMeasure.from_samples(self.sample(n, seed))


def free_velocity_distribution(psi0: GridWavefunction) -> VelocityDistribution:
    """Velocity distribution of a free Schrodinger state: q(v) = m |psi_hat(m v)|^2."""
    if psi0.kind != KIND_SCHRODINGER:
        raise InvalidInputError("free velocity distribution needs a Schrodinger state")
    md = momentum_density(psi0)
    return VelocityDistribution(md.p / psi0.mass, md.values * psi0.mass)


def scattering_velocity_distribution(out: OutgoingAsymptote, mass: float) -> VelocityDistribution:
    """Velocity distribution of the outgoing asymptote: q(v) = m |phi_hat(m v)|^2."""
    return VelocityDistribution(out.p / mass, out.density * mass)


def dirac_velocity_distribution(psi: GridWavefunction) -> VelocityDistribution:
    """Pushforward of the momentum density through v(p) = p / sqrt(p^2 + m^2).

    The Jacobian dp/dv = E^3 / m^2 is applied analytically; the support
    is strictly inside (-1, 1). It describes positive-energy states only;
    any other state raises InvalidInputError.
    """
    if psi.kind != KIND_DIRAC:
        raise InvalidInputError("expected a Dirac state")
    if psi.mass <= 0:
        raise InvalidInputError("the velocity map needs m > 0")
    positive_energy_part(psi)
    md = momentum_density(psi)
    energy = np.sqrt(md.p**2 + psi.mass**2)
    v = md.p / energy
    q = md.values * energy**3 / psi.mass**2
    return VelocityDistribution(v, q)


def verify_distribution_equality(
    s_measure: EmpiricalMeasure,
    q_dist: VelocityDistribution,
    seed: int = 0,
    ks_threshold: float | None = None,
    w1_threshold: float | None = None,
) -> dict:
    """Measure-to-measure test of the trajectory ensemble against the
    quantum velocity distribution, via the latter's sampler.

    The quantum side draws 10 samples per ensemble sample, at most
    ``_N_Q_MAX``, from spawn key (17,) of ``seed``; the report carries
    that sample as ``q_measure``.
    """
    if s_measure.dim != 1:
        raise InvalidInputError("distribution comparison is 1D")
    n_s = s_measure.n_samples
    n_q = min(10 * n_s, _N_Q_MAX)
    q_measure = q_dist.as_measure(n_q, np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    ks, w1 = ks_w1_1d(s_measure, q_measure)
    if ks_threshold is None:
        ks_threshold = ks_critical_value(n_s, n_q, _KS_ALPHA) + GRID_SLACK
    if w1_threshold is None:
        sigma = float(np.std(q_measure.samples))
        w1_threshold = 2.58 * sigma * np.sqrt(1.0 / n_s + 1.0 / n_q) + GRID_SLACK
    passed = bool(ks <= ks_threshold and w1 <= w1_threshold)
    return {
        "ks": float(ks),
        "w1": float(w1),
        "pass": passed,
        "ks_threshold": float(ks_threshold),
        "w1_threshold": float(w1_threshold),
        "n_s": n_s,
        "n_q": n_q,
        "q_measure": q_measure,
    }


def _rodrigues(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotation matrices about ``axis`` for each angle, shape (T, 3, 3)."""
    k = axis / np.linalg.norm(axis)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    eye = np.eye(3)
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    return c * eye + s * kx + (1 - c) * np.outer(k, k)


def rotating_trajectory_family(
    omega: float,
    axis,
    n_samples: int,
    seed: int,
    dim: int = 3,
    t_grid=None,
) -> list[SampledTrajectory]:
    """Trajectories R(axis, omega t) v t with v uniform on the unit sphere.

    Every k(t)/t has unit norm, so the instantaneous velocity measure is
    the uniform sphere measure at all times, yet for omega != 0 no
    trajectory (off the rotation axis) has a limiting velocity. dim=2
    rotates in the plane, where the rotation has no fixed directions and
    the non-convergence is uniform over the family. omega = 0 degenerates
    to straight lines (every trajectory converges), kept as a control.
    """
    if dim not in (2, 3):
        raise InvalidInputError("the rotating family needs dim 2 or 3")
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    if not np.isfinite(omega):
        raise InvalidInputError(f"omega must be finite, got {omega}")
    if t_grid is None:
        t_grid = np.array([0.0, 2.5, 5.0, 10.0, 20.0, 40.0])
    t_grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    raw = rng.normal(size=(n_samples, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    angles = omega * t_grid
    if dim == 3:
        rot = _rodrigues(np.asarray(axis, dtype=float), angles)
    else:
        c, s = np.cos(angles), np.sin(angles)
        rot = np.empty((t_grid.size, 2, 2))
        rot[:, 0, 0] = c
        rot[:, 0, 1] = -s
        rot[:, 1, 0] = s
        rot[:, 1, 1] = c
    # positions[n, t, :] = R(omega t) v_n * t
    pos = np.einsum("tij,nj->nti", rot, raw)
    pos *= t_grid[None, :, None]
    return SampledTrajectory.from_block(t_grid, pos)
