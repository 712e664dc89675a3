"""Guiding velocity field, quantum-equilibrium sampling, and ensemble
integration of guided trajectories on the one-dimensional grid of the
wave-function layer.

The guiding field is j/rho with

    rho = |psi|^2,          j = Im(psi* d_x psi) / m     (Schrodinger)
    rho = psi^dagger psi,   j = psi^dagger sigma_x psi   (1+1D Dirac)

The gradient is spectral; off-grid values come from cubic interpolation
of the precomputed rho and j grids. ``FieldSnapshot.evaluate`` is the one
guiding-velocity evaluation: it returns j/rho at a block of points with
an acceptance mask that rejects points outside the grid box, below the
density floor, or (Dirac) at an interpolated speed |j/rho| >= 1.
Initial positions are inverse-CDF draws from rho_0 on the grid.
Positions keep a trailing axis of length 1, shape (n, 1) per time, so
the dimension-agnostic trajectory layer downstream reads them as 1D
configurations. The Dirac field satisfies |v| < 1 wherever rho is
meaningfully positive, so guided spinor trajectories are world lines.

A trajectory whose RK4 step has a rejected evaluation fails, whatever
the reason: it has left the grid box, met a density below the floor, or
(Dirac) met an interpolated speed |j/rho| >= 1. It keeps its position
from the start of the step, the reason of its first rejected evaluation
is recorded, and it is excluded downstream with its weight recorded.
Trajectories that reach a node have probability zero, so the run is
considered valid only while the failed weight stays below 0.1%.

Error budget against the closed-form free-Gaussian trajectory: the
cubic interpolation bias of rho and j scales like (dx)^4 times their
fourth derivative, giving ~3e-5 absolute position error at t = 10 for
dx = 0.125 and < 1e-5 relative for dx = 0.0625; RK4 truncation at
dt = 0.05 and the exact per-substep wavefunction stepping sit well
below that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._interp import CubicStencil
from .core import SampledTrajectory
from .errors import DomainError, InvalidInputError
from .stats import _inverse_cdf, _trapezoid_cdf, ks_vs_cdf_1d
from .wavefunction import (
    KIND_DIRAC,
    DiracPropagator,
    GaussianBarrier,
    GridWavefunction,
    SplitStepPropagator,
)

__all__ = [
    "FieldSnapshot",
    "sample_initial",
    "integrate_ensemble",
    "rk4_step_sizes",
    "IntegrationResult",
    "EnsembleDiagnostics",
    "check_equivariance",
    "count_order_violations",
    "FAILED_WEIGHT_LIMIT",
]

FAILED_WEIGHT_LIMIT = 1e-3
# Why a trajectory failed; a nonzero code c of
# ``EnsembleDiagnostics.failure_reason`` names FAILURE_REASONS[c - 1].
FAILURE_REASONS = ("box", "density floor", "speed bound")


def _in_box(spec, points: np.ndarray, inside: np.ndarray | None = None) -> np.ndarray:
    """Mask of the rows of ``points`` (k, 1) inside the grid box
    [x_min, x_max), ANDed in place into ``inside`` when given."""
    if inside is None:
        inside = np.ones(points.shape[0], dtype=bool)
    inside &= points[:, 0] >= spec.x_min
    inside &= points[:, 0] < spec.x_max
    return inside


class FieldSnapshot:
    """rho and j grids of one wavefunction snapshot, with interpolation."""

    def __init__(self, psi: GridWavefunction):
        self.spec = psi.spec
        self.t = psi.t
        self.kind = psi.kind
        self.rho = psi.density()
        if psi.kind == KIND_DIRAC:
            self.current = 2.0 * np.real(np.conj(psi.amplitudes[0]) * psi.amplitudes[1])
        else:
            grad = np.fft.ifft(1j * self.spec.momentum_axis() * np.fft.fft(psi.amplitudes))
            self.current = np.imag(np.conj(psi.amplitudes) * grad) / psi.mass
        # The grids never change, so their ghost cells are built once here.
        self._stencil = CubicStencil([self.rho, self.current], self.spec.x_min, self.spec.dx)

    def evaluate(self, points: np.ndarray, rho_floor: float):
        """Velocity, density, and acceptance mask at scattered points (k, 1).

        A point is rejected when it lies outside the grid box, when the
        interpolated density is below the floor, or (Dirac) when the
        interpolated ratio breaches the light speed bound.
        """
        points = np.atleast_2d(points)
        rho, j = self._stencil.at(points[:, 0])
        ok = _in_box(self.spec, points, rho >= rho_floor)
        vel = np.empty_like(points)
        np.divide(j, np.where(rho > 0, rho, 1.0), out=vel[:, 0])
        if self.kind == KIND_DIRAC:
            ok &= np.abs(vel[:, 0]) < 1.0
        if not ok.all():
            vel[~ok] = 0.0
        return vel, rho, ok


def sample_initial(psi0: GridWavefunction, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. positions from rho_0 = |psi_0|^2, deterministically.

    Inverse-CDF draws on the grid; the result has shape (n, 1).
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if isinstance(seed, (int, np.integer)):
        seed = np.random.SeedSequence(int(seed))
    rng = np.random.default_rng(seed)
    x = psi0.spec.axis()
    return _inverse_cdf(rng.random(n), x, _trapezoid_cdf(x, psi0.density()))[:, None]


@dataclass
class EnsembleDiagnostics:
    """Per-trajectory and aggregate integration diagnostics.

    ``failure_reason`` is 0 for a live trajectory and otherwise codes the
    reason it failed (see FAILURE_REASONS). No step is ever shrunk or
    frozen: ``shrink_events`` and ``frozen_steps`` stay zero, kept only
    because the benchmark's span observer reads them and every manifest
    carries their totals.
    """

    min_rho: np.ndarray
    shrink_events: np.ndarray
    frozen_steps: np.ndarray
    failed: np.ndarray
    accepted_evaluations: int = 0
    rejected_evaluations: int = 0
    failure_reason: np.ndarray | None = None

    def __post_init__(self):
        if self.failure_reason is None:
            self.failure_reason = np.zeros(self.failed.shape, dtype=np.int8)

    @property
    def failed_weight(self) -> float:
        return float(np.mean(self.failed))

    def failure_counts(self) -> dict[str, int]:
        """Failed trajectories per reason."""
        counts = np.bincount(self.failure_reason, minlength=len(FAILURE_REASONS) + 1)
        return dict(zip(FAILURE_REASONS, counts[1:].tolist()))

    def summary(self) -> dict:
        return {
            "failed_weight": self.failed_weight,
            "n_failed": int(self.failed.sum()),
            "total_shrink_events": int(self.shrink_events.sum()),
            "total_frozen_steps": int(self.frozen_steps.sum()),
            "accepted_evaluations": self.accepted_evaluations,
            "rejected_evaluations": self.rejected_evaluations,
            "min_rho": float(self.min_rho.min()),
        }


@dataclass
class IntegrationResult:
    """Trajectory ensemble on the recording grid plus diagnostics.

    ``positions`` has shape (n_traj, n_times, 1); ``snapshots`` holds
    the wavefunction at each recording time for equivariance checks and
    downstream density work.
    """

    times: np.ndarray
    positions: np.ndarray
    diagnostics: EnsembleDiagnostics
    snapshots: list[GridWavefunction] = field(default_factory=list)

    @cached_property
    def trajectories(self) -> list[SampledTrajectory]:
        if self.times.size < 2:
            raise InvalidInputError("need at least two recorded times for trajectories")
        return [SampledTrajectory(self.times, pos) for pos in self.positions]

    def positions_at(self, t: float) -> np.ndarray:
        idx = np.flatnonzero(np.isclose(self.times, t))
        if idx.size == 0:
            raise DomainError(f"t={t} is not a recorded time")
        return self.positions[:, idx[0], :]


def rk4_step_sizes(t_grid, dt: float) -> list[tuple[float, int]]:
    """(h, n) for each interval of ``t_grid``: n RK4 steps of size h cover
    it, the fewest whose h does not exceed dt (up to rounding). The
    wavefunction advances by h/2 twice per step."""
    steps = []
    for seg_len in np.diff(np.asarray(t_grid, dtype=float)):
        n_sub = max(1, int(np.ceil(seg_len / dt - 1e-12)))
        steps.append((seg_len / n_sub, n_sub))
    return steps


def integrate_ensemble(
    psi0: GridWavefunction,
    potential: GaussianBarrier | None,
    starts: np.ndarray,
    t_grid,
    rho_floor: float = 1e-12,
    dt: float = 0.05,
) -> IntegrationResult:
    """Integrate guided trajectories for every start, recording at t_grid.

    Classic RK4 with the field evaluated at substep times; the
    wavefunction advances on an internal clock of half the trajectory
    step so every RK4 stage sees an exact snapshot. Trajectories are
    independent given the shared read-only snapshots and are advanced as
    one vectorized block. An evaluation below ``rho_floor`` fails its
    trajectory.
    """
    if rho_floor <= 0:
        raise InvalidInputError("rho_floor must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise InvalidInputError("t_grid must be a non-empty 1D time array")
    if np.any(np.diff(t_grid) <= 0):
        raise InvalidInputError("t_grid must be strictly increasing")
    if abs(t_grid[0] - psi0.t) > 1e-12:
        raise InvalidInputError("t_grid must start at the wavefunction time")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n_traj, dim = starts.shape
    if dim != 1:
        raise InvalidInputError("starts must have shape (n, 1)")

    diag = EnsembleDiagnostics(
        min_rho=np.full(n_traj, np.inf),
        shrink_events=np.zeros(n_traj, dtype=np.int64),
        frozen_steps=np.zeros(n_traj, dtype=np.int64),
        failed=np.zeros(n_traj, dtype=bool),
    )
    if psi0.kind != KIND_DIRAC:
        propagator = SplitStepPropagator(psi0.spec, psi0.mass, potential)
    elif potential is None:
        propagator = DiracPropagator(psi0.spec, psi0.mass)
    else:
        raise InvalidInputError("Dirac evolution here is free; potential must be None")
    positions = np.empty((n_traj, t_grid.size, dim))
    positions[:, 0, :] = starts
    snapshots = [psi0]
    if t_grid.size == 1:
        return IntegrationResult(t_grid, positions, diag, snapshots)

    steps = rk4_step_sizes(t_grid, dt)
    x = starts.copy()
    psi = psi0
    snap_now = FieldSnapshot(psi)
    for seg, (h, n_sub) in enumerate(steps):
        for _ in range(n_sub):
            psi_mid = propagator.advance(psi, 0.5 * h)
            psi_end = propagator.advance(psi_mid, 0.5 * h)
            snap_mid = FieldSnapshot(psi_mid)
            snap_end = FieldSnapshot(psi_end)
            x = _rk4_block(x, snap_now, snap_mid, snap_end, h, rho_floor, diag)
            psi = psi_end
            snap_now = snap_end
        positions[:, seg + 1, :] = x
        snapshots.append(psi)
    return IntegrationResult(t_grid, positions, diag, snapshots)


def _rk4_block(x, snap_a, snap_b, snap_c, h, rho_floor, diag):
    """One vectorized RK4 step of the live trajectories.

    A trajectory with a rejected evaluation fails: it keeps its position
    from the start of the step, and the reason of its first rejected
    evaluation is recorded. While no trajectory has failed and every
    evaluation is accepted, the step works on ``x`` directly and returns
    the new positions without the live-subset bookkeeping; the results
    are the same.
    """
    all_live = not diag.failed.any()
    xl = x if all_live else x[~diag.failed]
    k1, r1, ok1 = snap_a.evaluate(xl, rho_floor)
    stage2 = np.multiply(0.5 * h, k1)
    stage2 += xl
    k2, r2, ok2 = snap_b.evaluate(stage2, rho_floor)
    stage3 = np.multiply(0.5 * h, k2)
    stage3 += xl
    k3, r3, ok3 = snap_b.evaluate(stage3, rho_floor)
    stage4 = np.multiply(h, k3)
    stage4 += xl
    k4, r4, ok4 = snap_c.evaluate(stage4, rho_floor)
    accepted = int(sum(np.count_nonzero(okk) for okk in (ok1, ok2, ok3, ok4)))
    diag.accepted_evaluations += accepted
    diag.rejected_evaluations += 4 * xl.shape[0] - accepted
    # xl + (h / 6) (k1 + 2 k2 + 2 k3 + k4), term by term in that order.
    x_new = np.multiply(2.0, k2)
    x_new += k1
    k3 *= 2.0
    x_new += k3
    x_new += k4
    x_new *= h / 6.0
    x_new += xl
    if all_live and accepted == 4 * xl.shape[0]:
        np.minimum(diag.min_rho, r1, out=diag.min_rho)
        return x_new

    live_idx = np.flatnonzero(~diag.failed)
    mins = np.minimum(diag.min_rho[live_idx], r1)
    diag.min_rho[live_idx] = np.where(ok1, mins, diag.min_rho[live_idx])

    bad = np.flatnonzero(~(ok1 & ok2 & ok3 & ok4))
    if bad.size:
        x_new[bad] = xl[bad]
        reason = np.zeros(bad.size, dtype=np.int8)
        for stage, rho, ok in ((xl, r1, ok1), (stage2, r2, ok2), (stage3, r3, ok3), (stage4, r4, ok4)):
            first = (reason == 0) & ~ok[bad]
            # Codes 1, 2, 3 name FAILURE_REASONS in order.
            code = np.where(_in_box(snap_a.spec, stage[bad]), np.where(rho[bad] < rho_floor, 2, 3), 1)
            reason[first] = code[first]
        diag.failed[live_idx[bad]] = True
        diag.failure_reason[live_idx[bad]] = reason
    x = x.copy()
    x[live_idx] = x_new
    return x


def check_equivariance(result: IntegrationResult, psi_t: GridWavefunction, t: float) -> float:
    """KS distance between the ensemble positions at t and |psi_t|^2.

    Failed trajectories are left out. The contract for a valid run is a
    value at the KS critical scale for the ensemble size plus
    grid-resolution slack.
    """
    pts = result.positions_at(t)[~result.diagnostics.failed]
    if abs(psi_t.t - t) > 1e-9:
        raise InvalidInputError(f"psi_t is at t={psi_t.t}, expected {t}")
    weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    x = psi_t.spec.axis()
    cdf = _trapezoid_cdf(x, psi_t.density())
    return ks_vs_cdf_1d(pts[:, 0], weights, lambda q: np.interp(q, x, cdf))


def count_order_violations(result: IntegrationResult) -> int:
    """Adjacent inversions of the start order, summed over the recorded
    times.

    The live trajectories are sorted by start position; at each recorded
    time every neighbour pair in that order whose positions have swapped
    counts once. This is not the number of inverted pairs: for starts
    A < B < C with C lowest at one time it reads 1 where 2 pairs are
    inverted. It is zero exactly when no pair is out of order at any
    recorded time, which first-order uniqueness requires of a valid run.
    """
    pos = result.positions
    live = ~result.diagnostics.failed
    order = np.argsort(pos[live, 0, 0], kind="mergesort")
    series = pos[live][order, :, 0]
    violations = 0
    for j in range(series.shape[1]):
        violations += int(np.sum(np.diff(series[:, j]) < 0))
    return violations
