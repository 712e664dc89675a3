import tracemalloc

import numpy as np
import pytest

from bohmvel import asymptotics
from bohmvel.asymptotics import (
    _blocks,
    _eta_block,
    _fit_eta,
    _fit_trajectories,
    dirac_velocity_distribution,
    estimate_asymptotic_measure,
    free_velocity_distribution,
    rotating_trajectory_family,
    scattering_velocity_distribution,
    velocity_measure_at,
    verify_distribution_equality,
)
from bohmvel.core import EmpiricalMeasure, SampledTrajectory
from bohmvel.errors import InvalidInputError, RegularityError
from bohmvel.guidance import EnsembleDiagnostics, IntegrationResult
from bohmvel.stats import ks_distance, ks_vs_cdf_1d
from bohmvel.relativity import boost_dirac_state
from bohmvel.wavefunction import (
    NEG_ENERGY_TOL,
    GridSpec,
    GridWavefunction,
    gaussian_packet,
    outgoing_asymptote,
    project_positive_energy,
)

from oracles import fitted_velocity, free_gaussian_trajectory, position_at

CHECKPOINTS = np.array([10.0, 20.0, 40.0])


def straight(v, c=0.0):
    t = np.array([0.0, 5.0, 10.0, 20.0, 40.0])
    pts = np.outer(t, np.atleast_1d(v)) + np.atleast_1d(c)
    return SampledTrajectory(t, pts)


class TestAsymptoticVelocity:
    def test_affine_fit_exact_on_lines(self):
        v_plus, residual = fitted_velocity(straight(3.0, c=2.0), CHECKPOINTS)
        assert v_plus.shape == (1,)
        assert v_plus[0] == pytest.approx(3.0, abs=1e-12)
        assert residual < 1e-12

    def test_free_gaussian_path_recovers_half(self):
        t = np.concatenate([[0.0], np.geomspace(0.5, 160.0, 500)])
        x = free_gaussian_trajectory(1.0, t)
        traj = SampledTrajectory(t, x[:, None])
        v_plus, residual = fitted_velocity(traj, CHECKPOINTS)
        # v_plus = x0 / (2 m sigma0^2) = 0.5; the affine-in-1/t fit sees the
        # residual 1/t^2 curvature, so recovery is at the few-per-mille level.
        assert v_plus[0] == pytest.approx(0.5, abs=5e-3)
        assert residual < 5e-3
        v_long, _ = fitted_velocity(traj, 4.0 * CHECKPOINTS)
        assert abs(v_long[0] - 0.5) < abs(v_plus[0] - 0.5)

    def test_rotating_trajectory_never_converges(self):
        # Equatorial rotator: the heading turns forever, so the fit
        # residual stays order one and the flag must reject it.
        omega = 1.0
        t = np.array([0.0, 10.0, 20.0, 40.0])
        pts = np.stack([np.cos(omega * t) * t, np.sin(omega * t) * t, np.zeros_like(t)], axis=1)
        traj = SampledTrajectory(t, pts)
        _, residual = fitted_velocity(traj, CHECKPOINTS)
        # Not converged (residual <= tol) at tol = 0.5, nor at 0.1.
        assert residual > 0.5

    def test_checkpoint_preconditions(self):
        with pytest.raises(InvalidInputError):
            fitted_velocity(straight(1.0), [10.0, 20.0])
        with pytest.raises(InvalidInputError):
            fitted_velocity(straight(1.0), [10.0, 20.0, 30.0])


class TestAsymptoticMeasure:
    def test_straight_line_ensemble(self):
        vels = np.array([-0.5, 0.1, 0.9])
        measure, report = estimate_asymptotic_measure(
            [straight(v) for v in vels], CHECKPOINTS, 0.05
        )
        assert report.fraction_converged == 1.0
        assert report.verdict
        np.testing.assert_allclose(np.sort(measure.samples[:, 0]), np.sort(vels), atol=1e-12)

    def test_rotating_family_hard_failure(self):
        fam = rotating_trajectory_family(1.0, None, 500, seed=1, dim=2)
        with pytest.raises(RegularityError) as err:
            estimate_asymptotic_measure(fam, CHECKPOINTS, 0.1)
        assert err.value.report.fraction_converged == 0.0

    def test_mixed_ensemble_exclusion_weight(self):
        lines = [straight(v) for v in np.random.default_rng(3).normal(size=(70, 2))]
        fam = rotating_trajectory_family(1.0, None, 30, seed=2, dim=2, t_grid=lines[0].times)
        measure, report = estimate_asymptotic_measure(lines + fam, CHECKPOINTS, 0.1)
        assert report.n_converged == 70
        assert report.fraction_converged == pytest.approx(0.7)
        assert not report.verdict

    def test_equal_distinct_time_grids_accepted(self):
        # Each line holds its own copy of one grid: equal arrays, distinct
        # objects, so the stacked path compares them element by element.
        vels = np.random.default_rng(4).normal(size=(6, 2))
        lines = [straight(v) for v in vels]
        assert lines[0].times is not lines[1].times
        shared = [SampledTrajectory(lines[0].times, t.points) for t in lines]
        measure, report = estimate_asymptotic_measure(lines, CHECKPOINTS, 0.05)
        want, _ = estimate_asymptotic_measure(shared, CHECKPOINTS, 0.05)
        assert report.n_converged == 6
        np.testing.assert_array_equal(measure.samples, want.samples)
        np.testing.assert_array_equal(
            velocity_measure_at(lines, 10.0).samples, velocity_measure_at(shared, 10.0).samples
        )

    def test_mixed_time_grids_rejected(self):
        # The lines sample t = 0, 5, 10, 20, 40; the family's default grid
        # adds t = 2.5.
        lines = [straight(v) for v in np.random.default_rng(3).normal(size=(5, 2))]
        fam = rotating_trajectory_family(1.0, None, 5, seed=2, dim=2)
        with pytest.raises(InvalidInputError, match="one time grid"):
            estimate_asymptotic_measure(lines + fam, CHECKPOINTS, 0.1)
        with pytest.raises(InvalidInputError, match="one time grid"):
            velocity_measure_at(lines + fam, 10.0)

    def test_mixed_dimensions_rejected(self):
        planar = rotating_trajectory_family(1.0, None, 4, seed=2, dim=2)
        spatial = rotating_trajectory_family(1.0, [0.0, 0.0, 1.0], 3, seed=2, dim=3)
        with pytest.raises(InvalidInputError, match="one dimension, found dimensions 2, 3$"):
            estimate_asymptotic_measure(spatial + planar, CHECKPOINTS, 0.1)
        with pytest.raises(InvalidInputError, match="one dimension, found dimensions 2, 3$"):
            velocity_measure_at(planar + spatial, 10.0)


def affine_fit_reference(eta, checkpoints):
    """The affine-in-1/t fit, written as before the polynomial degree
    followed the ladder: (v_plus, residual at the last two checkpoints)."""
    design = np.stack([np.ones_like(checkpoints), 1.0 / checkpoints], axis=1)
    pinv = np.linalg.pinv(design)
    coef = np.einsum("kc,ncd->nkd", pinv, eta)
    fit = np.einsum("ck,nkd->ncd", design, coef)
    dev = np.linalg.norm(eta - fit, axis=2)
    return coef[:, 0, :], np.max(dev[:, -2:], axis=1)


class TestFitEta:
    @pytest.mark.parametrize("checkpoints", [[10.0, 20.0, 40.0], [20.0, 40.0, 80.0], [3.0, 12.5, 40.0]])
    def test_three_point_ladder_is_the_affine_fit(self, checkpoints):
        checkpoints = np.asarray(checkpoints)
        eta = np.random.default_rng(7).normal(size=(500, 3, 2))
        v_plus, residual = _fit_eta(eta, checkpoints)
        want_v, want_res = affine_fit_reference(eta, checkpoints)
        np.testing.assert_array_equal(v_plus, want_v)
        np.testing.assert_array_equal(residual, want_res)

    def test_four_point_ladder_exact_with_a_1_over_t_term(self):
        # k(t) = v t + c + d/t: eta = v + c/t + d/t^2 lies in the span of
        # the 4-point ladder's columns 1, 1/t, 1/t^2.
        checkpoints = np.array([2.5, 5.0, 10.0, 20.0])
        t = np.union1d(np.geomspace(1.0, 40.0, 60), checkpoints)
        v, c, d = 0.7, -1.3, 2.9
        pts = (v * t + c + d / t)[:, None]
        v_plus, residual = fitted_velocity(SampledTrajectory(t, pts), checkpoints)
        assert v_plus[0] == pytest.approx(v, abs=1e-12)
        assert residual < 1e-12
        # The affine fit on the same checkpoints cannot absorb d/t^2.
        v_affine, _ = fitted_velocity(SampledTrajectory(t, pts), checkpoints[1:])
        assert abs(v_affine[0] - v) > 1e-3

    def test_free_gaussian_short_quadratic_ladder_beats_long_affine_one(self):
        # On the closed-form free-Gaussian paths, eta(t) = (x0/2) sqrt(1 + 4/t^2)
        # has no 1/t term; the 1/t^2 fit on (2.5, 5, 10, 20) recovers
        # x0/2 better than the affine fit on (10, 20, 40), at half the length.
        short = np.array([2.5, 5.0, 10.0, 20.0])
        t = np.union1d(np.concatenate([[0.0], np.geomspace(0.5, 40.0, 200)]), [*short, 40.0])
        x0 = np.linspace(-3.0, 3.0, 13)
        trajs = [SampledTrajectory(t, free_gaussian_trajectory(x, t)[:, None]) for x in x0]
        err_short = np.abs(_fit_trajectories(trajs, short)[0][:, 0] - x0 / 2.0)
        err_long = np.abs(_fit_trajectories(trajs, CHECKPOINTS)[0][:, 0] - x0 / 2.0)
        assert np.max(err_short) < np.max(err_long)
        assert np.all(err_short[x0 != 0.0] < err_long[x0 != 0.0])


def as_integration_result(trajs):
    """The trajectories of a list on one time grid as an integration result
    with nothing failed and no velocities."""
    n = len(trajs)
    return IntegrationResult(
        trajs[0].times,
        np.stack([t.points for t in trajs]),
        EnsembleDiagnostics(
            min_rho=np.full(n, np.inf),
            shrink_events=np.zeros(n, dtype=np.int64),
            frozen_steps=np.zeros(n, dtype=np.int64),
            failed=np.zeros(n, dtype=bool),
        ),
    )


def ensemble_rows(ensemble, checkpoints):
    """``_eta_block`` of every block of ``_blocks``, concatenated."""
    eta, vel = zip(*(_eta_block(*block, checkpoints) for block in _blocks(ensemble)))
    return np.concatenate(eta), None if vel[0] is None else np.concatenate(vel)


def one_shot_rows(result, checkpoints):
    """``_eta_block`` of every live trajectory of an integration result as
    one block."""
    live = ~result.diagnostics.failed
    vel = None if result.velocities is None else result.velocities[live]
    return _eta_block(result.times, result.positions[live], vel, checkpoints)


class TestEtaBlock:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_list_equals_integration_result(self, dim):
        # The list path and the array path read the same positions bitwise;
        # neither carries velocities.
        fam = rotating_trajectory_family(0.7, [0.0, 0.6, 0.8], 300, seed=6, dim=dim)
        n = len(fam)
        result = as_integration_result(fam)
        for checkpoints in ([5.0], [3.0, 12.5, 40.0], CHECKPOINTS):
            checkpoints = np.asarray(checkpoints)
            got, vel = ensemble_rows(fam, checkpoints)
            assert got.shape == (n, checkpoints.size, dim) and vel is None
            want, vel = ensemble_rows(result, checkpoints)
            np.testing.assert_array_equal(got, want)
            assert vel is None


def integration_result(n, n_failed=0, velocities=True, seed=8):
    """An integration result of n random 1D trajectories on the shipped
    Dirac record times, n_failed of them failed."""
    rng = np.random.default_rng(seed)
    times = np.array([0.0, 7.5, 10.0, 15.0, 20.0, 30.0])
    failed = np.zeros(n, dtype=bool)
    failed[rng.choice(n, n_failed, replace=False)] = True
    return IntegrationResult(
        times,
        rng.normal(size=(n, times.size, 1)),
        EnsembleDiagnostics(
            min_rho=np.full(n, np.inf),
            shrink_events=np.zeros(n, dtype=np.int64),
            frozen_steps=np.zeros(n, dtype=np.int64),
            failed=failed,
        ),
        velocities=rng.normal(size=(n, times.size, 1)) if velocities else None,
    )


class TestFitBlocks:
    """The fit reads an integration result or a list of trajectories block
    by block; its result is bitwise the one-shot fit of every live
    trajectory."""

    LADDER = np.array([7.5, 10.0, 15.0, 20.0, 30.0])

    # 1000 trajectories: no block size below divides them, and blocks of
    # 333 leave a remainder of one, as blocks of 7 do of the 995 live ones.
    @pytest.mark.parametrize("block", [2, 7, 64, 333])
    @pytest.mark.parametrize("n_failed", [0, 5])
    @pytest.mark.parametrize("velocities", [True, False])
    def test_blockwise_fit_is_the_one_shot_fit(self, monkeypatch, block, n_failed, velocities):
        result = integration_result(1000, n_failed, velocities)
        eta, vel = one_shot_rows(result, self.LADDER)
        assert eta.shape[0] == 1000 - n_failed and (vel is None) != velocities
        want = _fit_eta(eta, self.LADDER, vel)
        monkeypatch.setattr(asymptotics, "_FIT_BLOCK", block)
        got = _fit_trajectories(result, self.LADDER)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        measure, report = estimate_asymptotic_measure(result, self.LADDER, 0.5)
        assert report.n_total == 1000 - n_failed
        np.testing.assert_array_equal(measure.samples, want[0][want[1] <= 0.5])

    def test_unmasked_rows_are_the_masked_copy(self):
        # With nothing failed the blocks are views of the arrays; the rows
        # and the fit are bitwise those of the copy through the live mask.
        result = integration_result(500)
        for _, pos, vel in _blocks(result):
            assert np.shares_memory(pos, result.positions) and np.shares_memory(vel, result.velocities)
        eta, vel = ensemble_rows(result, self.LADDER)
        eta_copy, vel_copy = one_shot_rows(result, self.LADDER)
        assert eta.tobytes() == eta_copy.tobytes() and vel.tobytes() == vel_copy.tobytes()
        for g, w in zip(_fit_eta(eta, self.LADDER, vel), _fit_eta(eta_copy, self.LADDER, vel_copy)):
            assert g.tobytes() == w.tobytes()

    def test_all_failed_is_an_empty_ensemble(self):
        with pytest.raises(InvalidInputError, match="empty ensemble"):
            estimate_asymptotic_measure(integration_result(5, n_failed=5), self.LADDER, 0.5)

    # Each count leaves a remainder of one trajectory after its blocks.
    @pytest.mark.parametrize("block, n", [(2, 1001), (7, 995), (64, 961), (333, 1000)])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_blockwise_list_is_the_one_shot_fit(self, monkeypatch, block, n, dim, omega):
        fam = rotating_trajectory_family(omega, [0.0, 0.6, 0.8], n, seed=5, dim=dim)
        eta, vel = _eta_block(fam[0].times, np.stack([t.points for t in fam]), None, CHECKPOINTS)
        want = _fit_eta(eta, CHECKPOINTS, vel)
        monkeypatch.setattr(asymptotics, "_FIT_BLOCK", block)
        sizes = [pos.shape[0] for _, pos, _ in _blocks(fam)]
        assert sum(sizes) == n and sizes[-1] == block + 1
        got = _fit_trajectories(fam, CHECKPOINTS)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        result = as_integration_result(fam)
        for t in (5.0, 7.5, 10.0):
            assert velocity_measure_at(fam, t).samples.tobytes() == velocity_measure_at(result, t).samples.tobytes()

    def test_a_later_block_on_another_time_grid_raises(self, monkeypatch):
        fam = rotating_trajectory_family(1.0, None, 100, seed=5, dim=2)
        times = fam[-1].times.copy()
        times[-1] += 1.0
        fam[-1] = SampledTrajectory(times, fam[-1].points)
        monkeypatch.setattr(asymptotics, "_FIT_BLOCK", 7)
        with pytest.raises(InvalidInputError, match="the trajectories must share one time grid"):
            velocity_measure_at(fam, 5.0)
        with pytest.raises(InvalidInputError, match="the trajectories must share one time grid"):
            estimate_asymptotic_measure(fam, CHECKPOINTS, 0.1)

    def test_a_later_block_of_another_dimension_raises(self, monkeypatch):
        fam = rotating_trajectory_family(1.0, [0.0, 0.0, 1.0], 100, seed=5, dim=2)
        fam += rotating_trajectory_family(1.0, [0.0, 0.0, 1.0], 1, seed=5, dim=3)
        monkeypatch.setattr(asymptotics, "_FIT_BLOCK", 7)
        with pytest.raises(InvalidInputError, match="one dimension, found dimensions 2, 3"):
            velocity_measure_at(fam, 5.0)


# The transient memory of the estimator, as a share of the positions that
# the family holds: reading the family block by block keeps it well below
# one copy of them (about 0.45 for the measure and 0.55 for the fit, where
# concatenating the whole family read 1.42 and 2.09).
TRANSIENT_SHARE = 0.75


def test_estimator_memory_is_below_a_share_of_the_positions():
    n = 20_000
    fam = rotating_trajectory_family(1.0, None, n, seed=0, dim=2)
    position_bytes = n * fam[0].points.nbytes

    def estimate():
        with pytest.raises(RegularityError):
            estimate_asymptotic_measure(fam, CHECKPOINTS, 0.1)

    calls = (lambda: velocity_measure_at(fam, 5.0), estimate)
    # A first call also loads and caches code; measure a repeat.
    for call in calls:
        call()
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            call()
            transient = tracemalloc.get_traced_memory()[1] - held
            assert transient < TRANSIENT_SHARE * position_bytes
    finally:
        tracemalloc.stop()


class TestVelocityMeasureAt:
    def test_equals_positions_over_t(self):
        trajs = [straight(v, c=0.3) for v in (0.2, -0.7)]
        m = velocity_measure_at(trajs, 20.0)
        expected = np.array([position_at(t.times, t.points, 20.0) / 20.0 for t in trajs])
        np.testing.assert_array_equal(m.samples, expected)

    def test_rotating_family_sphere_marginal(self):
        # Uniform measure on S^2: each Cartesian coordinate is uniform
        # on [-1, 1] (Archimedes), at every time.
        fam = rotating_trajectory_family(1.0, [0.0, 0.0, 1.0], 4000, seed=4, dim=3)
        for t in (5.0, 20.0):
            m = velocity_measure_at(fam, t)
            assert np.abs(np.linalg.norm(m.samples, axis=1) - 1.0).max() < 1e-12
            d = ks_vs_cdf_1d(m.samples[:, 2], m.weights, lambda x: np.clip((x + 1) / 2, 0, 1))
            assert d < 0.03

    def test_straight_lines_stationary(self):
        trajs = [straight(v) for v in np.linspace(-1, 1, 50)]
        m5 = velocity_measure_at(trajs, 5.0)
        m40 = velocity_measure_at(trajs, 40.0)
        # No offsets: S_t equals the limiting measure at every time.
        np.testing.assert_allclose(m5.samples, m40.samples, atol=1e-14)


class TestQuantumDistributions:
    def test_free_gaussian_is_normal(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0)
        q = free_velocity_distribution(psi)
        assert q.total_mass() == pytest.approx(1.0, abs=1e-9)
        std = np.sqrt(np.trapezoid(q.v**2 * q.density, q.v))
        assert std == pytest.approx(0.5, abs=1e-9)

    def test_mass_scaling(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 2.0, 0.0, 0.0, 1.0)
        q = free_velocity_distribution(psi)
        std = np.sqrt(np.trapezoid(q.v**2 * q.density, q.v))
        assert std == pytest.approx(0.25, abs=1e-9)

    def test_scattering_reduces_to_free_without_potential(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 1.0, -20.0, 1.5, 1.0)
        out = outgoing_asymptote(psi, None, [4.0, 8.0], dt=0.01, residual_tol=1e-3)
        q_scatt = scattering_velocity_distribution(out, 1.0)
        q_free = free_velocity_distribution(psi)
        np.testing.assert_allclose(q_scatt.density, q_free.density, atol=1e-12)

    def test_dirac_peak_and_support(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 0.75, 4.0, kind="dirac"))
        q = dirac_velocity_distribution(psi)
        assert np.all(np.abs(q.v) < 1.0)
        assert q.v[np.argmax(q.density)] == pytest.approx(0.6, abs=0.01)

    def test_dirac_large_mass_concentrates(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi, _ = project_positive_energy(gaussian_packet(spec, 20.0, 0.0, 0.75, 1.0, kind="dirac"))
        q = dirac_velocity_distribution(psi)
        mean_abs = np.trapezoid(np.abs(q.v) * q.density, q.v)
        assert mean_abs < 0.05

    def test_dirac_pushforward_rejects_an_unprojected_packet(self):
        # v = p/E describes positive-energy states only.
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 1.0, 0.0, 0.75, 1.0, kind="dirac")
        with pytest.raises(InvalidInputError, match="negative-energy weight"):
            dirac_velocity_distribution(psi)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_pushforward_and_boost_share_the_negative_energy_tolerance(self, factor):
        # (a, b) -> (-b, a) maps each mode's positive-energy spinor to its
        # negative-energy one, so the mixture carries negative weight w.
        spec = GridSpec(1024, -64.0, 64.0)
        pos, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 0.75, 1.0, kind="dirac"))
        neg = np.stack([-pos.amplitudes[1], pos.amplitudes[0]])
        w = factor * NEG_ENERGY_TOL
        amps = np.sqrt(1.0 - w) * pos.amplitudes + np.sqrt(w) * neg
        psi = GridWavefunction(spec, amps, 0.0, "dirac", 1.0)
        if factor < 1.0:
            dirac_velocity_distribution(psi)
            boost_dirac_state(psi, 0.2)
            return
        with pytest.raises(InvalidInputError, match="negative-energy weight"):
            dirac_velocity_distribution(psi)
        with pytest.raises(InvalidInputError, match="negative-energy weight"):
            boost_dirac_state(psi, 0.2)

    def test_sampler_matches_cdf(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0)
        q = free_velocity_distribution(psi)
        samples = q.sample(50_000, 123)
        d = ks_vs_cdf_1d(samples[:, 0], np.ones(50_000), q.cdf)
        assert d < 0.01


class TestVerifyDistributionEquality:
    def test_self_consistency(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0)
        q = free_velocity_distribution(psi)
        s = EmpiricalMeasure.from_samples(q.sample(10_000, 55))
        rep = verify_distribution_equality(s, q, seed=56)
        assert rep["pass"]

    def test_wrong_mass_detected(self):
        spec = GridSpec(2048, -128.0, 128.0)
        psi = gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0)
        # The same packet taken at mass 2: its velocities are halved.
        q_wrong = free_velocity_distribution(gaussian_packet(spec, 2.0, 0.0, 0.0, 1.0))
        s = EmpiricalMeasure.from_samples(free_velocity_distribution(psi).sample(10_000, 57))
        rep = verify_distribution_equality(s, q_wrong, seed=58)
        assert not rep["pass"]


def integral(measure, f) -> float:
    return float(measure.weights @ f(measure.samples))


class TestWeakConvergence:
    """The instantaneous velocity measure S_t against the asymptotic one."""

    def test_straight_lines_zero_residual(self):
        trajs = [straight(v) for v in np.linspace(-0.8, 0.8, 40)]
        s_plus, _ = estimate_asymptotic_measure(trajs, CHECKPOINTS, 0.05)
        for t in (5.0, 10.0, 20.0):
            np.testing.assert_allclose(
                velocity_measure_at(trajs, t).samples, s_plus.samples, rtol=0, atol=1e-12
            )

    def test_rotating_family_dichotomy(self):
        # A direction cloud concentrated near +x, rigidly rotating: the
        # instantaneous velocity measure rotates, so a bump pinned to one
        # spot on the sphere oscillates without decaying, while the
        # rotation-invariant radial probe stays at zero (the headings
        # keep unit norm at every sampled time).
        omega = 1.0
        times = np.concatenate([[0.0], np.linspace(2.5, 40.0, 16)])
        rng = np.random.default_rng(6)
        dirs = rng.normal(size=(800, 3)) * 0.2 + np.array([1.0, 0.0, 0.0])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        angles = omega * times
        rot = np.stack(
            [
                np.stack([np.cos(angles), -np.sin(angles), np.zeros_like(angles)], axis=1),
                np.stack([np.sin(angles), np.cos(angles), np.zeros_like(angles)], axis=1),
                np.stack([np.zeros_like(angles), np.zeros_like(angles), np.ones_like(angles)], axis=1),
            ],
            axis=1,
        )
        pos = np.einsum("tij,nj->nti", rot, dirs) * times[None, :, None]
        fam = [SampledTrajectory(times, pos[i]) for i in range(dirs.shape[0])]
        # No trajectory converges, so the reference is the last measure.
        with pytest.raises(RegularityError):
            estimate_asymptotic_measure(fam, CHECKPOINTS, 0.05)
        reference = velocity_measure_at(fam, float(times[-1]))

        def bump(v):
            return np.exp(-np.sum((v - [1.0, 0.0, 0.0]) ** 2, axis=1) / (2.0 * 0.25**2))

        def radial(v):
            return np.exp(-((np.linalg.norm(v, axis=1) - 1.0) ** 2) / (2.0 * 0.25**2))

        def residuals(f):
            ref = integral(reference, f)
            return np.array([abs(integral(velocity_measure_at(fam, t), f) - ref) for t in times[1:]])

        swing = residuals(bump)
        assert swing.max() > 0.2
        # No decay: the tail of the curve still swings as high as the head.
        assert swing[-8:].max() > 0.5 * swing.max()
        assert residuals(radial).max() < 1e-9

    def test_free_gaussian_residual_decreases(self):
        t = np.concatenate([[0.0], np.geomspace(0.25, 40.0, 200)])
        rng = np.random.default_rng(8)
        trajs = [
            SampledTrajectory(t, free_gaussian_trajectory(x0, t)[:, None])
            for x0 in rng.normal(size=200)
        ]
        s_plus, _ = estimate_asymptotic_measure(trajs, CHECKPOINTS, 0.05)
        ks = [ks_distance(velocity_measure_at(trajs, tt), s_plus)[0] for tt in (2.5, 10.0, 40.0)]
        assert ks[2] < ks[1] < ks[0]


class TestRotatingFamily:
    def test_unit_speed_ratio(self):
        fam = rotating_trajectory_family(1.0, [0.0, 0.0, 1.0], 10, seed=7, dim=3)
        for traj in fam:
            eta = velocity_measure_at([traj], 20.0).samples[0]
            assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-12)

    def test_full_rotation_period(self):
        omega = 1.0
        t_grid = np.array([0.0, np.pi / omega, 2.0 * np.pi / omega])
        fam = rotating_trajectory_family(omega, [0.0, 0.0, 1.0], 5, seed=8, dim=3, t_grid=t_grid)
        for traj in fam:
            eta_full = position_at(traj.times, traj.points, 2.0 * np.pi) / (2.0 * np.pi)
            v_hat = traj.points[1] / t_grid[1]  # half turn flips the transverse part
            eta0_dir = traj.points[2] / (2.0 * np.pi)
            np.testing.assert_allclose(eta_full, eta0_dir, atol=1e-12)

    def test_antipodal_half_period_equatorial(self):
        omega = 1.0
        t1 = 10.0
        t2 = t1 + np.pi / omega
        t_grid = np.array([0.0, t1, t2])
        fam = rotating_trajectory_family(omega, [0.0, 0.0, 1.0], 200, seed=9, dim=3, t_grid=t_grid)
        # Pick the most equatorial sample: transverse part has unit norm,
        # so consecutive half-period headings are antipodal in the plane.
        best = min(fam, key=lambda tr: abs(tr.points[1][2] / t1))
        eta1 = position_at(best.times, best.points, t1) / t1
        eta2 = position_at(best.times, best.points, t2) / t2
        perp = np.linalg.norm(eta1[:2] + eta2[:2])
        assert perp < 1e-12
        equatorial_norm = np.linalg.norm(eta1[:2])
        assert np.linalg.norm(eta1 - eta2) == pytest.approx(2.0 * equatorial_norm, abs=1e-12)

    def test_omega_zero_control(self):
        fam = rotating_trajectory_family(0.0, None, 50, seed=10, dim=2)
        _, report = estimate_asymptotic_measure(fam, CHECKPOINTS, 0.1)
        assert report.fraction_converged == 1.0

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(InvalidInputError, match="^omega must be finite"):
            rotating_trajectory_family(omega, None, 5, seed=0, dim=2)
