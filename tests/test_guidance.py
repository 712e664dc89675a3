import numpy as np
import pytest

from bohmvel.errors import InvalidInputError
from bohmvel.guidance import (
    FieldSnapshot,
    check_equivariance,
    count_order_violations,
    integrate_ensemble,
    sample_initial,
)
from bohmvel.wavefunction import (
    GridSpec,
    GridWavefunction,
    SplitStepPropagator,
    gaussian_packet,
    project_positive_energy,
    superposed_gaussians,
)

from oracles import free_gaussian_trajectory, free_gaussian_velocity


@pytest.fixture(scope="module")
def grid():
    return GridSpec(2048, -128.0, 128.0)


@pytest.fixture(scope="module")
def packet(grid):
    return gaussian_packet(grid, 1.0, 0.0, 0.0, 1.0)


def guiding_velocity(psi, x, rho_floor=1e-12):
    """(j/rho, rho, accepted) at one point, from ``FieldSnapshot.evaluate``."""
    vel, rho, ok = FieldSnapshot(psi).evaluate(np.array([[x]]), rho_floor)
    return vel[0, 0], rho[0], bool(ok[0])


class TestVelocityAt:
    def test_free_gaussian_field_value(self, packet):
        psi_t2 = SplitStepPropagator(packet.spec, 1.0).advance(packet, 0.01, 200)
        v, _, ok = guiding_velocity(psi_t2, 1.0)
        assert ok
        assert v == pytest.approx(free_gaussian_velocity(1.0, 2.0), abs=1e-6)
        assert v == pytest.approx(0.25, abs=1e-6)

    def test_plane_wave_region(self, grid):
        psi = gaussian_packet(grid, 1.0, 0.0, 0.8, 8.0)
        # Wide packet: locally plane-wave-like, v ~ p0 near the center.
        v, _, ok = guiding_velocity(psi, 0.5)
        assert ok
        assert v == pytest.approx(0.8, abs=1e-6)

    def test_real_state_has_zero_velocity(self, packet):
        v, _, ok = guiding_velocity(packet, 0.7)
        assert ok
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_node_proximity_rejected(self, packet):
        v, rho, ok = guiding_velocity(packet, 100.0, rho_floor=1e-12)
        assert not ok
        assert rho < 1e-12
        assert v == 0.0

    def test_outside_grid_rejected(self, packet):
        v, _, ok = guiding_velocity(packet, 200.0)
        assert not ok
        assert v == 0.0

    def test_dirac_speed_bound_rejects(self, grid, packet):
        # Two equal real components carry j = rho bit for bit on the grid,
        # so every interpolated ratio lies on the light cone.
        amps = np.stack([packet.amplitudes, packet.amplitudes]) / np.sqrt(2.0)
        psi = GridWavefunction(grid, amps, 0.0, "dirac", 1.0)
        snap = FieldSnapshot(psi)
        assert np.array_equal(snap.current, snap.rho)
        xs = np.linspace(-4.0, 4.0, 1001)[:, None]
        vel, rho, ok = snap.evaluate(xs, 1e-12)
        assert rho.min() > 1e-4
        assert not ok.any()
        assert np.all(vel == 0.0)

    def test_dirac_speed_below_one(self, grid):
        psi, _ = project_positive_energy(gaussian_packet(grid, 1.0, 0.0, 0.75, 1.0, kind="dirac"))
        snap = FieldSnapshot(psi)
        xs = np.linspace(-4.0, 4.0, 101)[:, None]
        vel, rho, ok = snap.evaluate(xs, 1e-12)
        assert ok.all()
        assert np.all(np.abs(vel) < 1.0)


class TestSampleInitial:
    def test_moment_check(self, packet):
        s = sample_initial(packet, 100_000, seed=7)
        assert 0.99 < s.std() < 1.01

    def test_deterministic(self, packet):
        a = sample_initial(packet, 1000, seed=3)
        b = sample_initial(packet, 1000, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_bimodal_mode_weights(self, grid):
        # Well-separated two-Gaussian density: mode weights follow the
        # quadrature masses within binomial noise.
        psi = superposed_gaussians(
            grid, 1.0,
            [
                {"x0": -20.0, "p0": 0.0, "sigma0": 1.0},
                {"x0": 20.0, "p0": 0.0, "sigma0": 1.0, "amplitude": 0.5},
            ],
        )
        rho = psi.density()
        x = grid.axis()
        mass_right = float(np.sum(rho[x > 0]) * grid.dx)
        n = 20_000
        s = sample_initial(psi, n, seed=5)
        frac_right = float((s[:, 0] > 0).mean())
        sigma = np.sqrt(mass_right * (1 - mass_right) / n)
        assert abs(frac_right - mass_right) < 2 * sigma + 1e-3


class TestIntegrateEnsemble:
    def test_free_gaussian_trajectory_oracle(self):
        # dx = 0.0625 keeps the cubic-interpolation bias of the guiding
        # field inside the 1e-5 relative budget at t = 10.
        fine = GridSpec(4096, -128.0, 128.0)
        psi = gaussian_packet(fine, 1.0, 0.0, 0.0, 1.0)
        starts = np.array([[1.0], [0.5], [-1.0]])
        res = integrate_ensemble(
            psi, None, starts, np.linspace(0.0, 10.0, 21), rho_floor=1e-12, dt=0.02
        )
        got = res.positions_at(10.0)[:, 0]
        expected = free_gaussian_trajectory(starts[:, 0], 10.0)
        np.testing.assert_allclose(got, expected, rtol=1e-5)

    def test_center_rides_the_packet(self, grid):
        psi = gaussian_packet(grid, 1.0, 0.0, 1.0, 1.0)
        res = integrate_ensemble(
            psi, None, np.array([[0.0]]), np.linspace(0.0, 20.0, 11), rho_floor=1e-12, dt=0.05
        )
        # Start at the symmetric center: stays at x0 + p0 t / m.
        np.testing.assert_allclose(res.positions[0, :, 0], res.times, atol=2e-4)

    def test_zero_duration_grid(self, packet):
        starts = np.array([[0.3], [0.9]])
        res = integrate_ensemble(packet, None, starts, [0.0], rho_floor=1e-12, dt=0.05)
        np.testing.assert_array_equal(res.positions[:, 0, :], starts)
        with pytest.raises(InvalidInputError):
            _ = res.trajectories

    def test_abort_policy_marks_failed_weight(self, packet):
        # An absurd density floor fails every trajectory on its first step.
        res = integrate_ensemble(
            packet, None, np.array([[0.0], [0.5]]), [0.0, 1.0], rho_floor=10.0, dt=0.05
        )
        assert res.diagnostics.failed_weight == 1.0
        assert res.diagnostics.failure_counts() == {"box": 0, "density floor": 2, "speed bound": 0}

    def test_nonpositive_rho_floor_rejected(self, packet):
        with pytest.raises(InvalidInputError, match="rho_floor must be positive"):
            integrate_ensemble(packet, None, np.array([[0.0]]), [0.0, 1.0], rho_floor=0.0, dt=0.05)

    @pytest.mark.parametrize("reason", ["box", "density floor", "speed bound"])
    def test_each_rejection_reason_fails_one_trajectory(self, reason, edge_packet):
        """A rejected evaluation fails its trajectory, whatever the reason:
        the trajectory keeps its start position, its reason is counted, and
        the other trajectories run on untouched."""
        rho_floor = 1e-12
        starts = np.linspace(-2.0, 2.0, 199)
        if reason == "box":
            # The field carries a start just inside the right edge out of
            # the box on its first step; the tiny floor keeps the edge point
            # from being rejected as a near-node instead.
            psi = edge_packet
            stuck, rho_floor = 31.99, 1e-300
        elif reason == "density floor":
            # 8 sigma0 out, the density stays below this floor up to t = 2.
            psi = gaussian_packet(GridSpec(4096, -256.0, 256.0), 1.0, 0.0, 0.0, 1.0)
            stuck, rho_floor = 8.0, 1e-3
        else:
            # Equal spinor components give j = rho at every grid point, so
            # every interpolated speed is exactly 1: no start can move.
            spec = GridSpec(512, -32.0, 32.0)
            g = gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0).amplitudes / np.sqrt(2.0)
            psi = GridWavefunction(spec, np.stack([g, g]), 0.0, "dirac", 1.0)
            starts = np.array([])
            stuck = 0.5
        starts = np.append(starts, stuck)[:, None]
        res = integrate_ensemble(psi, None, starts, [0.0, 1.0, 2.0], rho_floor=rho_floor, dt=0.05)
        d = res.diagnostics
        assert d.failed.tolist() == [False] * (len(starts) - 1) + [True]
        assert d.failure_counts() == {
            name: int(name == reason) for name in ("box", "density floor", "speed bound")
        }
        assert np.all(res.positions[-1, :, 0] == stuck)
        assert d.shrink_events.sum() == 0 and d.frozen_steps.sum() == 0
        if len(starts) > 1:
            alone = integrate_ensemble(psi, None, starts[:-1], [0.0, 1.0, 2.0], rho_floor=rho_floor, dt=0.05)
            assert res.positions[:-1].tobytes() == alone.positions.tobytes()

    def test_no_crossing_on_smooth_run(self, packet):
        starts = sample_initial(packet, 400, seed=2)
        res = integrate_ensemble(
            packet, None, starts, np.linspace(0.0, 10.0, 6), rho_floor=1e-12, dt=0.05
        )
        assert count_order_violations(res) == 0

    def test_determinism(self, packet):
        starts = sample_initial(packet, 50, seed=13)
        r1 = integrate_ensemble(packet, None, starts, [0.0, 2.0, 4.0], rho_floor=1e-12, dt=0.05)
        r2 = integrate_ensemble(packet, None, starts, [0.0, 2.0, 4.0], rho_floor=1e-12, dt=0.05)
        np.testing.assert_array_equal(r1.positions, r2.positions)


class TestEquivariance:
    def test_initial_time_noise_level(self, packet):
        starts = sample_initial(packet, 5000, seed=4)
        res = integrate_ensemble(packet, None, starts, [0.0, 1.0], rho_floor=1e-12, dt=0.05)
        d = check_equivariance(res, packet, 0.0)
        assert d < 0.03

    def test_free_gaussian_t5(self, packet):
        starts = sample_initial(packet, 10_000, seed=6)
        res = integrate_ensemble(
            packet, None, starts, np.array([0.0, 5.0]), rho_floor=1e-12, dt=0.05
        )
        d = check_equivariance(res, res.snapshots[1], 5.0)
        assert d < 0.02

    def test_corrupted_ensemble_detected(self, packet):
        starts = sample_initial(packet, 5000, seed=8) + 1.5
        res = integrate_ensemble(packet, None, starts, [0.0, 1.0], rho_floor=1e-12, dt=0.05)
        d = check_equivariance(res, res.snapshots[1], 1.0)
        assert d > 0.2

