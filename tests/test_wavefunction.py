import numpy as np
import pytest

from bohmvel.errors import (
    ConfigurationError,
    InvalidInputError,
    NonConvergedError,
    NumericalFailureError,
)
from bohmvel.wavefunction import (
    DiracPropagator,
    GridSpec,
    GridWavefunction,
    GaussianBarrier,
    SplitStepPropagator,
    gaussian_packet,
    momentum_amplitudes,
    momentum_density,
    outgoing_asymptote,
    positive_energy_spinor,
    project_positive_energy,
    rk4_step_sizes,
    superposed_gaussians,
)

from oracles import free_gaussian_psi, gaussian_width


@pytest.fixture(scope="module")
def line_grid():
    return GridSpec(2048, -128.0, 128.0)


@pytest.fixture(scope="module")
def base_packet(line_grid):
    return gaussian_packet(line_grid, 1.0, 0.0, 0.0, 1.0)


def evolve(psi, potential, dt, n_steps):
    return SplitStepPropagator(psi.spec, psi.mass, potential).advance(psi, dt, n_steps)


def evolve_free_dirac(psi, t):
    return DiracPropagator(psi.spec, psi.mass).advance(psi, t)


class TestGridSpec:
    def test_power_of_two_enforced(self):
        with pytest.raises(InvalidInputError):
            GridSpec(1000, -10.0, 10.0)

    def test_momentum_grid_dual(self, line_grid):
        p = line_grid.momentum_axis()
        assert p.size == 2048
        assert np.max(np.abs(p)) == pytest.approx(np.pi / line_grid.dx, rel=1e-3)


class TestGaussianPacket:
    def test_moments(self, line_grid, base_packet):
        x = line_grid.axis()
        dx = line_grid.dx
        rho = base_packet.density()
        assert base_packet.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.sqrt(np.sum(x**2 * rho) * dx) == pytest.approx(1.0, abs=1e-9)
        md = momentum_density(base_packet)
        p, q = md.p, md.values
        assert md.total() == pytest.approx(1.0, abs=1e-9)
        assert np.sqrt(np.sum(p**2 * q) * md.dp) == pytest.approx(0.5, abs=1e-9)

    def test_mean_momentum(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, 0.0, 2.0, 1.0)
        md = momentum_density(psi)
        p, q = md.p, md.values
        dp = p[1] - p[0]
        assert np.sum(p * q) * dp == pytest.approx(2.0, abs=1e-9)

    def test_clipped_packet_rejected(self):
        spec = GridSpec(64, -4.0, 4.0)
        with pytest.raises(ConfigurationError):
            gaussian_packet(spec, 1.0, 0.0, 0.0, 2.0)

    def test_momentum_density_peak_location(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, 0.0, 1.3, 2.0)
        md = momentum_density(psi)
        p, q = md.p, md.values
        assert p[np.argmax(q)] == pytest.approx(1.3, abs=2 * (p[1] - p[0]))


class TestSchrodingerEvolution:
    def test_zero_steps_identity(self, base_packet):
        out = evolve(base_packet, None, 0.01, 0)
        np.testing.assert_array_equal(out.amplitudes, base_packet.amplitudes)
        assert out.t == base_packet.t

    def test_negative_steps_rejected(self, base_packet):
        # A negative count would otherwise step forward and label the
        # result with a past time.
        prop = SplitStepPropagator(base_packet.spec, 1.0)
        with pytest.raises(InvalidInputError, match="n_steps"):
            prop.advance(base_packet, 0.01, -3)

    def test_free_width_law(self, line_grid, base_packet):
        out = evolve(base_packet, None, 0.01, 200)
        x = line_grid.axis()
        std = np.sqrt(np.sum(x**2 * out.density()) * line_grid.dx)
        assert std == pytest.approx(np.sqrt(2.0), abs=1e-6)
        assert std == pytest.approx(gaussian_width(2.0), abs=1e-6)

    def test_ehrenfest_drift(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, 0.0, 1.0, 1.0)
        out = evolve(psi, None, 0.01, 500)
        x = line_grid.axis()
        assert np.sum(x * out.density()) * line_grid.dx == pytest.approx(5.0, abs=1e-8)

    def test_free_evolution_matches_analytic_in_l2(self, line_grid, base_packet):
        out = evolve(base_packet, None, 0.01, 300)
        x = line_grid.axis()
        ref = free_gaussian_psi(x, 3.0)
        # Global phase is physical here: both conventions fix it identically.
        err = np.sqrt(np.sum(np.abs(out.amplitudes - ref) ** 2) * line_grid.dx)
        assert err < 1e-7

    def test_unitarity(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, -30.0, 1.0, 2.0)
        pot = GaussianBarrier(1.0, 1.0, 0.0)
        out = evolve(psi, pot, 0.01, 2000)
        assert abs(out.norm() - 1.0) < 1e-9

    def test_stability_bound_enforced(self, line_grid, base_packet):
        with pytest.raises(ConfigurationError):
            evolve(base_packet, GaussianBarrier(100.0, 1.0), 0.01, 1)

    def test_free_steps_build_only_the_kinetic_factor(self, base_packet):
        """Free evolution keeps no potential and caches no exp(-iV dt/2);
        its unguarded ``step`` is the guarded advance's amplitudes."""
        prop = SplitStepPropagator(base_packet.spec, 1.0)
        out = prop.advance(base_packet, 0.01, 3)
        assert prop._v is None
        assert list(prop._factors) == [0.01] and prop._factors[0.01][0] is None
        stepped = prop.step(np.asarray(base_packet.amplitudes), 0.01, 3)
        assert stepped.tobytes() == out.amplitudes.tobytes()


@pytest.mark.parametrize("system", ["free", "barrier", "dirac"])
def test_norm_drift_during_evolution_is_refused(line_grid, system):
    """A propagated state whose norm is off by 1e-8 raises InvalidInputError:
    the state constructor holds every evolved state to NORM_TOL (1e-9). A
    cached step factor scaled by 1 + 1e-8 stands in for the drift."""
    scale = 1.0 + 1e-8
    if system == "dirac":
        psi, _ = project_positive_energy(gaussian_packet(line_grid, 1.0, 0.0, 0.75, 1.0, kind="dirac"))
        prop = DiracPropagator(line_grid, 1.0)
        prop._factors[0.01] = tuple(u * scale for u in prop._step_factors(0.01))
    else:
        psi = gaussian_packet(line_grid, 1.0, 0.0, 0.5, 1.0)
        prop = SplitStepPropagator(line_grid, 1.0, GaussianBarrier(1.0, 1.0, 20.0) if system == "barrier" else None)
        exp_v_half, exp_k = prop._step_factors(0.01)
        prop._factors[0.01] = (exp_v_half, exp_k * scale)
    with pytest.raises(InvalidInputError, match="norm"):
        prop.advance(psi, 0.01)


class TestDirac:
    def test_zero_time_identity(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, 0.0, 0.75, 1.0, kind="dirac")
        out = evolve_free_dirac(psi, 0.0)
        # Identity up to the rounding of one FFT round trip.
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, rtol=0, atol=1e-15)
        assert out.t == psi.t

    def test_massless_translation(self):
        spec = GridSpec(1024, -64.0, 64.0)
        psi = gaussian_packet(spec, 0.0, 0.0, 2.0, 1.0, kind="dirac")
        # Upper component of the m=0 Hamiltonian mixes via sigma_x; use a
        # chiral (light-cone) combination to isolate speed +1 transport.
        amps = np.stack([psi.amplitudes[0], psi.amplitudes[0]]) / np.sqrt(2.0)
        chiral = GridWavefunction(spec, amps, 0.0, "dirac", 0.0)
        out = evolve_free_dirac(chiral, 5.0)
        x = spec.axis()
        dx = spec.dx
        center = np.sum(x * out.density()) * dx
        assert center == pytest.approx(5.0, abs=1e-9)

    def test_single_mode_dispersion_phase(self):
        spec = GridSpec(64, -16.0, 16.0)
        m = 1.0
        p_val = spec.momentum_axis()[5]
        u = positive_energy_spinor(np.array([p_val]), m)[:, 0]
        mode = np.exp(1j * p_val * spec.axis()) / np.sqrt(32.0)
        psi = GridWavefunction(spec, np.stack([u[0] * mode, u[1] * mode]), 0.0, "dirac", m)
        t = 3.7
        # A plane wave fills the boundary cells, so only the unguarded step
        # evolves it.
        out = DiracPropagator(spec, m).step(psi.amplitudes, t)
        expected = psi.amplitudes * np.exp(-1j * np.sqrt(p_val**2 + m**2) * t)
        assert np.max(np.abs(out - expected)) < 1e-10
        with pytest.raises(NumericalFailureError, match="boundary"):
            DiracPropagator(spec, m).advance(psi, t)

    def test_norm_preserved_exactly(self, line_grid):
        psi, _ = project_positive_energy(
            gaussian_packet(line_grid, 1.0, 0.0, 0.75, 1.0, kind="dirac")
        )
        out = evolve_free_dirac(psi, 25.0)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_boundary_guard(self):
        # The packet reaches the ends of the periodic grid well before t = 60;
        # both propagators stop instead of returning a wrapped state.
        spec = GridSpec(256, -32.0, 32.0)
        dirac, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 2.0, 1.0, kind="dirac"))
        with pytest.raises(NumericalFailureError, match="boundary") as err:
            evolve_free_dirac(dirac, 60.0)
        assert err.value.diagnostics["boundary_cell_mass"] > 1e-12
        scalar = gaussian_packet(spec, 1.0, 0.0, 2.0, 1.0)
        with pytest.raises(NumericalFailureError, match="boundary"):
            evolve(scalar, None, 0.01, 1200)

    def test_group_velocity_narrow_packet(self, line_grid):
        # v = p/E = 0.6 at p0 = 0.75, m = 1; a narrow momentum spread keeps
        # the density-weighted mean close to the single-mode value, and the
        # drift must match the state's own velocity distribution exactly.
        psi, _ = project_positive_energy(
            gaussian_packet(line_grid, 1.0, 0.0, 0.75, 4.0, kind="dirac")
        )
        out = evolve_free_dirac(psi, 10.0)
        x = line_grid.axis()
        dx = line_grid.dx
        drift = (np.sum(x * out.density()) - np.sum(x * psi.density())) * dx / 10.0
        assert drift == pytest.approx(0.6, abs=0.01)
        md = momentum_density(psi)
        p, q = md.p, md.values
        dp = p[1] - p[0]
        v_mean = np.sum(p / np.sqrt(p**2 + 1.0) * q) * dp
        assert drift == pytest.approx(v_mean, abs=1e-4)


class TestPositiveEnergyProjection:
    def test_idempotent_on_projected_state(self, line_grid):
        psi, _ = project_positive_energy(
            gaussian_packet(line_grid, 1.0, 0.0, 0.75, 1.0, kind="dirac")
        )
        again, discarded = project_positive_energy(psi)
        assert discarded == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(again.amplitudes, psi.amplitudes, atol=1e-12)

    def test_balanced_superposition_discards_half(self):
        spec = GridSpec(64, -16.0, 16.0)
        m = 1.0
        p_val = spec.momentum_axis()[3]
        u = positive_energy_spinor(np.array([p_val]), m)[:, 0]
        # The -E eigenspinor is orthogonal: (-p, E+m) normalized.
        energy = np.sqrt(p_val**2 + m**2)
        w = np.array([-p_val, energy + m]) / np.sqrt(2 * energy * (energy + m))
        mode = np.exp(1j * p_val * spec.axis()) / np.sqrt(32.0)
        amps = np.stack([(u[0] + w[0]) * mode, (u[1] + w[1]) * mode]) / np.sqrt(2.0)
        psi = GridWavefunction(spec, amps, 0.0, "dirac", m)
        _, discarded = project_positive_energy(psi)
        assert discarded == pytest.approx(0.5, abs=1e-12)

    def test_rest_spinor_is_positive_energy(self):
        # (1, 0) at p = 0 with beta = diag(1, -1) is the +m eigenvector:
        # a constant envelope is a pure p = 0 mode on the periodic grid.
        spec = GridSpec(64, -16.0, 16.0)
        env = np.full(64, 1.0 / np.sqrt(32.0), dtype=complex)
        psi = GridWavefunction(spec, np.stack([env, np.zeros_like(env)]), 0.0, "dirac", 1.0)
        projected, discarded = project_positive_energy(psi)
        assert discarded == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(projected.amplitudes, psi.amplitudes, atol=1e-14)


class TestOutgoingAsymptote:
    def test_free_case_exact(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, -20.0, 1.5, 1.0)
        out = outgoing_asymptote(psi, None, [4.0, 8.0], dt=0.01, residual_tol=1e-3)
        assert out.cauchy_residual < 1e-12
        md = momentum_density(psi)
        p0, q0 = md.p, md.values
        np.testing.assert_allclose(out.density, q0, atol=1e-12)
        assert out.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_barrier_bimodal_and_monotone(self):
        spec = GridSpec(4096, -320.0, 320.0)
        psi = gaussian_packet(spec, 1.0, -12.0, 1.5, 2.0)
        pot = GaussianBarrier(2.0, 1.0, 0.0)
        out = outgoing_asymptote(psi, pot, [20.0, 30.0, 40.0, 60.0], dt=0.05, residual_tol=1e-2)
        assert np.all(np.diff(out.residual_curve) < 0)
        dp = out.p[1] - out.p[0]
        transmitted = np.sum(out.density[out.p > 0]) * dp
        reflected = np.sum(out.density[out.p < 0]) * dp
        assert transmitted > 0.01 and reflected > 0.01
        assert out.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_nonconverged_raises_with_curve(self, line_grid):
        psi = gaussian_packet(line_grid, 1.0, -20.0, 1.5, 1.0)
        pot = GaussianBarrier(2.0, 1.0, 0.0)
        with pytest.raises(NonConvergedError) as err:
            outgoing_asymptote(psi, pot, [2.0, 4.0], dt=0.02, residual_tol=1e-12)
        assert err.value.residual_curve is not None

    def test_bound_part_fails_naming_the_weight_at_the_center(self):
        # A packet resting on an off-centre attractive well: the bound part
        # never settles under exp(iH0 T) exp(-iHT), and the error names the
        # weight held around the well's own center, not around x = 0.
        spec = GridSpec(2048, -256.0, 256.0)
        psi = gaussian_packet(spec, 1.0, 30.0, 0.0, 1.0)
        pot = GaussianBarrier(-1.0, 1.0, 30.0)
        with pytest.raises(NonConvergedError, match="bound part cannot converge") as err:
            outgoing_asymptote(psi, pot, [20.0, 40.0], dt=0.05, residual_tol=1e-3)
        assert err.value.residual_curve[-1] > 0.5
        assert err.value.diagnostics["interaction_region_weight"] > 0.5

    def test_legs_take_the_guided_half_steps(self, monkeypatch):
        # The extraction runs on the guided chain's clock: each leg takes
        # the half steps of the RK4 steps that rk4_step_sizes lays on it.
        # At dt 0.4 the 1.0-long leg takes the ceiling of 2.5, 3 steps,
        # where rounding would take 2.
        calls = []
        advance = SplitStepPropagator.advance

        def spy(self, psi, dt, n_steps=1):
            calls.append((dt, n_steps))
            return advance(self, psi, dt, n_steps)

        monkeypatch.setattr(SplitStepPropagator, "advance", spy)
        # dx 0.5 keeps a half step of 0.2 within the kinetic bound.
        psi = gaussian_packet(GridSpec(256, -64.0, 64.0), 1.0, -20.0, 1.5, 1.0)
        pot = GaussianBarrier(2.0, 1.0, 0.0)
        times, dt = [2.0, 3.0, 4.5], 0.4
        outgoing_asymptote(psi, pot, times, dt=dt, residual_tol=10.0)
        legs = rk4_step_sizes([0.0, *times], dt)
        assert [n for _, n in legs] == [5, 3, 4]
        assert calls == [(0.5 * h, 2 * n) for h, n in legs]


class TestSuperposition:
    def test_two_mode_momentum_density(self):
        spec = GridSpec(4096, -256.0, 256.0)
        psi = superposed_gaussians(
            spec, 1.0,
            [{"x0": 0.0, "p0": 1.5, "sigma0": 1.0}, {"x0": 0.0, "p0": -1.5, "sigma0": 1.0}],
        )
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        md = momentum_density(psi)
        p, q = md.p, md.values
        dp = p[1] - p[0]
        plus = np.sum(q[p > 0]) * dp
        minus = np.sum(q[p < 0]) * dp
        # Mirror symmetry is exact; the p = 0 bin keeps each side just shy of 1/2.
        assert plus == pytest.approx(minus, abs=1e-9)
        assert plus == pytest.approx(0.5, abs=5e-4)


def test_momentum_amplitude_parseval(base_packet):
    psi_hat = momentum_amplitudes(base_packet)
    total = np.sum(np.abs(psi_hat) ** 2) * base_packet.spec.dp
    assert total == pytest.approx(1.0, abs=1e-12)


def test_projection_warns_when_mostly_negative(line_grid):
    psi, _ = project_positive_energy(
        gaussian_packet(line_grid, 1.0, 0.0, 0.75, 1.0, kind="dirac")
    )
    # Swapping components of a positive-energy state leaves it mostly in
    # the negative-energy subspace.
    flipped = GridWavefunction(
        line_grid, psi.amplitudes[::-1].copy(), 0.0, "dirac", 1.0
    )
    with pytest.warns(RuntimeWarning, match="discarded weight"):
        project_positive_energy(flipped)


def test_evolve_dirac_requires_dirac_kind(base_packet):
    # A scalar state has no spinor axis; without the guard the step fails
    # with a bare IndexError.
    with pytest.raises(InvalidInputError, match="Dirac state"):
        DiracPropagator(base_packet.spec, base_packet.mass).advance(base_packet, 1.0)
