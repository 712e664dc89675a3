import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmvel.errors import ConfigurationError, InvalidInputError
from bohmvel.relativity import boost_dirac_state, transform_velocity_block
from bohmvel.asymptotics import dirac_velocity_distribution
from bohmvel.stats import ks_two_sample_1d
from bohmvel.wavefunction import (
    DiracPropagator,
    GridSpec,
    gaussian_packet,
    project_positive_energy,
)

from oracles import (
    boost_residual,
    boost_velocity_1d,
    boost_worldline,
    free_gaussian_trajectory,
    is_worldline,
    position_at,
    random_worldline_polyline,
)


def transform(v, u):
    """One velocity vector through ``transform_velocity_block`` (boost u
    along x)."""
    return transform_velocity_block(v[None, :], u)[0]


def line_traj(v, c=0.0):
    """(times, points) of a straight line on t in [0, 10]."""
    t = np.linspace(0.0, 10.0, 21)
    return t, np.outer(t, np.atleast_1d(v)) + np.atleast_1d(c)


class TestBoostWorldline:
    """The world-line boost oracle that the kinematics checks rest on."""

    def test_identity_boost(self):
        times, pts = line_traj(0.8)
        out_t, out = boost_worldline(times, pts, 0.0)
        s = out_t[1:-1]
        np.testing.assert_allclose(position_at(out_t, out, s), position_at(times, pts, s), rtol=0, atol=1e-12)

    def test_straight_line_slope(self):
        out_t, out = boost_worldline(*line_traj(0.8), 0.5)
        slope = (out[-1, 0] - out[0, 0]) / (out_t[-1] - out_t[0])
        assert slope == pytest.approx(boost_velocity_1d(0.8, 0.5), abs=1e-12)
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_static_trajectory(self):
        out_t, out = boost_worldline(*line_traj(0.0), 0.5)
        mid = out_t.size // 2
        assert out[mid, 0] / out_t[mid] == pytest.approx(-0.5, abs=1e-12)

    def test_superluminal_rejected(self):
        # u v > 1 makes the reparameterization non-monotone.
        with pytest.raises(ValueError, match="not a world line"):
            boost_worldline(*line_traj(1.5), 0.8)

    def test_worldline_preserved(self):
        rng = np.random.default_rng(14)
        times, pts = random_worldline_polyline(rng, dim=3)
        assert is_worldline(times, pts)
        assert is_worldline(*boost_worldline(times, pts, 0.6))

    def test_round_trip_exact_on_polylines(self):
        rng = np.random.default_rng(15)
        times, pts = random_worldline_polyline(rng, dim=2)
        back_t, back = boost_worldline(*boost_worldline(times, pts, 0.45), -0.45)
        inside = (times >= back_t[0]) & (times <= back_t[-1])
        np.testing.assert_allclose(position_at(back_t, back, times[inside]), pts[inside], atol=1e-9)


class TestTransformVelocity:
    def test_comoving_frame(self):
        v = transform(np.array([0.5]), 0.5)
        assert v[0] == pytest.approx(0.0, abs=1e-15)

    def test_transverse_boost_value(self):
        v = transform(np.array([0.0, 0.6, 0.0]), 0.8)
        np.testing.assert_allclose(v, [-0.8, 0.36, 0.0], atol=1e-12)

    def test_lightlike_preserved(self):
        v = transform(np.array([1.0, 0.0, 0.0]), 0.8)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@given(
    v=st.floats(-0.95, 0.95),
    u1=st.floats(-0.9, 0.9),
    u2=st.floats(-0.9, 0.9),
)
@settings(max_examples=80, deadline=None)
def test_velocity_group_composition_collinear(v, u1, u2):
    # Boosting by u2 and then by u1 is the boost by their relativistic sum.
    vp = np.array([v])
    seq = transform(transform(vp, u2), u1)
    comp = transform(vp, (u1 + u2) / (1.0 + u1 * u2))
    np.testing.assert_allclose(seq, comp, atol=1e-12)


@given(vx=st.floats(-1.0, 1.0), u=st.floats(-0.95, 0.95))
@settings(max_examples=80, deadline=None)
def test_unit_ball_invariance(vx, u):
    v = transform(np.array([vx]), u)
    assert abs(v[0]) <= 1.0 + 1e-12


class TestBoostVelocityConsistency:
    """The package's limiting-velocity fit commutes with the world-line
    boost oracle."""

    def test_straight_line_exact_in_range(self):
        t = np.linspace(0.0, 40.0, 81)
        residual = boost_residual(t, (0.6 * t + 1.0)[:, None], 0.3, [10.0, 20.0, 40.0])
        assert residual < 1e-12

    def test_free_gaussian_path(self):
        t = np.concatenate([[0.0], np.geomspace(0.25, 40.0, 600)])
        x = free_gaussian_trajectory(1.0, t)
        residual = boost_residual(t, x[:, None], 0.3, [10.0, 20.0, 40.0])
        assert residual < 5e-3

    def test_random_polylines_pass(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            times, pts = random_worldline_polyline(rng, dim=3)
            residual = boost_residual(times, pts, 0.4, [40.0, 80.0, 160.0])
            assert residual <= 1e-2, residual


@pytest.fixture(scope="module")
def state():
    spec = GridSpec(2048, -128.0, 128.0)
    psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 0.0, 4.0, kind="dirac"))
    return psi


class TestBoostDiracState:
    def test_identity(self, state):
        out = boost_dirac_state(state, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_unitary(self, state):
        out = boost_dirac_state(state, 0.35)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_drift_matches_velocity_addition(self, state):
        u = 0.3
        out = boost_dirac_state(state, u)
        moved = DiracPropagator(out.spec, out.mass).advance(out, 10.0)
        x = state.spec.axis()
        dx = state.spec.dx
        drift = (np.sum(x * moved.density()) - np.sum(x * out.density())) * dx / 10.0
        # Exact oracle: the mean of the boosted state's own velocity
        # distribution; for this narrow packet it is close to -u.
        q = dirac_velocity_distribution(out)
        assert drift == pytest.approx(q.mean(), abs=1e-3)
        assert drift == pytest.approx(-u, abs=6e-3)

    def test_distribution_is_velocity_addition_pushforward(self, state):
        u = 0.3
        out = boost_dirac_state(state, u)
        q_base = dirac_velocity_distribution(state)
        q_boost = dirac_velocity_distribution(out)
        n = 100_000
        pushed = boost_velocity_1d(q_base.sample(n, 71)[:, 0], u)
        direct = q_boost.sample(n, 72)[:, 0]
        w = np.full(n, 1.0 / n)
        assert ks_two_sample_1d(pushed, w, direct, w) < 0.01

    def test_negative_energy_component_rejected(self, state):
        spec = state.spec
        raw = gaussian_packet(spec, 1.0, 0.0, 0.0, 4.0, kind="dirac")
        with pytest.raises(InvalidInputError):
            boost_dirac_state(raw, 0.3)

    def test_unrepresentable_boost_rejected(self):
        # A tight grid cannot hold the blue-shifted momentum support.
        spec = GridSpec(64, -16.0, 16.0)
        psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 2.2, 1.0, kind="dirac"))
        with pytest.raises(ConfigurationError):
            boost_dirac_state(psi, -0.9)


@given(v=st.floats(-0.99, 0.99), u=st.floats(-0.9, 0.9))
@settings(max_examples=60, deadline=None)
def test_boosted_straight_worldline_stays_worldline(v, u):
    times, pts = line_traj(v)
    assert is_worldline(times, pts)
    assert is_worldline(*boost_worldline(times, pts, u))


@pytest.fixture(scope="module")
def small_setup():
    from bohmvel.pipeline import PipelineParams, run_guided_pipeline

    spec = GridSpec(1024, -128.0, 128.0)
    psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 0.75, 1.0, kind="dirac"))
    params = PipelineParams(
        n_trajectories=1500, t_max=40.0, dt=0.05,
        checkpoints=(10.0, 20.0, 40.0), record_times=(0.0, 10.0, 20.0, 40.0), seed=99,
    )
    base = run_guided_pipeline(psi, None, params)
    return psi, params, base


class TestCovarianceMachinery:
    """Small-n sanity runs of the full covariance machinery; the full-scale
    verdicts live in the acceptance suite."""

    def test_identity_sweep_single_zero_entry(self, small_setup):
        from bohmvel.relativity import foliation_sweep

        psi, params, base = small_setup
        sweep = foliation_sweep(psi, [0.0], params, base, ks_threshold=0.05)
        assert sweep["ks_matrix"].shape == (1, 1)
        assert sweep["ks_matrix"][0, 0] == 0.0
        assert sweep["pass"]

    def test_negative_control_untransported_measure_fails(self, small_setup):
        from bohmvel.pipeline import run_guided_pipeline
        from bohmvel.stats import ks_distance

        psi, params, base = small_setup
        u = 0.3
        boosted = run_guided_pipeline(boost_dirac_state(psi, u), None, params.with_run_key(7))
        # Skipping the velocity transport leaves the two ensembles a full
        # velocity-addition shift apart.
        raw_ks = float(np.max(ks_distance(base.s_plus, boosted.s_plus)))
        assert raw_ks > 0.2

    def test_verify_boost_covariance_small(self, small_setup):
        from bohmvel.relativity import verify_boost_covariance

        psi, params, base = small_setup
        rep = verify_boost_covariance(psi, 0.2, params, base=base, run_key=3, ks_threshold=0.08)
        assert rep["pass"]
        assert rep["ks"] < 0.08
