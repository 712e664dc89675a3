import time

import numpy as np
import pytest

from bohmvel.errors import InvalidInputError, NumericalFailureError, RegularityError
from bohmvel.guidance import integrate_ensemble
from bohmvel.pipeline import PipelineParams, child_seed, run_guided_pipeline
from bohmvel.wavefunction import (
    GridSpec,
    gaussian_packet,
    project_positive_energy,
)


@pytest.fixture(scope="module")
def packet():
    return gaussian_packet(GridSpec(2048, -192.0, 192.0), 1.0, 0.0, 0.0, 1.0)


def test_default_ladders():
    p = PipelineParams(t_max=40.0)
    assert p.checkpoints == (10.0, 20.0, 40.0)
    assert set(p.checkpoints) <= set(p.record_times)
    assert p.record_times[0] == 0.0


def test_explicit_record_times_gain_checkpoints():
    p = PipelineParams(t_max=40.0, record_times=(0.0, 5.0), checkpoints=(10.0, 20.0, 40.0))
    assert set((10.0, 20.0, 40.0)) <= set(p.record_times)


@pytest.mark.parametrize(
    "checkpoints, match",
    [((10.0, 20.0, 30.0), "factor >= 4"), ((20.0, 40.0, 80.0), "beyond t_max"), ((20.0, 10.0, 40.0), "increasing")],
)
def test_bad_checkpoint_ladder_rejected_at_construction(checkpoints, match):
    with pytest.raises(InvalidInputError, match=match):
        PipelineParams(t_max=40.0, checkpoints=checkpoints)


def test_child_seed_scheme_is_stable():
    a = np.random.default_rng(child_seed(7, 0, 0)).random(4)
    b = np.random.default_rng(child_seed(7, 0, 0)).random(4)
    c = np.random.default_rng(child_seed(7, 1, 0)).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_failed_weight_guard(packet):
    params = PipelineParams(
        n_trajectories=50, t_max=4.0, dt=0.5, checkpoints=(1.0, 2.0, 4.0),
        record_times=(0.0, 1.0, 2.0, 4.0), seed=3, rho_floor=10.0,
    )
    with pytest.raises(
        RegularityError,
        match="validity limit; failed trajectories by reason: box 0, density floor 50, speed bound 0$",
    ):
        run_guided_pipeline(packet, None, params)


def test_run_key_changes_draws_only(packet):
    params = PipelineParams(
        n_trajectories=200, t_max=4.0, dt=0.1, checkpoints=(1.0, 2.0, 4.0), seed=5
    )
    r0 = run_guided_pipeline(packet, None, params)
    r1 = run_guided_pipeline(packet, None, params.with_run_key(1))
    again = run_guided_pipeline(packet, None, params)
    assert not np.array_equal(r0.s_plus.samples, r1.s_plus.samples)
    np.testing.assert_array_equal(r0.s_plus.samples, again.s_plus.samples)


def test_dirac_wraparound_fails_fast():
    # A fast spinor packet on a small periodic grid reaches the boundary
    # near t = 25: the Dirac stepper's health check ends the run there,
    # instead of guiding trajectories through the wrapped-around field.
    spec = GridSpec(256, -32.0, 32.0)
    psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 3.0, 1.0, kind="dirac"))
    params = PipelineParams(n_trajectories=200, t_max=40.0, seed=1)
    start = time.perf_counter()
    with pytest.raises(NumericalFailureError, match="grid boundary") as info:
        run_guided_pipeline(psi, None, params)
    assert time.perf_counter() - start < 10.0
    assert 20.0 < info.value.diagnostics["t"] < 30.0


def test_box_exit_fails_fast(edge_packet):
    # The second start sits just inside the right edge of the box and the
    # field carries it out on the first step. The packet's edge mass stays
    # below the leak guard, so no health check trips; the near-zero density
    # floor keeps the edge point from being rejected as a near-node instead.
    psi = edge_packet
    starts = np.array([[0.0], [31.99]])
    start = time.perf_counter()
    res = integrate_ensemble(
        psi, None, starts, np.linspace(0.0, 2.0, 5), rho_floor=1e-300, dt=0.05,
    )
    assert time.perf_counter() - start < 5.0
    diag = res.diagnostics
    np.testing.assert_array_equal(diag.failed, [False, True])
    assert diag.failed_weight == 0.5
    assert diag.failure_counts()["box"] == 1
    assert diag.shrink_events.sum() == 0 and diag.frozen_steps.sum() == 0
    # The failed trajectory keeps the last position it reached in the box.
    assert np.all(res.positions[1, :, 0] == 31.99)
    assert res.positions[0, -1, 0] > 1.0
