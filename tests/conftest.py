import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bohmvel.pipeline import PipelineParams, run_guided_pipeline
from bohmvel.wavefunction import (
    GridSpec,
    PotentialSpec,
    gaussian_packet,
    outgoing_asymptote,
    project_positive_energy,
    superposed_gaussians,
)

ACCEPTANCE_SEED = 20260808


@pytest.fixture(scope="session")
def free_gaussian_state():
    spec = GridSpec(4096, -256.0, 256.0)
    return gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def free_gaussian_run(free_gaussian_state):
    """n = 10^4 free-Gaussian ensemble shared by the acceptance criteria."""
    params = PipelineParams(
        n_trajectories=10_000,
        t_max=40.0,
        dt=0.05,
        record_times=(0.0, 5.0, 10.0, 20.0, 40.0),
        checkpoints=(10.0, 20.0, 40.0),
        seed=ACCEPTANCE_SEED,
    )
    return run_guided_pipeline(free_gaussian_state, PotentialSpec.none(), params)


@pytest.fixture(scope="session")
def bimodal_run():
    """n = 10^4 ensemble guided by the +-1.5 momentum superposition."""
    spec = GridSpec(4096, -256.0, 256.0)
    psi = superposed_gaussians(
        spec,
        1.0,
        [{"x0": 0.0, "p0": 1.5, "sigma0": 1.0}, {"x0": 0.0, "p0": -1.5, "sigma0": 1.0}],
    )
    params = PipelineParams(
        n_trajectories=10_000,
        t_max=40.0,
        dt=0.05,
        record_times=(0.0, 5.0, 10.0, 20.0, 40.0),
        checkpoints=(10.0, 20.0, 40.0),
        seed=ACCEPTANCE_SEED,
    )
    return run_guided_pipeline(psi, PotentialSpec.none(), params), psi


@pytest.fixture(scope="session")
def barrier_setup():
    """Gaussian-barrier scattering: ensemble run plus outgoing asymptote."""
    spec = GridSpec(4096, -320.0, 320.0)
    psi = gaussian_packet(spec, 1.0, -12.0, 1.5, 2.0)
    pot = PotentialSpec.gaussian_barrier(2.0, 1.0, 0.0)
    params = PipelineParams(
        n_trajectories=10_000,
        t_max=80.0,
        dt=0.05,
        record_times=(0.0, 10.0, 20.0, 40.0, 80.0),
        checkpoints=(20.0, 40.0, 80.0),
        seed=ACCEPTANCE_SEED,
    )
    run = run_guided_pipeline(psi, pot, params)
    out = outgoing_asymptote(
        psi, pot, [20.0, 30.0, 40.0, 60.0, 80.0], dt=0.01, residual_tol=1e-3
    )
    return psi, pot, run, out


@pytest.fixture(scope="session")
def dirac_state():
    spec = GridSpec(2048, -128.0, 128.0)
    psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 0.75, 1.0, kind="dirac"))
    return psi


@pytest.fixture(scope="session")
def dirac_params():
    # The spinor ensemble needs the longer ladder: eta_t converges like
    # 1/t^2 and the affine fit's truncation bias is still visible against
    # the analytic velocity distribution at t_max = 40.
    return PipelineParams(
        n_trajectories=10_000,
        t_max=80.0,
        dt=0.05,
        record_times=(0.0, 10.0, 20.0, 40.0, 80.0),
        checkpoints=(20.0, 40.0, 80.0),
        seed=ACCEPTANCE_SEED,
    )


@pytest.fixture(scope="session")
def dirac_base_run(dirac_state, dirac_params):
    """n = 10^4 positive-energy Dirac ensemble (lab foliation)."""
    return run_guided_pipeline(dirac_state, PotentialSpec.none(), dirac_params)


def acceptance_line(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
