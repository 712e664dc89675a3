import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bohmvel.cli import _build_state, _pipeline_params, _potential, load_config
from bohmvel.pipeline import run_guided_pipeline
from bohmvel.relativity import boost_dirac_state
from bohmvel.wavefunction import GridSpec, GridWavefunction, outgoing_asymptote

ACCEPTANCE_SEED = 20260808
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(name: str):
    """A bundled config with its state and pipeline parameters, built as
    ``bohmvel run`` builds them, at the config's own seed."""
    cfg = load_config(str(CONFIGS / name))
    assert cfg["seed"] == ACCEPTANCE_SEED
    psi, _ = _build_state(cfg)
    return cfg, psi, _pipeline_params(cfg, cfg["seed"])


@pytest.fixture(scope="session")
def free_gaussian_config():
    return shipped("free_gaussian.json")


@pytest.fixture(scope="session")
def free_gaussian_state(free_gaussian_config):
    return free_gaussian_config[1]


@pytest.fixture(scope="session")
def free_gaussian_run(free_gaussian_config):
    """n = 10^4 free-Gaussian ensemble shared by the acceptance criteria."""
    _, psi, params = free_gaussian_config
    return run_guided_pipeline(psi, None, params)


@pytest.fixture(scope="session")
def bimodal_run():
    """n = 10^4 ensemble guided by the +-1.5 momentum superposition."""
    _, psi, params = shipped("bimodal_superposition.json")
    return run_guided_pipeline(psi, None, params), psi


@pytest.fixture(scope="session")
def barrier_setup():
    """Gaussian-barrier scattering: ensemble run plus outgoing asymptote."""
    cfg, psi, params = shipped("barrier_scattering.json")
    pot = _potential(cfg)
    run = run_guided_pipeline(psi, pot, params)
    moller = cfg["moller"]
    out = outgoing_asymptote(
        psi, pot, moller["extraction_times"], dt=params.dt, residual_tol=moller["residual_tol"]
    )
    return psi, pot, run, out


@pytest.fixture(scope="session")
def dirac_config():
    return shipped("dirac_covariance.json")


@pytest.fixture(scope="session")
def dirac_state(dirac_config):
    return dirac_config[1]


@pytest.fixture(scope="session")
def dirac_params(dirac_config):
    # t_max 30 on (7.5, 10, 15, 20, 30) is the choice of
    # scripts/horizon_study.py (BENCH_horizon_study.json). The fit takes the
    # recorded guiding velocities beside the positions: against the velocity
    # oracle the |v+ error| of the five covariance pipelines reads a median
    # of 2.0e-4 to 3.2e-4 and a max of 5.0e-3 to 7.2e-3 (seeds 20260808, 101
    # and 202). On (10, 20, 40) at t_max 40 it read 1.7e-4 to 2.3e-4 and
    # 9.5e-3 to 1.04e-2; the 3-point ladder (7.5, 15, 30) reads a max of
    # 1.6e-2 to 1.8e-2, and every ladder ending at 25 or sooner a median of
    # 4.4e-4 or more. With positions alone, t_max 40 was too short: the
    # `run` KS read 0.0285 with the affine fit on (10, 20, 40).
    return dirac_config[2]


@pytest.fixture(scope="session")
def dirac_base_run(dirac_state, dirac_params):
    """n = 10^4 positive-energy Dirac ensemble (lab foliation)."""
    return run_guided_pipeline(dirac_state, None, dirac_params)


@pytest.fixture(scope="session")
def dirac_sweep_fast_run(dirac_state, dirac_params):
    """The foliation sweep's u = 0.4 pipeline of ``bohmvel covariance`` on
    the shipped config (run key 100 + its index in ``boosts``)."""
    cfg = load_config(str(CONFIGS / "dirac_covariance.json"))
    idx = cfg["boosts"].index(0.4)
    return run_guided_pipeline(
        boost_dirac_state(dirac_state, 0.4), None, dirac_params.with_run_key(100 + idx)
    )


@pytest.fixture(scope="session")
def edge_packet():
    """A packet moving right whose density at the right edge of its box,
    about 1.3e-15, stands far above the spline prefilter's rounding (about
    1e-17 of the peak 0.1), so a point just inside the edge fails for
    leaving the box, not on a near-zero density floor. Its momentum pi / 2
    is a lattice momentum of the 64-long line, so its phase is periodic.
    Built without ``gaussian_packet``, whose fit check asks for a negligible
    edge; its boundary-cell mass stays below the leak guard up to t = 2."""
    spec = GridSpec(512, -32.0, 32.0)
    x = spec.axis()
    amp = np.exp(-(x**2) / 64.0 + 0.5j * np.pi * x)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * spec.dx)
    return GridWavefunction(spec, amp, 0.0, "schrodinger", 1.0)


def acceptance_line(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
