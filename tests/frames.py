"""Frame relations between two runs of the code under test.

Bohmian mechanics is covariant under space translations and Galilean
boosts, which gives exact per-trajectory relations between two runs on
one fixed grid:

* translation by a: move the packets (and the barrier, if there is one)
  by a and start each trajectory at x(0) + a; every trajectory must then
  move by exactly a;
* Galilean boost by k (free Schrodinger systems): guide by psi0 e^{ikx}
  from the same starts (|psi0|^2 is unchanged); every trajectory must
  then move by exactly k t / m.

A whole-cell translation moves the field by whole lattice cells, so the
relation holds to rounding. A sub-cell translation, or any boost, moves
the field across the lattice, and the mismatch is numerical error that
depends on where the lattice sits. The starts are matched by hand: the
inverse-CDF sampler on the grid does not commute with a sub-cell shift.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bohmvel.cli import (
    _build_state,
    _grid,
    _pipeline_params,
    _potential,
    _setting,
    load_config,
)
from bohmvel.guidance import integrate_ensemble, sample_initial
from bohmvel.pipeline import child_seed

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@dataclass(frozen=True)
class FrameMismatch:
    """Per-trajectory |x_moved(t) - x(t) - shift(t)|, maximized over the
    recorded times, for the trajectories live in both runs, and the number
    of failed trajectories in each run."""

    mismatch: np.ndarray
    failed_base: int
    failed_moved: int


def cells(name: str, n_cells: float) -> float:
    """``n_cells`` lattice spacings of a bundled config's grid."""
    return n_cells * _grid(load_config(str(CONFIGS / name))).dx


def _integrate(cfg: dict, starts: np.ndarray, boost: float = 0.0):
    """A bundled config's ensemble from ``starts``, guided by its state
    times e^{i boost x}, recorded at its record times."""
    params = _pipeline_params(cfg, cfg["seed"])
    psi, _ = _build_state(cfg)
    if boost:
        psi = replace(psi, amplitudes=psi.amplitudes * np.exp(1j * boost * psi.spec.axis()))
    times = np.asarray(params.record_times, dtype=float)
    return integrate_ensemble(
        psi, _potential(cfg), starts, times, rho_floor=params.rho_floor, dt=params.dt
    )


@functools.lru_cache(maxsize=None)
def _base_run(name: str, n: int):
    """A bundled config at ``n`` trajectories from its own seed's starts."""
    cfg = load_config(str(CONFIGS / name))
    params = _pipeline_params(cfg, cfg["seed"])
    psi, _ = _build_state(cfg)
    starts = sample_initial(psi, n, child_seed(params.seed, params.run_key, 0))
    return cfg, starts, _integrate(cfg, starts)


def frame_mismatch(name: str, n: int, shift: float = 0.0, boost: float = 0.0) -> FrameMismatch:
    """Run a bundled config and its image under a translation by ``shift``
    followed by a Galilean boost by ``boost``, from matched starts, at
    ``n`` trajectories and the config's own seed."""
    cfg, starts, base = _base_run(name, n)
    moved_cfg = copy.deepcopy(cfg)
    for packet in moved_cfg["packets"]:
        packet["x0"] += shift
    barrier = _potential(cfg)
    if barrier is not None:
        moved_cfg["potential"]["center"] = barrier.center + shift
    moved = _integrate(moved_cfg, starts + shift, boost)

    expected = base.positions[..., 0] + shift + boost * base.times / float(_setting(cfg, "mass"))
    live = ~(base.diagnostics.failed | moved.diagnostics.failed)
    mismatch = np.abs(moved.positions[live, :, 0] - expected[live]).max(axis=1)
    return FrameMismatch(
        mismatch,
        int(base.diagnostics.failed.sum()),
        int(moved.diagnostics.failed.sum()),
    )
