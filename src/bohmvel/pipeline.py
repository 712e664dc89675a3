"""End-to-end ensemble pipeline shared by the CLI and the covariance
experiments: sample from |psi_0|^2, integrate the guided ensemble,
extrapolate the asymptotic velocity measure, and keep the regularity
bookkeeping together.

All randomness flows from one root seed through numpy SeedSequence
spawn keys: (run_key, 0) draws the initial configurations, and (17,) the
quantum sample that ``verify_distribution_equality`` compares (and
``bohmvel run`` writes). Distinct runs inside one experiment get
distinct run keys, so results are reproducible and order-independent.
The potential is a ``GaussianBarrier``, or None for free evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import (
    RegularityReport,
    _validate_checkpoints,
    estimate_asymptotic_measure,
)
from .core import EmpiricalMeasure
from .errors import InvalidInputError, RegularityError
from .guidance import (
    FAILED_WEIGHT_LIMIT,
    IntegrationResult,
    integrate_ensemble,
    sample_initial,
)
from .wavefunction import GaussianBarrier, GridWavefunction

__all__ = ["PipelineParams", "PipelineResult", "run_guided_pipeline", "child_seed"]


def child_seed(root_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(k) for k in key))


@dataclass(frozen=True)
class PipelineParams:
    """Knobs of one ensemble run; record times default to a ladder under
    t_max and checkpoints to the geometric tail {t/4, t/2, t}. Checkpoints
    must form a valid extrapolation ladder ending at or before t_max; they
    are added to the record times, which must start at 0, increase
    strictly and end at or before t_max; an error about either names the
    field first. An evaluation below ``rho_floor`` fails its trajectory."""

    n_trajectories: int = 10_000
    t_max: float = 40.0
    dt: float = 0.05
    record_times: tuple[float, ...] | None = None
    checkpoints: tuple[float, ...] | None = None
    eta_tol: float = 0.05
    rho_floor: float = 1e-12
    seed: int = 0
    run_key: int = 0

    def __post_init__(self):
        if self.checkpoints is None:
            object.__setattr__(
                self, "checkpoints", (self.t_max / 4.0, self.t_max / 2.0, self.t_max)
            )
        # Both ladders are checked before any work: the extrapolation would
        # reject the checkpoints only after the whole integration, and a time
        # past t_max would stretch the integration beyond it.
        try:
            _validate_checkpoints(np.asarray(self.checkpoints, dtype=float))
        except InvalidInputError as exc:
            raise InvalidInputError(f"checkpoints: {exc}") from None
        if self.record_times is None:
            ladder = sorted({0.0, self.t_max / 8.0, *self.checkpoints})
            object.__setattr__(self, "record_times", tuple(ladder))
        record = np.asarray(self.record_times, dtype=float)
        if record.size == 0 or record[0] != 0.0:
            raise InvalidInputError("record_times: the first record time must be 0")
        if np.any(np.diff(record) <= 0):
            raise InvalidInputError("record_times: record times must be strictly increasing")
        for name, times in (("checkpoints", self.checkpoints), ("record_times", self.record_times)):
            if times[-1] > self.t_max:
                raise InvalidInputError(
                    f"{name}: last time {times[-1]:g} lies beyond t_max {self.t_max:g}"
                )
        missing = [c for c in self.checkpoints if c not in self.record_times]
        if missing:
            object.__setattr__(
                self, "record_times", tuple(sorted({*self.record_times, *missing}))
            )

    def with_run_key(self, run_key: int) -> "PipelineParams":
        return replace(self, run_key=run_key)


@dataclass
class PipelineResult:
    """One run's asymptotic measure with its provenance; ``integration``
    is None where a caller that needs only the measure has let it go."""

    psi0: GridWavefunction
    s_plus: EmpiricalMeasure
    regularity: RegularityReport
    integration: IntegrationResult | None
    params: PipelineParams


def run_guided_pipeline(
    psi0: GridWavefunction,
    potential: GaussianBarrier | None,
    params: PipelineParams,
) -> PipelineResult:
    """Sample, integrate, and extrapolate one ensemble.

    Raises RegularityError, naming the count of failed trajectories for
    each reason, when their weight exceeds the 0.1% validity limit; the
    convergence verdict itself is left to the caller (some experiments
    only need the report).
    """
    starts = sample_initial(
        psi0, params.n_trajectories, child_seed(params.seed, params.run_key, 0)
    )
    integration = integrate_ensemble(
        psi0,
        potential,
        starts,
        np.asarray(params.record_times, dtype=float),
        rho_floor=params.rho_floor,
        dt=params.dt,
    )
    diag = integration.diagnostics
    if diag.failed_weight > FAILED_WEIGHT_LIMIT:
        reasons = ", ".join(f"{name} {count}" for name, count in diag.failure_counts().items())
        raise RegularityError(
            f"failed-trajectory weight {diag.failed_weight:.2%} exceeds the "
            f"{FAILED_WEIGHT_LIMIT:.1%} validity limit; failed trajectories by "
            f"reason: {reasons}"
        )
    s_plus, report = estimate_asymptotic_measure(
        integration,
        np.asarray(params.checkpoints, dtype=float),
        params.eta_tol,
    )
    return PipelineResult(psi0, s_plus, report, integration, params)
