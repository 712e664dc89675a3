"""Guided-trajectory ensembles and their asymptotic velocity distributions.

The package simulates ensembles of de Broglie-Bohm trajectories driven
by evolving wave functions (spectral Schrodinger and free 1+1D Dirac),
estimates the distribution of their limiting velocities k(t)/t, and
compares it against the velocity distribution carried by the quantum
state itself, including under Lorentz boosts and across flat foliations.
Natural units hbar = c = 1 throughout.
"""

from .core import EmpiricalMeasure, EnsembleRun, SampledTrajectory
from .errors import (
    BohmvelError,
    ConfigurationError,
    DomainError,
    InvalidInputError,
    NonConvergedError,
    NumericalFailureError,
    RegularityError,
)
from .wavefunction import (
    GaussianBarrier,
    GridSpec,
    GridWavefunction,
    OutgoingAsymptote,
    gaussian_packet,
    momentum_density,
    outgoing_asymptote,
    project_positive_energy,
    superposed_gaussians,
)
from .guidance import (
    check_equivariance,
    integrate_ensemble,
    sample_initial,
)
from .asymptotics import (
    RegularityReport,
    VelocityDistribution,
    dirac_velocity_distribution,
    estimate_asymptotic_measure,
    free_velocity_distribution,
    rotating_trajectory_family,
    scattering_velocity_distribution,
    velocity_measure_at,
    verify_distribution_equality,
)
from .relativity import (
    boost_dirac_state,
    foliation_sweep,
    verify_boost_covariance,
)
from .stats import (
    ks_critical_value,
    ks_distance,
    wasserstein1_1d,
)
from .pipeline import PipelineParams, PipelineResult, run_guided_pipeline

__version__ = "0.1.0"
