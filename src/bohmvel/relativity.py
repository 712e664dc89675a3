"""Lorentz boosts of velocities and spinor states, and the covariance
experiments.

A boost is its speed u along x (|u| < 1). The paper's covariance
statement is about the distribution of asymptotic velocities, which
these maps carry between frames; the trajectories themselves depend on
the foliation. Boosting by u2 and then by u1 is the boost by
(u1 + u2) / (1 + u1 u2), and the inverse of u is -u.

Velocities are plain (n, d) sample arrays; they transform by lifting to
future-directed four-vectors (1, v), applying the Lorentz matrix, and
dividing out the time component, which reduces to the familiar addition
law (v - u) / (1 - u v) for collinear motion.

Positive-energy Dirac states boost in momentum space: the scalar
amplitude rides along p -> gamma (p - u E(p)) with the covariant
normalization sqrt(E/E') that keeps the map unitary, and the spinor is
re-attached as the positive-energy eigenvector at the new momentum (the
massive 1+1D little group is trivial, so no extra phase appears).
"""

from __future__ import annotations

import numpy as np

from ._interp import CubicStencil
from .errors import ConfigurationError, InvalidInputError, RegularityError
from .pipeline import PipelineParams, PipelineResult, run_guided_pipeline
from .stats import ks_distance
from .wavefunction import (
    KIND_DIRAC,
    GridWavefunction,
    amplitudes_from_momentum,
    positive_energy_part,
    positive_energy_spinor,
)

__all__ = [
    "transform_velocity_block",
    "boost_dirac_state",
    "foliation_label",
    "verify_boost_covariance",
    "foliation_sweep",
]


def _boost_matrix(u: float, dim: int) -> np.ndarray:
    """Lorentz matrix, (dim+1)x(dim+1), of the boost of speed u along x,
    acting on (t, x_1..x_dim)."""
    if not -1.0 < u < 1.0:
        raise InvalidInputError("boost speed must satisfy |u| < 1")
    vel = np.zeros(dim)
    vel[0] = u
    u2 = float(vel @ vel)
    lam = np.eye(dim + 1)
    if u2 == 0.0:
        return lam
    g = 1.0 / np.sqrt(1.0 - u2)
    lam[0, 0] = g
    lam[0, 1:] = -g * vel
    lam[1:, 0] = -g * vel
    lam[1:, 1:] = np.eye(dim) + (g - 1.0) * np.outer(vel, vel) / u2
    return lam


def transform_velocity_block(samples: np.ndarray, u: float) -> np.ndarray:
    """Relativistic velocity transform of (n, dim) samples under the
    boost of speed u along x."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lam = _boost_matrix(u, samples.shape[1])
    four = np.concatenate([np.ones((samples.shape[0], 1)), samples], axis=1) @ lam.T
    return four[:, 1:] / four[:, :1]


def boost_dirac_state(psi: GridWavefunction, u: float) -> GridWavefunction:
    """Boost a positive-energy Dirac state by velocity u along x.

    Momentum-space implementation: the scalar positive-energy amplitude
    at p' is sqrt(E(p)/E(p')) times the amplitude at p = gamma (p' + u E(p')),
    re-attached to the positive-energy spinor at p'. The packet's mean
    position is factored out of the amplitude before interpolation so the
    transported phase is handled analytically. Unitary up to interpolation
    error; the result is renormalized and must land within 1e-4 of unit
    norm, otherwise the grid cannot contain the boosted support.
    """
    if psi.kind != KIND_DIRAC:
        raise InvalidInputError("boost_dirac_state needs a Dirac state")
    if not -1.0 < u < 1.0:
        raise InvalidInputError("|u| < 1 required")
    if u == 0.0:
        return psi.with_amplitudes(psi.amplitudes.copy())
    spec = psi.spec
    m = psi.mass
    gamma = 1.0 / np.sqrt(1.0 - u * u)

    p_raw = spec.momentum_axis()
    amp = positive_energy_part(psi)
    dp = spec.dp

    order = np.argsort(p_raw)
    p_sorted = p_raw[order]
    amp_sorted = amp[order]
    x_ref = float(np.sum(spec.axis() * psi.density()) * spec.dx)
    smooth = amp_sorted * np.exp(1j * p_sorted * x_ref)

    energy_new = np.sqrt(p_sorted**2 + m**2)
    p_src = gamma * (p_sorted + u * energy_new)
    energy_src = np.sqrt(p_src**2 + m**2)
    (vals,) = CubicStencil([smooth], p_sorted[0], p_sorted[1] - p_sorted[0]).at(p_src)
    vals = np.where((p_src >= p_sorted[0]) & (p_src <= p_sorted[-1]), vals, 0.0)
    amp_new_sorted = np.sqrt(energy_src / energy_new) * vals * np.exp(-1j * p_src * x_ref)

    inv = np.argsort(order)
    amp_new = amp_new_sorted[inv]
    u_new = positive_energy_spinor(p_raw, m)
    psi_hat_new = amp_new[None, :] * u_new
    norm = float(np.sqrt(np.sum(np.abs(psi_hat_new) ** 2) * dp))
    if abs(norm - 1.0) > 1e-4:
        raise ConfigurationError(
            f"boosted support not representable on this grid (norm {norm:.6f})"
        )
    amps = amplitudes_from_momentum(spec, psi_hat_new / norm)
    return psi.with_amplitudes(amps, t=0.0)


def foliation_label(u: float) -> str:
    """Name of the foliation boosted by u in sweep reports and file names."""
    return "id" if u == 0.0 else f"boost_{u:g}"


def verify_boost_covariance(
    psi: GridWavefunction,
    u: float,
    params: PipelineParams,
    base: PipelineResult,
    run_key: int = 1,
    *,
    ks_threshold: float,
) -> dict:
    """Compare the asymptotic measure of psi (the pipeline result
    ``base``), transported by the boost u along x, against the asymptotic
    measure of the boosted state.

    Both pipeline runs must hold their regularity verdicts, otherwise the
    experiment is invalid and a RegularityError propagates. Returns the
    KS distance between the two velocity ensembles and the verdict.
    """
    if not base.regularity.verdict:
        raise RegularityError("base run failed the regularity verdict", base.regularity)
    transported = base.s_plus.transport(lambda s: transform_velocity_block(s, u))

    boosted = run_guided_pipeline(boost_dirac_state(psi, u), None, params.with_run_key(run_key))
    if not boosted.regularity.verdict:
        raise RegularityError("boosted run failed the regularity verdict", boosted.regularity)

    ks = float(np.max(ks_distance(transported, boosted.s_plus)))
    return {
        "u": u,
        "ks": ks,
        "pass": bool(ks <= ks_threshold),
        "ks_threshold": ks_threshold,
        "base_regularity": base.regularity.to_dict(),
        "boosted_regularity": boosted.regularity.to_dict(),
        "transported_measure": transported,
        "boosted_measure": boosted.s_plus,
    }


def foliation_sweep(
    psi: GridWavefunction,
    boosts: list[float],
    params: PipelineParams,
    base: PipelineResult,
    ks_threshold: float,
) -> dict:
    """Asymptotic measures of the foliations boosted by each u in
    ``boosts`` (along x), transported back to the lab frame by -u,
    compared pairwise.

    For u = 0 the measure is the one of ``base``, the pipeline result of
    psi; for every other u the pipeline runs on the boosted state.
    Foliation independence predicts all pairwise KS distances at
    sampling-noise scale. The pipelines run one after another.
    """
    labels = [foliation_label(u) for u in boosts]

    measures, reports = [], []
    for idx, u in enumerate(boosts):
        if u == 0.0:
            res = base
        else:
            res = run_guided_pipeline(
                boost_dirac_state(psi, u), None, params.with_run_key(100 + idx)
            )
        if not res.regularity.verdict:
            raise RegularityError(
                f"foliation {labels[idx]} failed the regularity verdict", res.regularity
            )
        measures.append(res.s_plus.transport(lambda s: transform_velocity_block(s, -u)))
        reports.append(res.regularity.to_dict())
        # Let this run's integration go before the next one starts.
        del res

    n = len(measures)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.max(ks_distance(measures[i], measures[j])))
            matrix[i, j] = matrix[j, i] = d
    passed = bool(np.all(matrix <= ks_threshold))
    return {
        "labels": labels,
        "ks_matrix": matrix,
        "pass": passed,
        "ks_threshold": ks_threshold,
        "regularity": reports,
        "measures": measures,
    }
