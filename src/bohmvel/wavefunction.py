"""Wave functions on a periodic spectral line and their evolution.

Every state lives on one uniform periodic grid in one space dimension
(``GridSpec``): a scalar Schrodinger amplitude or a free 1+1D Dirac
2-spinor. Schrodinger states evolve by Strang-split spectral stepping
(exp(-iV dt/2) . exp(-iK dt) . exp(-iV dt/2) per step); Dirac states
evolve exactly per momentum mode through the 2x2 matrix exponential of
H(p) = alpha p + beta m.

A potential is a ``GaussianBarrier``; free evolution passes None. Both
propagators are built once per run and cache per step size what
``advance(psi, dt)`` needs.

Dirac matrix convention (fixed for reproducibility of spinor-level
values): alpha = sigma_x, beta = diag(1, -1), so

    H(p) = [[ m,  p],
            [ p, -m]],   E(p) = sqrt(p^2 + m^2).

Momentum amplitudes use the continuum convention
psi_hat(p) = (2 pi)^(-1/2) * integral psi(x) exp(-i p x) dx, discretized
on the FFT dual grid, so sum |psi_hat|^2 dp = sum |psi|^2 dx = 1.

The grid is periodic: it must be sized so that boundary amplitude stays
negligible over a run. A leak monitor checks every state that either
propagator returns and aborts evolution when amplitude reaches the edge.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidInputError,
    NonConvergedError,
    NumericalFailureError,
)

__all__ = [
    "GridSpec",
    "GridWavefunction",
    "GaussianBarrier",
    "OutgoingAsymptote",
    "MomentumDensity",
    "check_packet_fits",
    "gaussian_packet",
    "superposed_gaussians",
    "SplitStepPropagator",
    "check_split_step_stability",
    "extraction_steps",
    "DiracPropagator",
    "project_positive_energy",
    "positive_energy_spinor",
    "positive_energy_part",
    "momentum_amplitudes",
    "amplitudes_from_momentum",
    "momentum_density",
    "outgoing_asymptote",
]

KIND_SCHRODINGER = "schrodinger"
KIND_DIRAC = "dirac"

# Norm and leak tolerances. The leak monitor bounds the probability mass
# sitting in boundary cells: real packet arrival carries mass and trips
# it well before periodic wrap-around can corrupt the run, while the
# wide-band split-step noise shell (relative amplitude ~ 1e-6 at
# practical dt, mass ~ 1e-11) stays below it. Grids must be sized so the
# physical state never pushes boundary-cell mass past LEAK_MASS_TOL.
NORM_TOL = 1e-9
NORM_ABORT = 1e-6
LEAK_MASS_TOL = 1e-12
PACKET_TAIL_REL = 1e-12
# Negative-energy weight allowed where a positive-energy state is required.
NEG_ENERGY_TOL = 1e-6


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic line of n_points cells on [x_min, x_max).

    n_points is a power of two >= 16. Error messages start with the name
    of the offending field, so a config validator can prefix its path.
    """

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = int(self.n_points)
        if n < 16 or not _is_power_of_two(n):
            raise InvalidInputError(f"n_points must be a power of two >= 16, got {n}")
        if not float(self.x_max) > float(self.x_min):
            raise InvalidInputError("x_max must exceed x_min")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    def axis(self) -> np.ndarray:
        # Periodic grid: x_max itself is excluded.
        return self.x_min + self.dx * np.arange(self.n_points)

    def momentum_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dx)


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on a grid: scalar (Schrodinger) or 2-spinor (Dirac).

    Scalar amplitudes have shape (n,); Dirac states carry a leading spinor
    axis, shape (2, n). L2 norm is 1 within NORM_TOL.
    """

    spec: GridSpec
    amplitudes: np.ndarray
    t: float
    kind: str
    mass: float

    def __post_init__(self):
        # A private copy: freezing it leaves the caller's array writable,
        # and no view the caller holds can change the state or its norm.
        amps = np.array(self.amplitudes, dtype=complex)
        n = self.spec.n_points
        if self.kind == KIND_SCHRODINGER:
            if amps.shape != (n,):
                raise InvalidInputError("scalar amplitude shape must match grid")
        elif self.kind == KIND_DIRAC:
            if amps.shape != (2, n):
                raise InvalidInputError("Dirac amplitudes need shape (2, n)")
        else:
            raise InvalidInputError(f"unknown kind {self.kind!r}")
        if self.mass < 0:
            raise InvalidInputError("mass must be nonnegative")
        object.__setattr__(self, "amplitudes", amps)
        self.amplitudes.setflags(write=False)
        # The amplitudes are private and read-only, so the norm is computed
        # once, here.
        norm = float(np.sqrt(np.sum(np.abs(amps) ** 2) * self.spec.dx))
        object.__setattr__(self, "_norm", norm)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidInputError(f"wavefunction norm {norm} deviates from 1 beyond {NORM_TOL}")

    def norm(self) -> float:
        return self._norm

    def density(self) -> np.ndarray:
        """Position density rho(x); spinor components are summed."""
        if self.kind == KIND_DIRAC:
            return np.sum(np.abs(self.amplitudes) ** 2, axis=0)
        return np.abs(self.amplitudes) ** 2

    def with_amplitudes(self, amps: np.ndarray, t: float | None = None) -> "GridWavefunction":
        return replace(
            self, amplitudes=amps, t=self.t if t is None else float(t)
        )

    def boundary_cell_mass(self) -> float:
        """Largest probability mass held by a single boundary cell."""
        edge = float(np.max(np.abs(self.amplitudes[..., [0, -1]])))
        return edge**2 * self.spec.dx


def _axis_phase(spec: GridSpec, sign: float) -> np.ndarray:
    """exp(sign * i * p x_min) over the momentum grid."""
    # + 0.0 turns the -0.0 of the p = 0 mode (for x_min < 0) into +0.0,
    # whose sign would otherwise reach the imaginary zero of its factor.
    phase = spec.momentum_axis() * spec.x_min + 0.0
    return np.exp(1j * sign * phase)


def momentum_amplitudes(psi: GridWavefunction) -> np.ndarray:
    """Continuum-convention psi_hat(p) on the (unshifted) FFT dual grid."""
    spec = psi.spec
    scale = spec.dx / (2.0 * np.pi) ** 0.5
    raw = np.fft.fft(psi.amplitudes)
    return raw * scale * _axis_phase(spec, -1.0)


def amplitudes_from_momentum(spec: GridSpec, psi_hat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`momentum_amplitudes`."""
    scale = spec.dx / (2.0 * np.pi) ** 0.5
    return np.fft.ifft(psi_hat * _axis_phase(spec, 1.0)) / scale


@dataclass(frozen=True)
class MomentumDensity:
    """|psi_hat|^2 on the sorted dual grid p (spinor components summed)."""

    p: np.ndarray
    values: np.ndarray
    dp: float

    def total(self) -> float:
        return float(np.sum(self.values) * self.dp)


def momentum_density(psi: GridWavefunction) -> MomentumDensity:
    """Momentum-space probability density, normalized so sum * dp = 1."""
    psi_hat = momentum_amplitudes(psi)
    dens = np.abs(psi_hat) ** 2
    if psi.kind == KIND_DIRAC:
        dens = np.sum(dens, axis=0)
    dens = np.fft.fftshift(dens)
    p = np.fft.fftshift(psi.spec.momentum_axis())
    return MomentumDensity(p, dens, psi.spec.dp)


@dataclass(frozen=True)
class GaussianBarrier:
    """External potential V(x) = height * exp(-(x - center)^2 / (2 width^2));
    a negative height makes a well."""

    height: float
    width: float
    center: float = 0.0

    def __post_init__(self):
        if not self.width > 0:
            raise InvalidInputError("barrier width must be positive")

    def evaluate(self, spec: GridSpec) -> np.ndarray:
        r2 = (spec.axis() - self.center) ** 2
        return self.height * np.exp(-r2 / (2.0 * self.width**2))

    def interaction_radius(self) -> float:
        """Radius about ``center`` beyond which the potential is negligible."""
        return 8.0 * self.width


def check_packet_fits(spec: GridSpec, x0: float, sigma0: float) -> None:
    """Raise ConfigurationError unless a Gaussian packet centred at x0 with
    width sigma0 lies on the grid: centre inside [x_min, x_max) and the
    tail at the nearer boundary below PACKET_TAIL_REL. Scalar arithmetic
    only, so validating a config stays cheap."""
    if not spec.x_min < x0 < spec.x_max:
        raise ConfigurationError(
            f"packet center {x0:g} outside the grid [{spec.x_min:g}, {spec.x_max:g})"
        )
    edge = min(x0 - spec.x_min, spec.x_max - x0)
    tail = math.exp(-(edge**2) / (4.0 * sigma0**2))
    if tail > PACKET_TAIL_REL:
        raise ConfigurationError(
            f"packet tail {tail:.2e} at grid boundary exceeds {PACKET_TAIL_REL:.0e}; enlarge the grid"
        )


def gaussian_packet(
    spec: GridSpec,
    mass: float,
    x0: float,
    p0: float,
    sigma0: float,
    kind: str = KIND_SCHRODINGER,
) -> GridWavefunction:
    """Normalized Gaussian packet: |psi|^2 std sigma0, momentum std 1/(2 sigma0).

    psi ~ exp(-(x-x0)^2/(4 sigma0^2) + i p0 (x - x0)). For Dirac the
    packet fills the upper spinor component (project afterwards for a
    positive-energy state). Raises if the tails are clipped by the grid.
    """
    x0, p0, sigma0 = float(x0), float(p0), float(sigma0)
    if sigma0 <= 0:
        raise InvalidInputError("sigma0 must be positive")
    check_packet_fits(spec, x0, sigma0)
    dxi = spec.axis() - x0
    amp = np.exp(-(dxi**2) / (4.0 * sigma0**2) + 1j * p0 * dxi)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * spec.dx)
    if kind == KIND_DIRAC:
        spinor = np.zeros((2, spec.n_points), dtype=complex)
        spinor[0] = amp
        return GridWavefunction(spec, spinor, 0.0, KIND_DIRAC, mass)
    return GridWavefunction(spec, amp, 0.0, KIND_SCHRODINGER, mass)


def superposed_gaussians(
    spec: GridSpec,
    mass: float,
    components: Sequence[dict],
    kind: str = KIND_SCHRODINGER,
) -> GridWavefunction:
    """Normalized superposition of Gaussian packets.

    Each component dict carries x0, p0, sigma0 and an optional complex
    ``amplitude`` (default 1). A single component reduces to
    :func:`gaussian_packet`.
    """
    if not components:
        raise InvalidInputError("need at least one packet component")
    if len(components) == 1:
        comp = components[0]
        return gaussian_packet(
            spec, mass, comp["x0"], comp["p0"], comp["sigma0"], kind=kind
        )
    parts = [
        gaussian_packet(spec, mass, comp["x0"], comp["p0"], comp["sigma0"], kind=kind)
        for comp in components
    ]
    amps = np.zeros_like(parts[0].amplitudes)
    for comp, part in zip(components, parts):
        amps = amps + complex(comp.get("amplitude", 1.0)) * part.amplitudes
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * spec.dx)
    return GridWavefunction(spec, amps, 0.0, kind, mass)


def check_split_step_stability(
    spec: GridSpec, mass: float, potential: GaussianBarrier | None, dt: float
) -> None:
    """Raise ConfigurationError unless a split step of size dt keeps
    dt * max|V| <= 0.5 and dt * p_max^2 / (2m) <= 2 pi. Free evolution is
    exact per mode for any dt."""
    if potential is None:
        return
    if dt * float(np.max(np.abs(potential.evaluate(spec)))) > 0.5:
        raise ConfigurationError("dt * max|V| exceeds the stability bound 0.5")
    if dt * float(np.max(spec.momentum_axis() ** 2)) / (2.0 * mass) > 2.0 * np.pi:
        raise ConfigurationError("dt * p_max^2/(2m) exceeds the stability bound 2 pi")


class SplitStepPropagator:
    """Strang split-step spectral stepper for the Schrodinger equation.

    The phase factors of a step size are built, and its stability
    checked, the first time it is used.
    """

    def __init__(self, spec: GridSpec, mass: float, potential: GaussianBarrier | None = None):
        if mass <= 0:
            raise InvalidInputError("Schrodinger evolution needs mass > 0")
        self.spec = spec
        self.mass = mass
        self.potential = potential
        self._v = np.zeros(spec.n_points) if potential is None else potential.evaluate(spec)
        self._k2 = spec.momentum_axis() ** 2
        self._factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _step_factors(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """exp(-iV dt/2) and the kinetic factor exp(-iK dt) of a step of size dt."""
        if dt not in self._factors:
            if dt <= 0:
                raise InvalidInputError("dt must be positive")
            check_split_step_stability(self.spec, self.mass, self.potential, dt)
            self._factors[dt] = (
                np.exp(-0.5j * dt * self._v),
                np.exp(-0.5j * dt * self._k2 / self.mass),
            )
        return self._factors[dt]

    def step(self, amps: np.ndarray, dt: float, n_steps: int = 1) -> np.ndarray:
        """Advance amplitudes by n_steps of size dt, fusing the inner half-kicks."""
        if n_steps == 0:
            return amps.copy()
        exp_v_half, exp_k = self._step_factors(dt)
        amps = exp_v_half * amps
        for _ in range(n_steps - 1):
            amps = np.fft.ifft(exp_k * np.fft.fft(amps))
            amps = exp_v_half * exp_v_half * amps
        amps = np.fft.ifft(exp_k * np.fft.fft(amps))
        return exp_v_half * amps

    def advance(self, psi: GridWavefunction, dt: float, n_steps: int = 1) -> GridWavefunction:
        """psi advanced by n_steps * dt, through the norm and leak guard."""
        if psi.kind != KIND_SCHRODINGER:
            raise InvalidInputError("split-step propagator needs a Schrodinger state")
        if n_steps < 0:
            raise InvalidInputError(f"n_steps must be >= 0, got {n_steps}")
        amps = self.step(np.asarray(psi.amplitudes), dt, n_steps)
        out = psi.with_amplitudes(amps, t=psi.t + n_steps * dt)
        _check_health(out)
        return out


def _check_health(psi: GridWavefunction) -> None:
    n = psi.norm()
    if abs(n - 1.0) > NORM_ABORT:
        raise NumericalFailureError(
            "norm drift beyond 1e-6 during evolution",
            {"norm": n, "t": psi.t},
        )
    leak = psi.boundary_cell_mass()
    if leak > LEAK_MASS_TOL:
        raise NumericalFailureError(
            "wave packet reached the grid boundary (periodic wrap imminent)",
            {"boundary_cell_mass": leak, "t": psi.t},
        )


def _dirac_apply_exp(
    amps_hat: np.ndarray, p: np.ndarray, mass: float, c: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """exp(-i H(p) t) applied per mode: cos(Et) - i sin(Et)/E * H(p)."""
    upper = c * amps_hat[0] - 1j * s * (mass * amps_hat[0] + p * amps_hat[1])
    lower = c * amps_hat[1] - 1j * s * (p * amps_hat[0] - mass * amps_hat[1])
    return np.stack([upper, lower])


class DiracPropagator:
    """Exact free 1+1D Dirac evolution in momentum space.

    The exact operator is periodic too, so every state it returns goes
    through the same norm and leak guard as the split-step propagator's.
    The step factors depend only on the advance time, which an ensemble
    integration repeats every half step, so they are cached per time.
    """

    def __init__(self, spec: GridSpec, mass: float):
        self.spec = spec
        self.mass = float(mass)
        self.p = spec.momentum_axis()
        self._factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _step_factors(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode cos(Et) and sin(Et)/E of exp(-i H(p) t)."""
        if t not in self._factors:
            energy = np.sqrt(self.p**2 + self.mass**2)
            # sin(Et)/E with the E -> 0 limit t (only reachable for m = 0, p = 0).
            with np.errstate(invalid="ignore", divide="ignore"):
                s = np.where(energy > 0, np.sin(energy * t) / np.where(energy > 0, energy, 1.0), t)
            self._factors[t] = (np.cos(energy * t), s)
        return self._factors[t]

    def step(self, amps: np.ndarray, t_advance: float) -> np.ndarray:
        """Spinor amplitudes (2, n) advanced by t_advance, unguarded."""
        amps_hat = np.fft.fft(amps, axis=1)
        amps_hat = _dirac_apply_exp(amps_hat, self.p, self.mass, *self._step_factors(t_advance))
        return np.fft.ifft(amps_hat, axis=1)

    def advance(self, psi: GridWavefunction, t_advance: float) -> GridWavefunction:
        """psi advanced by t_advance, through the norm and leak guard."""
        if psi.kind != KIND_DIRAC:
            raise InvalidInputError("Dirac propagator needs a Dirac state")
        out = psi.with_amplitudes(self.step(psi.amplitudes, t_advance), t=psi.t + t_advance)
        _check_health(out)
        return out


def positive_energy_spinor(p: np.ndarray, mass: float) -> np.ndarray:
    """Normalized +E(p) eigenspinor of H(p), shape (2, len(p)).

    u_plus = (E + m, p) / sqrt(2 E (E + m)); at the single degenerate
    massless p = 0 mode it falls back to (1, 0).
    """
    p = np.asarray(p, dtype=float)
    energy = np.sqrt(p**2 + mass**2)
    denom = 2.0 * energy * (energy + mass)
    safe = denom > 0
    denom = np.where(safe, denom, 1.0)
    upper = np.where(safe, (energy + mass) / np.sqrt(denom), 1.0)
    lower = np.where(safe, p / np.sqrt(denom), 0.0)
    return np.stack([upper, lower])


def positive_energy_part(psi: GridWavefunction) -> np.ndarray:
    """Amplitude of psi along the positive-energy spinor per mode of the
    unshifted dual grid; raises InvalidInputError when the state carries
    more negative-energy weight than NEG_ENERGY_TOL."""
    if psi.kind != KIND_DIRAC:
        raise InvalidInputError("the positive-energy part needs a Dirac state")
    psi_hat = momentum_amplitudes(psi)
    u = positive_energy_spinor(psi.spec.momentum_axis(), psi.mass)
    amp = np.conj(u[0]) * psi_hat[0] + np.conj(u[1]) * psi_hat[1]
    dp = psi.spec.dp
    total = float(np.sum(np.abs(psi_hat) ** 2) * dp)
    kept = float(np.sum(np.abs(amp) ** 2) * dp)
    if total - kept > NEG_ENERGY_TOL:
        raise InvalidInputError(
            f"state carries negative-energy weight {total - kept:.2e}; project first"
        )
    return amp


def project_positive_energy(psi: GridWavefunction) -> tuple[GridWavefunction, float]:
    """Project onto the +sqrt(p^2+m^2) eigenspace per mode, renormalize.

    Returns (projected state, discarded weight). Emits a warning when more
    than half the state lives in the negative-energy subspace.
    """
    if psi.kind != KIND_DIRAC:
        raise InvalidInputError("positive-energy projection needs a Dirac state")
    amps_hat = np.fft.fft(psi.amplitudes, axis=1)
    u = positive_energy_spinor(psi.spec.momentum_axis(), psi.mass)
    coef = np.conj(u[0]) * amps_hat[0] + np.conj(u[1]) * amps_hat[1]
    projected_hat = coef[None, :] * u
    total = float(np.sum(np.abs(amps_hat) ** 2))
    kept = float(np.sum(np.abs(projected_hat) ** 2))
    discarded = max(0.0, 1.0 - kept / total)
    if discarded > 0.5:
        warnings.warn(
            f"positive-energy projection discarded weight {discarded:.3f} > 0.5",
            RuntimeWarning,
        )
    if kept == 0.0:
        raise InvalidInputError("state has no positive-energy component")
    amps = np.fft.ifft(projected_hat, axis=1)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * psi.spec.dx)
    return psi.with_amplitudes(amps), discarded


@dataclass(frozen=True)
class OutgoingAsymptote:
    """Momentum density of the free outgoing asymptote of a scattering state.

    ``density`` integrates to 1 over the sorted dual grid ``p``. A state
    with a bound part has no such asymptote: its Cauchy residual stays
    large, and :func:`outgoing_asymptote` raises instead.
    """

    p: np.ndarray
    density: np.ndarray
    cauchy_residual: float
    residual_curve: np.ndarray
    extraction_times: np.ndarray

    def total_mass(self) -> float:
        dp = float(self.p[1] - self.p[0])
        return float(np.sum(self.density) * dp)


def extraction_steps(extraction_times: Sequence[float], dt: float) -> list[tuple[float, int]]:
    """(h, n) for each leg from t = 0 through ``extraction_times``: n split
    steps of size h = leg / n cover it, with n = max(1, round(leg / dt)).
    The times must be positive and increasing, at least two of them."""
    times = np.asarray(extraction_times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0) or times[0] <= 0:
        raise InvalidInputError("need at least two increasing positive extraction times")
    steps = []
    for leg in np.diff(times, prepend=0.0):
        n_steps = max(1, int(round(leg / dt)))
        steps.append((leg / n_steps, n_steps))
    return steps


def outgoing_asymptote(
    psi0: GridWavefunction,
    potential: GaussianBarrier | None,
    extraction_times: Sequence[float],
    dt: float = 0.01,
    residual_tol: float = 1e-3,
) -> OutgoingAsymptote:
    """Free outgoing asymptote via iterates exp(+i H0 T) exp(-i H T) psi0.

    The listed times must be increasing and cover the regime in which the
    packet has cleared the (short-range) interaction region; the Cauchy
    residual is the L2 distance between the last two iterates and must
    fall below ``residual_tol``, otherwise a NonConvergedError carrying
    the whole residual curve is raised. Its diagnostics name the weight
    left within the potential's interaction radius of its center, which
    stays large for a state with a bound part.
    """
    if psi0.kind != KIND_SCHRODINGER:
        raise InvalidInputError("asymptote extraction needs a Schrodinger state")
    times = np.asarray(extraction_times, dtype=float)
    steps = extraction_steps(times, dt)

    p = psi0.spec.momentum_axis()
    mass = psi0.mass
    prop = SplitStepPropagator(psi0.spec, mass, potential)
    psi = psi0
    iterates = []
    for t_target, (h, n_steps) in zip(times, steps):
        psi = prop.advance(psi, h, n_steps)
        phi_hat = np.exp(0.5j * p**2 * t_target / mass) * momentum_amplitudes(psi)
        iterates.append(phi_hat)

    dp = psi0.spec.dp
    residuals = np.asarray(
        [
            float(np.sqrt(np.sum(np.abs(b - a) ** 2) * dp))
            for a, b in zip(iterates[:-1], iterates[1:])
        ]
    )
    if residuals[-1] > residual_tol:
        message = f"outgoing asymptote not converged: residual {residuals[-1]:.3e} > {residual_tol:.0e}"
        diagnostics = {"extraction_times": times.tolist()}
        if potential is not None:
            radius, center = potential.interaction_radius(), potential.center
            near = (psi.spec.axis() - center) ** 2 <= radius**2
            weight = float(np.sum(psi.density()[near]) * psi.spec.dx)
            message += (
                f"; weight {weight:.3f} remains within {radius:g} of x = {center:g} at "
                f"t = {times[-1]:g}, and a state with a bound part cannot converge"
            )
            diagnostics["interaction_region_weight"] = weight
        raise NonConvergedError(message, residual_curve=residuals, diagnostics=diagnostics)
    raw = np.fft.fftshift(np.abs(iterates[-1]) ** 2)
    return OutgoingAsymptote(
        p=np.fft.fftshift(p),
        density=raw / float(np.sum(raw) * dp),
        cauchy_residual=float(residuals[-1]),
        residual_curve=residuals,
        extraction_times=times,
    )
