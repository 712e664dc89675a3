"""The shared kernels are bitwise equal to the code paths they replace:
the spline stencil against a Horner reference that prefilters each grid
on its own and wraps every stencil offset with ``% n`` (per field, in the
guiding-field evaluation and in the momentum-space boost), the lean RK4
block against a reference that finds failure reasons one trajectory at a
time, the cached norm and the density against their formulas, and the
one float-CSV writer against the per-row loops that each table had. The
stencil is also held to independent properties of the periodic cubic
spline: SciPy's periodic ``CubicSpline``, the B-spline weight form,
exactness at nodes and on quadratics away from the periodic seam,
fourth-order convergence and C2 continuity across cells. The Dirac
propagator's cached mode matrix and its kept spectrum change rounding:
they are held to 1e-13 against the per-call formula and a chain of cold
advances, and a state it did not return last gets the cold advance bit
for bit. The same holds for the split-step propagator's kept spectrum on
free evolution; with a potential it keeps none, and each step is the
Strang step written out, bit for bit."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bohmvel import guidance, relativity
from bohmvel._interp import CubicStencil
from bohmvel.cli import _build_state, cmd_plotdata, load_config
from bohmvel.core import _CSV_CHUNK, EmpiricalMeasure, _write_float_csv
from bohmvel.errors import ConfigurationError, InvalidInputError
from bohmvel.guidance import EnsembleDiagnostics, FieldSnapshot, sample_initial
from bohmvel.wavefunction import (
    KIND_DIRAC,
    DiracPropagator,
    GaussianBarrier,
    GridSpec,
    GridWavefunction,
    SplitStepPropagator,
    gaussian_packet,
    project_positive_energy,
)


def spline_coefficients(values):
    """B-spline coefficients of one grid on its periodic line: its Fourier
    transform divided by the sampling filter (4 + 2 cos(2 pi k / n)) / 6."""
    values = np.asarray(values)
    n = values.shape[-1]
    prefilter = 6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    if np.iscomplexobj(values):
        return np.fft.ifft(np.fft.fft(values) * prefilter)
    return np.fft.irfft(np.fft.rfft(values) * prefilter[: n // 2 + 1], n)


def reference_interp(values, x0, dx, xq):
    """Periodic cubic-spline interpolation of one grid on the periodic line
    x0 + i dx in Horner form, each query's coefficients taken from the four
    neighbouring B-spline coefficients with every stencil offset wrapped by
    ``% n``."""
    values = np.asarray(values)
    n = values.shape[-1]
    coeffs = spline_coefficients(values)
    pos = (np.asarray(xq, dtype=float) - x0) / dx
    base = np.floor(pos).astype(np.int64)
    t = pos - base
    c_m1, c_0, c_1, c_2 = (coeffs[(base + off) % n] for off in (-1, 0, 1, 2))
    b = 0.5 * (c_1 - c_m1)
    c = 0.5 * (c_m1 - 2.0 * c_0 + c_1)
    d = (3.0 * (c_0 - c_1) + c_2 - c_m1) / 6.0
    return values[base % n] + t * (b + t * (c + t * d))


def weight_form_interp(values, x0, dx, xq):
    """The periodic cubic spline in B-spline weight form: the four
    neighbouring coefficients, each times its cubic B-spline weight."""
    values = np.asarray(values)
    n = values.shape[-1]
    coeffs = spline_coefficients(values)
    pos = (np.asarray(xq, dtype=float) - x0) / dx
    base = np.floor(pos).astype(np.int64)
    t = pos - base
    s = 1.0 - t
    weights = (
        s**3 / 6.0,
        (4.0 - 6.0 * t**2 + 3.0 * t**3) / 6.0,
        (4.0 - 6.0 * s**2 + 3.0 * s**3) / 6.0,
        t**3 / 6.0,
    )
    out = np.zeros(pos.shape, dtype=coeffs.dtype)
    for off, w in zip((-1, 0, 1, 2), weights):
        out = out + w * coeffs[(base + off) % n]
    return out


def reference_evaluate(snap, points, rho_floor):
    """FieldSnapshot.evaluate with one interpolation call per grid."""
    points = np.atleast_2d(points)
    spec = snap.spec
    x = points[:, 0]
    in_box = (x >= spec.x_min) & (x < spec.x_max)
    rho = reference_interp(snap.rho, spec.x_min, spec.dx, x)
    ok = in_box & (rho >= rho_floor)
    vel = np.zeros_like(points)
    safe_rho = np.where(rho > 0, rho, 1.0)
    vel[:, 0] = reference_interp(snap.current, spec.x_min, spec.dx, x) / safe_rho
    if snap.kind == KIND_DIRAC:
        ok &= np.abs(vel[:, 0]) < 1.0
    vel[~ok] = 0.0
    return vel, rho, ok


def reference_dirac_exp(amps_hat, p, mass, t):
    """exp(-i H(p) t) per mode, with the factors computed on every call."""
    energy = np.sqrt(p**2 + mass**2)
    c = np.cos(energy * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(energy > 0, np.sin(energy * t) / np.where(energy > 0, energy, 1.0), t)
    upper = c * amps_hat[0] - 1j * s * (mass * amps_hat[0] + p * amps_hat[1])
    lower = c * amps_hat[1] - 1j * s * (p * amps_hat[0] - mass * amps_hat[1])
    return np.stack([upper, lower])


def box_points(rng, x_min, dx, n):
    """Positions (k,) inside the line, on its ends and cell nodes, and up
    to ten line lengths outside it on either side."""
    width = n * dx
    inside = x_min + width * rng.random(300)
    edges = x_min + width * rng.integers(0, 2, 40)
    nodes = x_min + dx * rng.integers(-3, n + 3, 40)
    far = x_min + width * rng.uniform(-10.0, 11.0, 300)
    return np.concatenate([inside, edges, nodes, far])


@pytest.mark.parametrize("n", [64], ids=["d1"])
def test_shared_stencil_matches_per_field_loop(n):
    """Each grid of a shared stencil, real or complex, is prefiltered on its
    own row: it gets the bytes of the per-field reference and of a stencil
    of that grid alone, whatever grids share its stencil."""
    rng = np.random.default_rng(1)
    x_min, dx = -3.0, 0.25
    points = box_points(rng, x_min, dx, n)
    real = [rng.standard_normal(n), rng.random(n)]
    cplx = [rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.random(n) + 0j]
    for grids in (real, real[::-1], cplx, cplx[::-1]):
        outs = CubicStencil(grids, x_min, dx).at(points)
        assert len(outs) == len(grids)
        for grid, out in zip(grids, outs):
            ref = reference_interp(grid, x_min, dx, points)
            (alone,) = CubicStencil([grid], x_min, dx).at(points)
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)
            assert out.tobytes() == ref.tobytes() == alone.tobytes()


def _schrodinger_state():
    spec = GridSpec(4096, -256.0, 256.0)
    psi = gaussian_packet(spec, 1.0, 0.0, 0.5, 1.0)
    return SplitStepPropagator(spec, 1.0).advance(psi, 0.05, 20)


def _dirac_state():
    spec = GridSpec(2048, -128.0, 128.0)
    psi, _ = project_positive_energy(gaussian_packet(spec, 1.0, 0.0, 0.75, 1.0, kind="dirac"))
    return DiracPropagator(spec, psi.mass).advance(psi, 1.0)


@pytest.mark.parametrize("make_state", [_schrodinger_state, _dirac_state], ids=["schrodinger", "dirac"])
def test_evaluate_matches_per_field_reference(make_state):
    psi = make_state()
    snap = FieldSnapshot(psi)
    spec = psi.spec
    rng = np.random.default_rng(7)
    points = np.concatenate([
        sample_initial(psi, 2000, 3),
        box_points(rng, spec.x_min, spec.dx, spec.n_points)[:, None],
    ])
    got = snap.evaluate(points, 1e-12)
    want = reference_evaluate(snap, points, 1e-12)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def _tail_state(kind):
    """A narrow packet whose far-tail density underflows to exact zeros;
    the Dirac one has |j| = 0.96 rho, inside the light-speed bound."""
    spec = GridSpec(256, -32.0, 32.0)
    g = gaussian_packet(spec, 1.0, 0.0, 1.0, 0.5).amplitudes
    if kind == KIND_DIRAC:
        return GridWavefunction(spec, np.stack([0.8 * g, 0.6 * g]), 0.0, KIND_DIRAC, 1.0)
    return GridWavefunction(spec, g, 0.0, "schrodinger", 1.0)


@pytest.mark.parametrize("kind", ["schrodinger", KIND_DIRAC])
def test_evaluate_rejects_nonpositive_tail_density_without_warnings(kind):
    """Where the interpolated density is 0 (at a tail node, where the
    stencil returns the node's exact zero) or, by the prefilter's rounding
    between nodes, negative, the point is rejected with zero velocity, and
    the division raises no warning."""
    psi = _tail_state(kind)
    snap = FieldSnapshot(psi)
    rng = np.random.default_rng(11)
    zeros = psi.spec.axis()[psi.density() == 0.0]
    x = np.concatenate([rng.uniform(15.0, 32.0, 2000), rng.uniform(-32.0, -15.0, 2000), zeros])
    points = x[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vel, rho, ok = snap.evaluate(points, 1e-12)
    tail = rho <= 0.0
    assert (rho == 0.0).any() and (rho < 0.0).any()
    assert not ok[tail].any()
    assert np.all(vel[tail] == 0.0)
    for a, b in zip((vel, rho, ok), reference_evaluate(snap, points, 1e-12)):
        assert a.tobytes() == b.tobytes()


def test_cached_mode_matrix_matches_formula():
    """The three cached entries of exp(-i H(p) t) are its columns, applied
    to the unit spinors (1, 0) and (0, 1) of every mode; one cache entry
    per step size."""
    psi = _dirac_state()
    prop = DiracPropagator(psi.spec, psi.mass)
    n = psi.spec.n_points
    ones, zeros = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    for t in (0.025, 0.7, 0.025):
        u00, u01, u11 = prop._step_factors(t)
        col0 = reference_dirac_exp(np.stack([ones, zeros]), prop.p, prop.mass, t)
        col1 = reference_dirac_exp(np.stack([zeros, ones]), prop.p, prop.mass, t)
        for got, want in ((u00, col0[0]), (u01, col0[1]), (u01, col1[0]), (u11, col1[1])):
            assert np.max(np.abs(got - want)) <= 1e-13
    assert sorted(prop._factors) == [0.025, 0.7]


DIRAC_CHAIN = (0.05, 0.05, 0.7, -0.3, 0.05, 0.05)


def _cold_chain(psi, steps):
    """psi advanced step by step, each by a fresh propagator."""
    for t in steps:
        psi = DiracPropagator(psi.spec, psi.mass).advance(psi, t)
    return psi


def test_chained_advance_matches_cold_advance(monkeypatch):
    """Advancing each output again starts from its kept spectrum: one
    forward FFT for the whole chain, and the result matches a chain of
    cold advances to rounding."""
    psi = _dirac_state()
    want = _cold_chain(psi, DIRAC_CHAIN)
    prop = DiracPropagator(psi.spec, psi.mass)
    forward = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: forward.append(1) or fft(*a, **k))
    state = psi
    for t in DIRAC_CHAIN:
        state = prop.advance(state, t)
    assert len(forward) == 1
    assert state.t == want.t
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-13


def test_advance_of_another_state_is_the_cold_advance():
    """Only the state a propagator returned last reuses its spectrum: a
    copy of the last one, an older output, another propagator's output
    and the input state each take the forward FFT and give the cold
    result bit for bit."""
    psi = _dirac_state()
    prop = DiracPropagator(psi.spec, psi.mass)
    older = prop.advance(psi, 0.05)
    last = prop.advance(older, 0.05)
    copy = GridWavefunction(last.spec, last.amplitudes, last.t, last.kind, last.mass)
    foreign = DiracPropagator(psi.spec, psi.mass).advance(psi, 0.3)
    for state in (copy, older, foreign, psi):
        got = prop.advance(state, 0.05)
        want = _cold_chain(state, (0.05,))
        assert got.t == want.t
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


SPLIT_CHAIN = (0.04, 0.04, 0.7, 0.04, 0.3, 0.04)


def _cold_split_chain(psi, steps, potential=None):
    """psi advanced step by step, each by a fresh split-step propagator."""
    for dt in steps:
        psi = SplitStepPropagator(psi.spec, psi.mass, potential).advance(psi, dt)
    return psi


def reference_strang_step(spec, mass, potential, amps, dt, n_steps):
    """n_steps Strang steps exp(-iV dt/2) exp(-iK dt) exp(-iV dt/2), the
    inner half kicks fused, with every factor built on the call."""
    v = potential.evaluate(spec)
    exp_v_half = np.exp(-0.5j * dt * v)
    exp_k = np.exp(-0.5j * dt * spec.momentum_axis() ** 2 / mass)
    amps = exp_v_half * amps
    for _ in range(n_steps - 1):
        amps = np.fft.ifft(exp_k * np.fft.fft(amps))
        amps = exp_v_half * exp_v_half * amps
    amps = np.fft.ifft(exp_k * np.fft.fft(amps))
    return exp_v_half * amps


FFT_ENTRY_POINTS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)


def _count_transforms(monkeypatch):
    """Calls of every np.fft transform from here on, by name."""
    calls = dict.fromkeys(FFT_ENTRY_POINTS, 0)
    for name in calls:
        inner = getattr(np.fft, name)

        def counted(*a, _name=name, _inner=inner, **k):
            calls[_name] += 1
            return _inner(*a, **k)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _called(calls):
    """The transforms of ``_count_transforms`` that were called, by name."""
    return {name: count for name, count in calls.items() if count}


def test_free_split_chain_matches_cold_advance(monkeypatch):
    """On free evolution, advancing each output again starts from its kept
    spectrum: one forward FFT for the whole chain, multi-step advances
    included, and the result matches a chain of cold advances to rounding."""
    psi = _schrodinger_state()
    steps = SPLIT_CHAIN + (0.04, 0.04, 0.04)
    want = _cold_split_chain(psi, steps)
    prop = SplitStepPropagator(psi.spec, psi.mass)
    calls = _count_transforms(monkeypatch)
    state = psi
    for dt in SPLIT_CHAIN:
        state = prop.advance(state, dt)
    state = prop.advance(state, 0.04, 3)
    assert _called(calls) == {"fft": 1, "ifft": len(SPLIT_CHAIN) + 1}
    assert state.t == pytest.approx(want.t, abs=1e-12)
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) <= 1e-13
    assert np.max(np.abs(prop.spectrum(state) - np.fft.fft(state.amplitudes))) <= 1e-12


def test_free_split_advance_of_another_state_is_the_cold_advance():
    """Only the state a free split-step propagator returned last reuses
    its spectrum: a copy of the last one, an older output, another
    propagator's output and the input state each take the forward FFT
    and give the cold result bit for bit."""
    psi = _schrodinger_state()
    prop = SplitStepPropagator(psi.spec, psi.mass)
    older = prop.advance(psi, 0.04)
    last = prop.advance(older, 0.04)
    copy = GridWavefunction(last.spec, last.amplitudes, last.t, last.kind, last.mass)
    foreign = SplitStepPropagator(psi.spec, psi.mass).advance(psi, 0.3)
    for state in (copy, older, foreign, psi):
        assert prop.spectrum(state) is None
        got = prop.advance(state, 0.04)
        want = _cold_split_chain(state, (0.04,))
        assert got.t == want.t
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_split_step_with_a_barrier_keeps_no_spectrum():
    """With a potential every advance is the Strang step written out, bit
    for bit, chained or cold, and no spectrum is kept. The steps respect
    the stability bound of the test grid (dt <= 0.0199)."""
    psi = _schrodinger_state()
    barrier = GaussianBarrier(2.0, 1.0, 3.0)
    prop = SplitStepPropagator(psi.spec, psi.mass, barrier)
    state = psi
    for dt, n_steps in ((0.01, 1), (0.01, 1), (0.005, 7), (0.015, 1)):
        want = reference_strang_step(psi.spec, psi.mass, barrier, state.amplitudes, dt, n_steps)
        state = prop.advance(state, dt, n_steps)
        assert prop.spectrum(state) is None
        assert state.amplitudes.tobytes() == want.tobytes()
    chain = (0.01, 0.01, 0.015, 0.005, 0.01)
    cold = _cold_split_chain(psi, chain, barrier)
    chained = psi
    for dt in chain:
        chained = prop.advance(chained, dt)
    assert chained.amplitudes.tobytes() == cold.amplitudes.tobytes()


def test_snapshot_from_the_kept_spectrum_matches_the_cold_snapshot():
    """A Schrodinger snapshot given the kept spectrum has the rho of the
    cold snapshot bit for bit and its current to rounding; given the FFT
    of the amplitudes it is the cold snapshot bit for bit."""
    psi = _schrodinger_state()
    prop = SplitStepPropagator(psi.spec, psi.mass)
    state = prop.advance(prop.advance(psi, 0.04), 0.04)
    cold = FieldSnapshot(state)
    kept = FieldSnapshot(state, prop.spectrum(state))
    same = FieldSnapshot(state, np.fft.fft(state.amplitudes))
    assert kept.rho.tobytes() == cold.rho.tobytes()
    assert np.max(np.abs(kept.current - cold.current)) <= 1e-13
    assert same.current.tobytes() == cold.current.tobytes()


def test_free_integration_takes_four_transforms_per_step(monkeypatch):
    """A free Schrodinger RK4 step takes 4 complex transforms: one inverse
    FFT per half-step advance and one per snapshot. Each of its 2
    snapshots adds the real transform pair of its spline prefilter, which
    transforms rho and j in one call each. The first step adds the forward
    FFT of psi0 for its advance and, for the snapshot of psi0, an FFT pair
    and a prefilter pair. Every np.fft entry point is counted."""
    psi = _schrodinger_state()
    starts = sample_initial(psi, 50, 3)
    t_grid = psi.t + np.array([0.0, 0.4, 1.0])
    n_steps = sum(n for _, n in guidance.rk4_step_sizes(t_grid, 0.08))
    calls = _count_transforms(monkeypatch)
    guidance.integrate_ensemble(psi, None, starts, t_grid, rho_floor=1e-12, dt=0.08)
    assert n_steps == 13
    assert _called(calls) == {
        "fft": 2,
        "ifft": 4 * n_steps + 1,
        "rfft": 2 * n_steps + 1,
        "irfft": 2 * n_steps + 1,
    }


@pytest.mark.parametrize("n", [16, 64], ids=str)
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_stencil_matches_per_field_loop(n, dtype):
    """The base index wraps with a mask, which matches ``% n`` on every
    offset, and a stencil gives the same bytes on every call."""
    rng = np.random.default_rng(n)
    x_min, dx = -2.0, 0.2
    grids = [rng.standard_normal(n).astype(dtype) for _ in range(3)]
    if dtype is complex:
        grids = [g + 1j * rng.standard_normal(n) for g in grids]
    kept = [g.copy() for g in grids]
    stencil = CubicStencil(grids, x_min, dx)
    points = box_points(rng, x_min, dx, n)
    for _ in range(2):
        outs = stencil.at(points)
        assert len(outs) == len(grids)
        for grid, out in zip(grids, outs):
            ref = reference_interp(grid, x_min, dx, points)
            assert out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()
    for grid, old in zip(grids, kept):
        assert grid.tobytes() == old.tobytes()


def _random_grid(rng, n, dtype):
    grid = rng.standard_normal(n)
    if dtype is complex:
        grid = grid + 1j * rng.standard_normal(n)
    return grid


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_stencil_is_exact_at_nodes(dtype):
    """At a node t is 0, so the value is the node's grid value bit for bit,
    also at nodes outside the line, which wrap."""
    n = 64
    rng = np.random.default_rng(3)
    x_min, dx = -2.0, 0.25
    grid = _random_grid(rng, n, dtype)
    index = np.arange(-2 * n, 3 * n)
    (got,) = CubicStencil([grid], x_min, dx).at(x_min + dx * index)
    assert got.tobytes() == grid[index % n].tobytes()


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_stencil_reproduces_quadratics(dtype):
    """The cubic spline is exact on quadratics away from the periodic seam,
    where the quadratic's jump wraps: its influence on the coefficients
    decays by 2 - sqrt(3) per cell, below 1e-13 of the jump 24 cells
    away."""
    n = 128
    x_min, dx = -3.0, 0.1
    scale = 1.0 - 0.5j if dtype is complex else 1.0

    def quadratic(x):
        return scale * (2.0 + 0.7 * (x - 0.3) ** 2)

    x = x_min + dx * np.arange(n)
    xq = x_min + dx * np.random.default_rng(4).uniform(24.0, n - 24.0, 500)
    (got,) = CubicStencil([quadratic(x)], x_min, dx).at(xq)
    np.testing.assert_allclose(got, quadratic(xq), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_stencil_converges_at_fourth_order(dtype):
    """On a smooth periodic function the largest error falls by about 16
    each time the spacing halves: at least 12 at every halving here,
    where a third-order interpolant (Catmull-Rom) gains only about 8."""
    scale = 1.0 + 0.5j if dtype is complex else 1.0

    def smooth(x):
        return scale * np.exp(np.sin(x) + 0.5 * np.cos(2.0 * x))

    xq = 2.0 * np.pi * np.random.default_rng(5).random(4000)
    errors = []
    for n in (32, 64, 128, 256):
        dx = 2.0 * np.pi / n
        (got,) = CubicStencil([smooth(dx * np.arange(n))], 0.0, dx).at(xq)
        errors.append(np.max(np.abs(got - smooth(xq))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(ratios >= 12.0), ratios


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_stencil_is_c2_across_cells(dtype):
    """The cubic of every cell meets the next cell's at their shared node
    with the same value, slope and curvature, the last cell meeting the
    first across the seam, up to rounding of the coefficients."""
    n = 64
    rng = np.random.default_rng(6)
    ((a, b, c, d),) = CubicStencil([_random_grid(rng, n, dtype)], -2.0, 0.25)._coeffs
    nxt = np.roll(np.arange(n), -1)
    bound = 64 * np.finfo(float).eps * np.max(np.abs(a))
    assert np.max(np.abs(a + b + c + d - a[nxt])) <= bound
    assert np.max(np.abs(b + 2.0 * c + 3.0 * d - b[nxt])) <= bound
    assert np.max(np.abs(2.0 * c + 6.0 * d - 2.0 * c[nxt])) <= bound


@pytest.mark.parametrize("n", [16, 64, 2048], ids=str)
@pytest.mark.parametrize("kind", ["real", "complex", "paired"])
def test_stencil_matches_scipy_periodic_spline(n, kind):
    """An independent oracle: SciPy's periodic CubicSpline through the grid
    values, over the line and at its nodes, both ends included, for a real
    grid, a complex one, and two real grids of one stencil (as rho and j
    share one). Agreement is to the rounding of both solvers: 1e-12 times
    the largest |grid| value. (Far outside the line the stencil wraps as
    the byte-level reference does.)"""
    rng = np.random.default_rng(20 + n)
    x_min, dx = -3.0, 0.1
    grids = [_random_grid(rng, n, complex if kind == "complex" else float)]
    if kind == "paired":
        grids.append(rng.random(n))
    nodes = x_min + dx * np.arange(n + 1)
    points = np.concatenate([x_min + n * dx * rng.random(2000), nodes])
    for grid, got in zip(grids, CubicStencil(grids, x_min, dx).at(points), strict=True):
        oracle = CubicSpline(nodes, np.append(grid, grid[0]), bc_type="periodic")
        assert got.dtype == grid.dtype
        assert np.max(np.abs(got - oracle(points))) <= 1e-12 * np.max(np.abs(grid))


@pytest.mark.parametrize("n", [16, 64, 2048], ids=str)
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_stencil_matches_weight_form_to_rounding(n, dtype):
    """The Horner form and the B-spline weight form are one cubic: over the
    line, its ends and far outside it they differ by at most 8 ulp (of 1)
    times the largest |grid| value. The Horner form's constant term is the
    grid value, which the weight form's sum matches to the prefilter's
    rounding."""
    rng = np.random.default_rng(10 + n)
    x_min, dx = -3.0, 0.1
    grid = _random_grid(rng, n, dtype)
    points = box_points(rng, x_min, dx, n)
    (got,) = CubicStencil([grid], x_min, dx).at(points)
    bound = 8 * np.finfo(float).eps * np.max(np.abs(grid))
    assert np.max(np.abs(got - weight_form_interp(grid, x_min, dx, points))) <= bound


@pytest.mark.parametrize("shape", [(48,), (12,), (16, 32), (8, 4, 16)], ids=lambda s: "x".join(map(str, s)))
def test_stencil_rejects_other_sizes(shape):
    """Only lines of a power-of-two length have a mask wrap."""
    with pytest.raises(InvalidInputError):
        CubicStencil([np.zeros(shape)], -2.0, 0.2)
    with pytest.raises(InvalidInputError):
        CubicStencil([np.zeros(64), np.zeros(shape)], -2.0, 0.2)


def test_stencil_rejects_real_and_complex_grids_together():
    """One stencil prefilters its grids as one real or one complex block."""
    with pytest.raises(InvalidInputError, match="all real or all complex"):
        CubicStencil([np.zeros(64), np.zeros(64, dtype=complex)], -2.0, 0.2)


def reference_rk4_block(x, snap_a, snap_b, snap_c, h, rho_floor, diag):
    """``guidance._rk4_block`` without the all-live fast path, its failure
    reasons found one trajectory at a time: the new positions and the
    stage velocities k1 and k4, 0 for every failed trajectory."""
    live = ~diag.failed
    xl = x[live]
    k1, r1, ok1 = snap_a.evaluate(xl, rho_floor)
    stage2 = xl + 0.5 * h * k1
    k2, r2, ok2 = snap_b.evaluate(stage2, rho_floor)
    stage3 = xl + 0.5 * h * k2
    k3, r3, ok3 = snap_b.evaluate(stage3, rho_floor)
    stage4 = xl + h * k3
    k4, r4, ok4 = snap_c.evaluate(stage4, rho_floor)
    diag.accepted_evaluations += int(ok1.sum() + ok2.sum() + ok3.sum() + ok4.sum())
    diag.rejected_evaluations += int((~ok1).sum() + (~ok2).sum() + (~ok3).sum() + (~ok4).sum())
    x_new = xl + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    live_idx = np.flatnonzero(live)
    mins = np.minimum(diag.min_rho[live_idx], r1)
    diag.min_rho[live_idx] = np.where(ok1, mins, diag.min_rho[live_idx])

    spec = snap_a.spec
    stages = [(xl, r1, ok1), (stage2, r2, ok2), (stage3, r3, ok3), (stage4, r4, ok4)]
    for row, traj in enumerate(live_idx):
        for stage, rho, ok in stages:
            if ok[row]:
                continue
            if not spec.x_min <= stage[row, 0] < spec.x_max:
                reason = "box"
            elif rho[row] < rho_floor:
                reason = "density floor"
            else:
                reason = "speed bound"
            diag.failed[traj] = True
            diag.failure_reason[traj] = 1 + guidance.FAILURE_REASONS.index(reason)
            x_new[row] = xl[row]
            break
    x = x.copy()
    x[live_idx] = x_new
    v1 = np.zeros_like(x)
    v4 = np.zeros_like(x)
    v1[live_idx] = k1
    v4[live_idx] = k4
    v1[diag.failed] = 0.0
    v4[diag.failed] = 0.0
    return x, v1, v4


def _fresh_diagnostics(n, failed=()):
    diag = EnsembleDiagnostics(
        min_rho=np.full(n, np.inf),
        shrink_events=np.zeros(n, dtype=np.int64),
        frozen_steps=np.zeros(n, dtype=np.int64),
        failed=np.zeros(n, dtype=bool),
    )
    diag.failed[list(failed)] = True
    return diag


def _rk4_case(name, edge_packet):
    """(psi, points, rho_floor, failed indices) of one RK4 block."""
    if name in ("all_live", "one_failed", "rho_floor"):
        psi = _schrodinger_state()
    elif name == "dirac_speed_bound":
        # Equal spinor components: every interpolated speed is exactly 1.
        spec = GridSpec(512, -32.0, 32.0)
        g = gaussian_packet(spec, 1.0, 0.0, 0.0, 1.0).amplitudes / np.sqrt(2.0)
        psi = GridWavefunction(spec, np.stack([g, g]), 0.0, KIND_DIRAC, 1.0)
    elif name.startswith("dirac"):
        psi = _dirac_state()
    else:  # box_exit: a packet moving right, one point at the right edge
        psi = edge_packet
    points = sample_initial(psi, 2000, 5)
    rho_floor = 1e-12
    failed = ()
    if name in ("one_failed", "dirac_one_failed"):
        failed = (17,)
    elif name == "box_exit":
        points = np.concatenate([points, [[31.99]]])
        rho_floor = 1e-300
    elif name == "rho_floor":
        # One point far in the tail, below the floor, fails.
        points = np.concatenate([points[:100], [[-58.0]], points[100:]])
        rho_floor = 1e-8
    return psi, points, rho_floor, failed


@pytest.mark.parametrize(
    "name",
    ["all_live", "dirac_all_live", "one_failed", "dirac_one_failed", "box_exit", "rho_floor", "dirac_speed_bound"],
)
def test_rk4_block_matches_reference(name, edge_packet):
    psi, points, rho_floor, failed = _rk4_case(name, edge_packet)
    h = 0.05
    if psi.kind == KIND_DIRAC:
        prop = DiracPropagator(psi.spec, psi.mass)
    else:
        prop = SplitStepPropagator(psi.spec, psi.mass)
    mid = prop.advance(psi, 0.5 * h)
    end = prop.advance(mid, 0.5 * h)
    snaps = [FieldSnapshot(s) for s in (psi, mid, end)]
    x = points.copy()
    diag = _fresh_diagnostics(len(points), failed)
    diag_ref = _fresh_diagnostics(len(points), failed)
    got = guidance._rk4_block(x, *snaps, h, rho_floor, diag)
    want = reference_rk4_block(points, *snaps, h, rho_floor, diag_ref)
    assert got[0] is not x and x.tobytes() == points.tobytes()
    for a, b in zip(got, want, strict=True):
        assert a.shape == x.shape and a.tobytes() == b.tobytes()
    for f in dataclasses.fields(EnsembleDiagnostics):
        a, b = getattr(diag, f.name), getattr(diag_ref, f.name)
        assert type(a) is type(b), f.name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    # Each case drives the branch it is named after.
    if name.endswith("all_live"):
        assert diag.rejected_evaluations == 0 and not diag.failed.any()
    elif name == "box_exit":
        assert diag.failed.tolist() == [False] * (len(points) - 1) + [True]
        assert diag.failure_counts()["box"] == 1
    elif name == "rho_floor":
        assert np.flatnonzero(diag.failed).tolist() == [100]
        assert diag.failure_counts()["density floor"] == 1
    elif name == "dirac_speed_bound":
        assert diag.failure_counts()["speed bound"] == len(points)


@pytest.mark.parametrize("make_state", [_schrodinger_state, _dirac_state], ids=["schrodinger", "dirac"])
def test_cached_norm_matches_formula(make_state):
    psi = make_state()
    for state in (psi, psi.with_amplitudes(psi.amplitudes * np.exp(0.3j), t=psi.t + 1.0)):
        amps = state.amplitudes
        want = float(np.sqrt(np.vdot(amps, amps).real * state.spec.dx))
        assert type(state.norm()) is float
        assert state.norm() == want
        dens = amps.real**2 + amps.imag**2
        if state.kind == KIND_DIRAC:
            dens = dens[0] + dens[1]
        assert state.density().tobytes() == dens.tobytes()


@pytest.mark.parametrize("n", [16, 64, 2048])
def test_grid_path_matches_uniform_reference_on_complex_lines(n):
    rng = np.random.default_rng(n)
    x0, dx = -3.0, 0.1
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xq = box_points(rng, x0, dx, n)
    (got,) = CubicStencil([values], x0, dx).at(xq)
    want = reference_interp(values, x0, dx, xq)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def covariance_state():
    config = Path(__file__).resolve().parent.parent / "configs" / "dirac_covariance.json"
    psi, _ = _build_state(load_config(str(config)))
    return psi


@pytest.mark.parametrize("u", [-0.9, -0.4, -0.2, 0.2, 0.4, 0.9])
def test_boost_interpolation_matches_uniform_reference(covariance_state, monkeypatch, u):
    """The interpolation inside ``boost_dirac_state``, on its real inputs."""
    calls = []

    class RecordingStencil(CubicStencil):
        def __init__(self, grids, x_min, dx):
            super().__init__(grids, x_min, dx)
            self.inputs = (grids[0], x_min, dx)

        def at(self, x):
            out = super().at(x)
            calls.append((*self.inputs, x, out[0]))
            return out

    monkeypatch.setattr(relativity, "CubicStencil", RecordingStencil)
    try:
        relativity.boost_dirac_state(covariance_state, u)
    except ConfigurationError:
        pass  # the grid cannot hold the boosted support; checked after interpolating
    ((smooth, p0, dp, p_src, got),) = calls
    assert got.tobytes() == reference_interp(smooth, p0, dp, p_src).tobytes()


def reference_measure_csv(measure, path):
    """The former row loop of ``EmpiricalMeasure.to_csv``."""
    with open(path, "w") as fh:
        header = ",".join(f"v{i}" for i in range(measure.dim)) + ",weight\n"
        fh.write(header)
        for row, w in zip(measure.samples, measure.weights):
            fh.write(",".join(repr(float(x)) for x in row) + f",{float(w)!r}\n")


def reference_density_csv(path, xs, ys, names=("v", "density")):
    """The former row loop of the density CSVs of ``bohmvel run``."""
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def reference_curve_csv(path, rows, fields):
    """The former row loop of the dict-row tables (residual curve, plot data)."""
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[f])) for f in fields) + "\n")


def special_values(rng, shape):
    """Floats of every magnitude plus -0.0, a subnormal and 1e300."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    flat = vals.reshape(-1)
    flat[:3] = (-0.0, 5e-324, 1e300)
    return vals


@pytest.mark.parametrize("n", [5, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3])
@pytest.mark.parametrize("dim", [1, 3])
def test_measure_csv_matches_row_loop(tmp_path, dim, n):
    rng = np.random.default_rng(10 * n + dim)
    weights = rng.random(n)
    weights[0] = 0.0
    measure = EmpiricalMeasure.from_samples(special_values(rng, (n, dim)), weights)
    measure.to_csv(tmp_path / "new.csv")
    reference_measure_csv(measure, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("names", [("v", "density"), ("p", "density")])
def test_density_csv_matches_row_loop(tmp_path, names):
    rng = np.random.default_rng(5)
    xs = np.linspace(-20.0, 20.0, 4096)
    ys = special_values(rng, xs.shape)
    _write_float_csv(tmp_path / "new.csv", list(names), [xs, ys])
    reference_density_csv(tmp_path / "old.csv", xs, ys, names)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_residual_curve_csv_matches_row_loop(tmp_path):
    # bohmvel run keeps the extraction times and residuals as JSON lists.
    times = [20.0, 30.0, 40.0, 60.0]
    residuals = [0.5, -0.0, 5e-324]
    _write_float_csv(tmp_path / "new.csv", ["T", "residual"], [times[1:], residuals])
    rows = [{"T": t, "residual": r} for t, r in zip(times[1:], residuals)]
    reference_curve_csv(tmp_path / "old.csv", rows, ["T", "residual"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", [3, _CSV_CHUNK + 5])
def test_constant_and_signed_zero_columns_match_row_loop(tmp_path, n):
    # A uniform weight column is formatted once per chunk; -0.0 equals 0.0
    # but must keep its own text, in a mixed column and in a constant one.
    weights = np.full(n, 1e-5)
    zeros = np.zeros(n)
    zeros[1::2] = -0.0
    _write_float_csv(tmp_path / "new.csv", ["weight", "zero"], [weights, zeros])
    reference_density_csv(tmp_path / "old.csv", weights, zeros, ("weight", "zero"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    _write_float_csv(tmp_path / "new.csv", ["neg", "pos"], [np.full(n, -0.0), np.zeros(n)])
    reference_density_csv(tmp_path / "old.csv", np.full(n, -0.0), np.zeros(n), ("neg", "pos"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_plotdata_tables_match_row_loops(tmp_path, capsys):
    rng = np.random.default_rng(11)
    run_dir, out_dir, ref_dir = tmp_path / "run", tmp_path / "new", tmp_path / "old"
    run_dir.mkdir()
    ref_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps({"seed": 0}))
    for stem, n in (("s_plus", 3 * _CSV_CHUNK // 2), ("s_t_5", 7)):
        EmpiricalMeasure.from_samples(special_values(rng, (n, 1)), rng.random(n)).to_csv(
            run_dir / f"{stem}.csv"
        )
    assert cmd_plotdata(str(run_dir), str(out_dir)) == 0
    capsys.readouterr()
    for stem in ("s_plus", "s_t_5"):
        measure = EmpiricalMeasure.from_csv(run_dir / f"{stem}.csv")
        values = measure.samples[:, 0]
        order = np.argsort(values, kind="mergesort")
        cdf_rows = [
            {"v": v, "cdf": c} for v, c in zip(values[order], np.cumsum(measure.weights[order]))
        ]
        reference_curve_csv(ref_dir / f"{stem}_cdf.csv", cdf_rows, ["v", "cdf"])
        hist, edges = np.histogram(values, bins=101, weights=measure.weights)
        hist_rows = [
            {"left": edges[i], "right": edges[i + 1], "mass": hist[i]} for i in range(hist.size)
        ]
        reference_curve_csv(ref_dir / f"{stem}_hist.csv", hist_rows, ["left", "right", "mass"])
        for table in ("cdf", "hist"):
            name = f"{stem}_{table}.csv"
            assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()


def test_state_owns_its_amplitudes():
    """A state copies the amplitudes it is given: the caller's array stays
    writable, and writing through it changes neither the state nor its
    cached norm."""
    psi = _schrodinger_state()
    given = np.array(psi.amplitudes)
    view = given[:]
    state = psi.with_amplitudes(given)
    assert given.flags.writeable and not state.amplitudes.flags.writeable
    view *= 2.0
    assert state.amplitudes.tobytes() == psi.amplitudes.tobytes()
    assert state.norm() == psi.norm()
