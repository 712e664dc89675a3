"""The shared-stencil interpolation and the cached Dirac step factors are
bitwise equal to the per-field and per-call formulas they replace."""

import itertools

import numpy as np
import pytest

from bohmvel._interp import cubic_interp_grid
from bohmvel.guidance import FieldSnapshot, sample_initial
from bohmvel.wavefunction import (
    KIND_DIRAC,
    DiracPropagator,
    GridSpec,
    PotentialSpec,
    evolve_schrodinger,
    gaussian_packet,
    project_positive_energy,
)


def reference_weights(t):
    t2 = t * t
    t3 = t2 * t
    return (
        0.5 * (-t + 2.0 * t2 - t3),
        0.5 * (2.0 - 5.0 * t2 + 3.0 * t3),
        0.5 * (t + 4.0 * t2 - 3.0 * t3),
        0.5 * (-t2 + t3),
    )


def reference_interp(values, x_min, dx, points):
    """One grid at a time, wrapping every stencil offset with ``% n``."""
    values = np.asarray(values)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = points.shape[1]
    shape = values.shape
    bases, weight_sets = [], []
    for ax in range(dim):
        pos = (points[:, ax] - x_min[ax]) / dx[ax]
        base = np.floor(pos).astype(np.int64)
        bases.append(base)
        weight_sets.append(reference_weights(pos - base))
    out = np.zeros(points.shape[0], dtype=values.dtype)
    flat = values.reshape(-1)
    strides = np.cumprod((1,) + shape[::-1][:-1])[::-1]
    for offsets in itertools.product((-1, 0, 1, 2), repeat=dim):
        idx = np.zeros(points.shape[0], dtype=np.int64)
        w = np.ones(points.shape[0])
        for ax, off in enumerate(offsets):
            idx += ((bases[ax] + off) % shape[ax]) * strides[ax]
            w = w * weight_sets[ax][(-1, 0, 1, 2).index(off)]
        out = out + w * flat[idx]
    return out


def reference_evaluate(snap, points, rho_floor):
    """FieldSnapshot.evaluate with one interpolation call per grid."""
    points = np.atleast_2d(points)
    spec = snap.spec
    in_box = np.ones(points.shape[0], dtype=bool)
    for ax in range(spec.dim):
        in_box &= (points[:, ax] >= spec.x_min[ax]) & (points[:, ax] < spec.x_max[ax])
    rho = reference_interp(snap.rho, spec.x_min, spec.dx, points)
    ok = in_box & (rho >= rho_floor)
    vel = np.zeros_like(points)
    safe_rho = np.where(rho > 0, rho, 1.0)
    for ax, j in enumerate(snap.currents):
        vel[:, ax] = reference_interp(j, spec.x_min, spec.dx, points) / safe_rho
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


def box_points(rng, x_min, dx, shape):
    """Points inside the box, on its edges and cell nodes, and up to ten box
    widths outside it on either side."""
    lo = np.asarray(x_min)
    width = np.asarray(shape) * np.asarray(dx)
    dim = lo.size
    inside = lo + width * rng.random((300, dim))
    edges = lo + width * rng.integers(0, 2, (40, dim))
    nodes = lo + np.asarray(dx) * rng.integers(-3, np.max(shape) + 3, (40, dim))
    far = lo + width * rng.uniform(-10.0, 11.0, (300, dim))
    return np.concatenate([inside, edges, nodes, far])


@pytest.mark.parametrize(
    "shape", [(64,), (12, 5), (8, 4, 16)], ids=lambda s: f"d{len(s)}"
)
def test_shared_stencil_matches_per_field_loop(shape):
    rng = np.random.default_rng(len(shape))
    dim = len(shape)
    x_min = tuple(-3.0 - 0.5 * ax for ax in range(dim))
    dx = tuple(0.25 * (ax + 1) for ax in range(dim))
    points = box_points(rng, x_min, dx, shape)
    grids = [
        rng.standard_normal(shape),
        rng.random(shape),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    ]
    outs = cubic_interp_grid(grids, x_min, dx, points)
    assert len(outs) == len(grids)
    for grid, out in zip(grids, outs):
        ref = reference_interp(grid, x_min, dx, points)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert out.tobytes() == ref.tobytes()


def _schrodinger_state():
    spec = GridSpec.line(4096, -256.0, 256.0)
    psi = gaussian_packet(spec, 1.0, 0.0, 0.5, 1.0)
    return evolve_schrodinger(psi, PotentialSpec.none(), 0.05, 20)


def _dirac_state():
    spec = GridSpec.line(2048, -128.0, 128.0)
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
        box_points(rng, spec.x_min, spec.dx, spec.n_points),
    ])
    got = snap.evaluate(points, 1e-12)
    want = reference_evaluate(snap, points, 1e-12)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def test_cached_dirac_step_matches_uncached_formula():
    psi = _dirac_state()
    prop = DiracPropagator(psi.spec, psi.mass)
    for t in (0.025, 0.7, 0.025):
        got = prop.advance(psi, t)
        amps_hat = np.fft.fft(psi.amplitudes, axis=1)
        want = np.fft.ifft(reference_dirac_exp(amps_hat, prop.p, prop.mass, t), axis=1)
        assert got.t == psi.t + t
        assert np.array_equal(got.amplitudes, want)
    assert sorted(prop._factors) == [0.025, 0.7]
