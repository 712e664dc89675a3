"""The shared kernels are bitwise equal to the code paths they replace:
the padded-once stencil against the per-field loop and the old 1D path of
the momentum-space boost, the lean RK4 block against a reference that
finds failure reasons one trajectory at a time,
the cached norm against its formula, the cached Dirac step factors against
the per-call formula, and the one float-CSV writer against the per-row
loops that each table had."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from bohmvel import guidance, relativity
from bohmvel._interp import CubicStencil
from bohmvel.cli import _build_state, cmd_plotdata, load_config
from bohmvel.core import _CSV_CHUNK, EmpiricalMeasure, _write_float_csv
from bohmvel.errors import ConfigurationError, InvalidInputError
from bohmvel.guidance import EnsembleDiagnostics, FieldSnapshot, sample_initial
from bohmvel.wavefunction import (
    KIND_DIRAC,
    DiracPropagator,
    GridSpec,
    GridWavefunction,
    SplitStepPropagator,
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


def reference_interp(values, x0, dx, xq):
    """Cubic interpolation of one grid on the periodic line x0 + i dx,
    wrapping every stencil offset with ``% n``."""
    values = np.asarray(values)
    n = values.shape[-1]
    pos = (np.asarray(xq, dtype=float) - x0) / dx
    base = np.floor(pos).astype(np.int64)
    weights = reference_weights(pos - base)
    out = np.zeros(pos.shape, dtype=values.dtype)
    for off, w in zip((-1, 0, 1, 2), weights):
        out = out + w * values[(base + off) % n]
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
    rng = np.random.default_rng(1)
    x_min, dx = -3.0, 0.25
    points = box_points(rng, x_min, dx, n)
    grids = [
        rng.standard_normal(n),
        rng.random(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    ]
    outs = CubicStencil(grids, x_min, dx).at(points)
    assert len(outs) == len(grids)
    for grid, out in zip(grids, outs):
        ref = reference_interp(grid, x_min, dx, points)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert out.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("shape", [(48,), (12,), (16, 32), (8, 4, 16)], ids=lambda s: "x".join(map(str, s)))
def test_stencil_rejects_other_sizes(shape):
    """Only lines of a power-of-two length have a mask wrap."""
    with pytest.raises(InvalidInputError):
        CubicStencil([np.zeros(shape)], -2.0, 0.2)
    with pytest.raises(InvalidInputError):
        CubicStencil([np.zeros(64), np.zeros(shape)], -2.0, 0.2)


def reference_rk4_block(x, snap_a, snap_b, snap_c, h, rho_floor, diag):
    """``guidance._rk4_block`` without the all-live fast path, its failure
    reasons found one trajectory at a time."""
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
    return x


def _fresh_diagnostics(n, failed=()):
    diag = EnsembleDiagnostics(
        min_rho=np.full(n, np.inf),
        shrink_events=np.zeros(n, dtype=np.int64),
        frozen_steps=np.zeros(n, dtype=np.int64),
        failed=np.zeros(n, dtype=bool),
    )
    diag.failed[list(failed)] = True
    return diag


def _rk4_case(name):
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
        psi = gaussian_packet(GridSpec(256, -16.0, 16.0), 1.0, 0.0, 1.0, 1.0)
    points = sample_initial(psi, 2000, 5)
    rho_floor = 1e-12
    failed = ()
    if name in ("one_failed", "dirac_one_failed"):
        failed = (17,)
    elif name == "box_exit":
        points = np.concatenate([points, [[15.99]]])
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
def test_rk4_block_matches_reference(name):
    psi, points, rho_floor, failed = _rk4_case(name)
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
    assert got is not x and x.tobytes() == points.tobytes()
    assert got.tobytes() == want.tobytes()
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
        want = float(np.sqrt(np.sum(np.abs(state.amplitudes) ** 2) * state.spec.dx))
        assert type(state.norm()) is float
        assert state.norm() == want


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
