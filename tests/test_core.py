import ast
import gc
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohmvel
from bohmvel import core
from bohmvel.asymptotics import velocity_measure_at
from bohmvel.core import (
    EmpiricalMeasure,
    EnsembleRun,
    SampledTrajectory,
    save_trajectories_ndjson,
)
from bohmvel.errors import InvalidInputError
from bohmvel.guidance import EnsembleDiagnostics, IntegrationResult
from bohmvel.relativity import transform_velocity_block

from oracles import free_gaussian_trajectory, is_worldline, ndjson_record


def line_traj(v, times=None, c=0.0):
    times = np.linspace(0.0, 10.0, 101) if times is None else times
    return SampledTrajectory(times, (v * times + c)[:, None])


class TestValidateWorldline:
    """The world-line oracle on known lines, and the trajectory shape rules."""

    def test_subluminal_line(self):
        traj = line_traj(0.5)
        assert is_worldline(traj.times, traj.points)

    def test_superluminal_line(self):
        traj = line_traj(2.0)
        assert not is_worldline(traj.times, traj.points)

    def test_sine_dense_sampling(self):
        # |d/dt sin t| = |cos t| <= 1, certified here at dt = 0.01.
        t = np.arange(0.0, 6.28, 0.01)
        assert is_worldline(t, np.sin(t)[:, None])

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            SampledTrajectory(np.array([1.0]), np.zeros((1, 1)))

    @pytest.mark.parametrize("shape", [(5,), (4, 2), (5, 1, 1)])
    def test_points_need_one_row_per_time(self, shape):
        with pytest.raises(InvalidInputError):
            SampledTrajectory(np.arange(5.0), np.zeros(shape))


# Each rejection of the SampledTrajectory constructor with its message;
# a case that breaks several rules shows which check runs first.
REJECTIONS = {
    "nan_time": ([0.0, np.nan, 2.0], np.zeros((3, 1)), "times contains non-finite entries"),
    "inf_time": ([0.0, 1.0, np.inf], np.zeros((3, 1)), "times contains non-finite entries"),
    "nan_time_before_bad_points": ([0.0, np.nan], [[np.nan], [0.0]], "times contains non-finite"),
    "nan_point": ([0.0, 1.0, 2.0], [[0.0], [np.nan], [0.0]], "points contains non-finite entries"),
    "inf_point": ([0.0, 1.0, 2.0], [[0.0], [0.0], [-np.inf]], "points contains non-finite entries"),
    "inf_point_before_one_sample": ([0.0], [[np.inf]], "points contains non-finite entries"),
    "times_2d": ([[0.0, 1.0], [2.0, 3.0]], np.zeros((2, 1)), "a trajectory needs at least 2 samples"),
    "single_sample": ([0.0], [[0.0]], "a trajectory needs at least 2 samples"),
    "single_sample_before_shape": ([0.0], np.zeros((3, 1)), "a trajectory needs at least 2 samples"),
    "equal_times": ([0.0, 1.0, 1.0, 2.0], np.zeros((4, 1)), "times must be strictly increasing"),
    "decreasing_times": ([0.0, 2.0, 1.0], np.zeros((3, 1)), "times must be strictly increasing"),
    "decreasing_before_shape": ([1.0, 0.0], np.zeros((3, 1)), "times must be strictly increasing"),
    "points_shape": ([0.0, 1.0, 2.0], np.zeros((2, 1)), r"points has shape \(2, 1\), expected \(3, dim\)"),
}


class TestSampledTrajectory:
    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejection_message(self, case):
        times, points, message = REJECTIONS[case]
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            SampledTrajectory(np.asarray(times), np.asarray(points))

    def test_arrays_are_read_only(self):
        traj = SampledTrajectory(np.arange(3.0), np.zeros((3, 2)))
        for arr in (traj.times, traj.points):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_arrays_are_shared_not_copied(self):
        # The constructor keeps the given arrays (shared time grids are what
        # the ensemble code's identity test relies on), so writing through a
        # writable base reaches the trajectory.
        t = np.arange(3.0)
        pos = np.zeros((2, 3, 1))
        trajs = [SampledTrajectory(t, p) for p in pos]
        assert trajs[0].times is trajs[1].times is t
        pos[0, 1, 0] = np.nan
        assert np.isnan(trajs[0].points[1, 0])


class TestFromBlock:
    """``SampledTrajectory.from_block`` checks a block once; each
    trajectory then skips only the checks whose input already passed."""

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejection_message(self, case):
        times, points, message = REJECTIONS[case]
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            SampledTrajectory.from_block(np.asarray(times), np.asarray(points)[None])

    def test_same_trajectories_as_one_by_one(self):
        t = np.linspace(0.0, 4.0, 5)
        pos = np.random.default_rng(0).normal(size=(3, 5, 2))
        want = [SampledTrajectory(t.copy(), p) for p in pos.copy()]
        got = SampledTrajectory.from_block(t, pos)
        assert all(g.times is t and g.points.base is pos for g in got)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.times, w.times)
            np.testing.assert_array_equal(g.points, w.points)
        assert not t.flags.writeable and not pos.flags.writeable

    def test_nan_in_one_row_of_a_large_block(self):
        pos = np.zeros((1000, 4, 1))
        pos[617, 2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
            SampledTrajectory.from_block(np.arange(4.0), pos)

    def test_grid_made_writable_again_is_checked_again(self):
        t = np.arange(4.0)
        SampledTrajectory.from_block(t, np.zeros((2, 4, 1)))
        t.setflags(write=True)
        t[2] = t[1]
        with pytest.raises(InvalidInputError, match="^times must be strictly increasing"):
            SampledTrajectory(t, np.zeros((4, 1)))
        with pytest.raises(InvalidInputError, match="^times must be strictly increasing"):
            SampledTrajectory.from_block(t, np.zeros((2, 4, 1)))

    def test_row_of_a_writable_block_is_checked(self):
        t = np.arange(4.0)
        pos = np.zeros((3, 4, 1))
        SampledTrajectory.from_block(t, pos)
        pos.setflags(write=True)
        pos[1, 2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
            SampledTrajectory(t, pos[1])

    def test_row_of_a_writable_view_block_is_checked(self):
        # The view is frozen, but its owner is not: rows of it are checked.
        t = np.arange(4.0)
        owner = np.zeros((3, 4, 1))
        SampledTrajectory.from_block(t, owner[:2])
        owner[1, 2, 0] = np.inf
        with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
            SampledTrajectory(t, owner[:2][1])

    def test_row_of_a_block_on_a_foreign_buffer_is_checked(self):
        # A read-only array over a bytearray still changes with the bytes.
        buf = bytearray(2 * 4 * 8)
        block = np.ndarray((2, 4, 1), float, buffer=buf)
        SampledTrajectory.from_block(np.arange(4.0), block)
        assert block[1].base is block and not block.flags.writeable
        buf[-8:] = np.array([np.nan]).tobytes()
        with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
            SampledTrajectory(np.arange(4.0), block[1])

    def test_misaligned_view_of_a_checked_block_is_checked(self):
        # Read 4 bytes off, a finite block decodes to a NaN in its first
        # element: the high half of element 1 is the high half of a NaN.
        block = np.zeros((1, 4, 1))
        block.view(np.int64)[0, 1, 0] = 0x3FF000007FF80000
        SampledTrajectory.from_block(np.arange(4.0), block)
        shifted = np.ndarray((3, 1), float, buffer=block, offset=4)
        assert shifted.base is block and np.isnan(shifted[0, 0])
        with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
            SampledTrajectory(np.arange(3.0), shifted)

    def test_slots_keep_no_array_alive(self):
        t, pos = np.arange(4.0), np.zeros((2, 4, 1))
        refs = [weakref.ref(t), weakref.ref(pos)]
        trajs = SampledTrajectory.from_block(t, pos)
        del t, pos, trajs
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_threads_sharing_the_slots(self):
        # Each thread checks blocks of its own, then writes a NaN into one
        # after making it writable again: whatever the other threads leave
        # in the slots, that row must be rejected.
        def work(k, errors):
            try:
                t = np.arange(4.0) + k
                for _ in range(100):
                    block = np.full((3, 4, 1), float(k))
                    assert len(SampledTrajectory.from_block(t, block)) == 3
                    block.setflags(write=True)
                    block[1, 2, 0] = np.nan
                    with pytest.raises(InvalidInputError, match="^points contains non-finite"):
                        SampledTrajectory(t, block[1])
            except BaseException as exc:
                errors.append(exc)

        errors = []
        threads = [threading.Thread(target=work, args=(k, errors)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []

    def test_trajectories_leave_positions_writable(self):
        positions = np.zeros((3, 2, 1))
        diag = EnsembleDiagnostics(
            min_rho=np.ones(3),
            shrink_events=np.zeros(3, dtype=np.int64),
            frozen_steps=np.zeros(3, dtype=np.int64),
            failed=np.zeros(3, dtype=bool),
        )
        result = IntegrationResult(np.array([0.0, 1.0]), positions, diag)
        trajs = result.trajectories
        assert len(trajs) == 3 and not trajs[0].points.flags.writeable
        assert positions.flags.writeable
        positions[0, 1, 0] = 5.0
        assert trajs[0].points[1, 0] == 0.0

    @staticmethod
    def count_finite_checks(monkeypatch):
        """Record the name of each finiteness check from here on."""
        names = []
        check = core._require_finite

        def counted(arr, name):
            names.append(name)
            check(arr, name)

        monkeypatch.setattr(core, "_require_finite", counted)
        return names

    def test_window_is_closed_after_from_block(self, monkeypatch):
        names = self.count_finite_checks(monkeypatch)
        trajs = SampledTrajectory.from_block(np.arange(4.0), np.zeros((3, 4, 1)))
        # The block is checked once; its rows are built inside the window.
        assert len(trajs) == 3 and names == ["times", "points"]
        assert core._window is None

    def test_a_rejected_block_leaves_the_window_closed(self):
        t = np.arange(4.0)
        good = np.zeros((3, 4, 1))
        SampledTrajectory.from_block(t, good)
        bad = np.zeros((3, 4, 1))
        bad[1, 2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
            SampledTrajectory.from_block(t, bad)
        assert core._window is None
        good.setflags(write=True)
        good[1, 2, 0] = np.nan
        for row in (good[1], bad[1]):
            with pytest.raises(InvalidInputError, match="^points contains non-finite entries"):
                SampledTrajectory(t, row)

    def test_a_build_cut_short_leaves_the_window_closed(self):
        class Stop(Exception):
            pass

        seen = []

        class CutShort(SampledTrajectory):
            __slots__ = ()

            def __post_init__(self):
                if len(seen) == 2:
                    raise Stop
                seen.append(core._window)
                super().__post_init__()

        t, pos = np.arange(4.0), np.zeros((3, 4, 1))
        with pytest.raises(Stop):
            CutShort.from_block(t, pos)
        assert seen == [(t, pos)] * 2 and core._window is None

    def test_a_view_block_is_checked_row_by_row(self, monkeypatch):
        t = np.linspace(0.0, 3.0, 4)
        owner = np.random.default_rng(2).normal(size=(5, 4, 2))
        want = [SampledTrajectory(t.copy(), p) for p in owner[1:4].copy()]
        names = self.count_finite_checks(monkeypatch)
        got = SampledTrajectory.from_block(t, owner[1:4])
        assert names == ["times", "points"] + ["times", "points"] * 3
        for g, w in zip(got, want):
            assert g.times is t and g.points.base is owner
            np.testing.assert_array_equal(g.times, w.times)
            np.testing.assert_array_equal(g.points, w.points)


def velocity_estimate(traj, t):
    """k(t)/t of one trajectory, through the ensemble measure at time t."""
    return velocity_measure_at([traj], t).samples[0]


class TestVelocityEstimate:
    def test_constant_trajectory(self):
        t = np.linspace(0.0, 20.0, 41)
        traj = SampledTrajectory(t, np.full((41, 1), 3.0))
        assert velocity_estimate(traj, 10.0)[0] == pytest.approx(0.3)

    def test_straight_line(self):
        assert velocity_estimate(line_traj(0.7), 4.0)[0] == pytest.approx(0.7)

    def test_free_gaussian_path(self):
        t = np.linspace(0.5, 25.0, 500)
        x = free_gaussian_trajectory(1.0, t)
        traj = SampledTrajectory(t, x[:, None])
        # k(20)/20 = sqrt(101)/20, up to polyline interpolation error
        assert velocity_estimate(traj, 20.0)[0] == pytest.approx(
            np.sqrt(101.0) / 20.0, abs=1e-8
        )

    def test_requires_positive_time(self):
        with pytest.raises(InvalidInputError, match="t > 0"):
            velocity_estimate(line_traj(0.5), 0.0)
        with pytest.raises(InvalidInputError, match="outside the recorded time range"):
            velocity_estimate(line_traj(0.5), 11.0)


@given(
    lam=st.floats(0.1, 5.0),
    v=st.floats(-2.0, 2.0),
    t=st.floats(0.5, 9.5),
)
@settings(max_examples=50, deadline=None)
def test_velocity_estimate_positive_homogeneity(lam, v, t):
    times = np.linspace(0.0, 10.0, 41)
    base = SampledTrajectory(times, (v * times + 0.3)[:, None])
    scaled = SampledTrajectory(times, lam * base.points)
    np.testing.assert_allclose(
        velocity_estimate(scaled, t),
        lam * velocity_estimate(base, t),
        rtol=1e-12,
        atol=1e-12,
    )


def read_ndjson(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def assert_record_matches(rec: dict, traj: SampledTrajectory) -> None:
    """The NDJSON record holds the trajectory's floats exactly."""
    assert set(rec) == {"times", "points", "n", "d"}
    np.testing.assert_array_equal(np.asarray(rec["times"], dtype=float), traj.times)
    np.testing.assert_array_equal(np.asarray(rec["points"], dtype=float), traj.points)
    assert (rec["n"], rec["d"]) == (1, traj.dim)


class TestSerialization:
    def test_trajectory_ndjson_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        trajs = [
            SampledTrajectory(
                np.sort(rng.uniform(0, 10, 5)) + np.arange(5) * 1e-3,
                rng.normal(size=(5, 3)),
            )
            for _ in range(4)
        ]
        path = tmp_path / "trajs.ndjson"
        save_trajectories_ndjson(trajs, path)
        records = read_ndjson(path)
        assert len(records) == 4
        for traj, rec in zip(trajs, records):
            assert_record_matches(rec, traj)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ndjson_bytes_match_json_dumps(self, tmp_path, dim):
        # Shared and separate time grids, -0.0 and extreme magnitudes.
        rng = np.random.default_rng(dim)
        shared = np.array([0.0, 2.5, 5.0, 10.0])
        points = rng.standard_normal((6, 4, dim)) * 10.0 ** rng.uniform(-300, 300, (6, 4, dim))
        points[0, 0, 0] = -0.0
        trajs = [SampledTrajectory(shared, p) for p in points[:3]]
        trajs += [SampledTrajectory(shared.copy(), p) for p in points[3:5]]
        trajs.append(SampledTrajectory(np.array([-0.0, 1e-300, 3.0, 7.5]), points[5]))
        path = tmp_path / "trajs.ndjson"
        save_trajectories_ndjson(trajs, path)
        want = "".join(json.dumps(ndjson_record(t.times, t.points), sort_keys=True) + "\n" for t in trajs)
        assert path.read_text() == want

    def test_ndjson_record_schema(self, tmp_path):
        traj = line_traj(0.5)
        save_trajectories_ndjson([traj], tmp_path / "t.ndjson")
        (rec,) = read_ndjson(tmp_path / "t.ndjson")
        assert set(rec) == {"times", "points", "n", "d"}
        assert rec == ndjson_record(traj.times, traj.points)

    def test_measure_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = EmpiricalMeasure.from_samples(rng.normal(size=(50, 2)), rng.uniform(0.1, 1, 50))
        path = tmp_path / "m.csv"
        m.to_csv(path)
        back = EmpiricalMeasure.from_csv(path)
        np.testing.assert_array_equal(m.samples, back.samples)
        np.testing.assert_array_equal(m.weights, back.weights)

    def test_ensemble_run_roundtrip(self, tmp_path):
        run = EnsembleRun(
            config={"system": "free_schrodinger", "seed": 7},
            seed=7,
            trajectories=[line_traj(0.2), line_traj(-0.4)],
            diagnostics={"failed_weight": 0.0},
            measures={"s_plus": EmpiricalMeasure.from_samples(np.array([0.1, 0.2, 0.3]))},
        )
        out = tmp_path / "run"
        run.save(out)
        with open(out / "config.json") as fh:
            assert json.load(fh) == run.config
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 7
        assert manifest["n_trajectories"] == 2
        assert manifest["measures"] == ["s_plus"]
        assert manifest["diagnostics"] == {"failed_weight": 0.0}
        records = read_ndjson(out / "trajectories.ndjson")
        assert len(records) == 2
        for traj, rec in zip(run.trajectories, records):
            assert_record_matches(rec, traj)
        back = EmpiricalMeasure.from_csv(out / "s_plus.csv")
        np.testing.assert_array_equal(back.samples, run.measures["s_plus"].samples)
        np.testing.assert_array_equal(back.weights, run.measures["s_plus"].weights)


class TestEmpiricalMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            EmpiricalMeasure(np.array([[0.0]]), np.array([0.5]))

    def test_from_samples_normalizes(self):
        m = EmpiricalMeasure.from_samples(np.arange(4.0), np.ones(4) * 3)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_transport(self):
        m = EmpiricalMeasure.from_samples(np.array([1.0, 2.0]))
        shifted = m.transport(lambda s: s + 5.0)
        np.testing.assert_array_equal(shifted.samples[:, 0], [6.0, 7.0])


class TestPoincareElement:
    """Pure boosts, the Poincare elements the experiments use: a boost is
    its speed u, and its inverse is -u."""

    def test_boost_speed_bound(self):
        with pytest.raises(InvalidInputError):
            transform_velocity_block(np.array([[0.5]]), 1.0)

    def test_inverse_is_matrix_inverse(self):
        v = np.array([[0.3, -0.2], [-0.7, 0.5], [0.0, 0.0], [0.9, 0.1]])
        back = transform_velocity_block(transform_velocity_block(v, 0.6), -0.6)
        np.testing.assert_allclose(back, v, atol=1e-12)


@given(
    n_nodes=st.integers(3, 12),
    n_cols=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_ndjson_roundtrip_property(tmp_path_factory, n_nodes, n_cols, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.1, 1.0, n_nodes))
    traj = SampledTrajectory(times, rng.normal(size=(n_nodes, n_cols)))
    path = tmp_path_factory.mktemp("ndjson") / "t.ndjson"
    save_trajectories_ndjson([traj], path)
    (rec,) = read_ndjson(path)
    assert_record_matches(rec, traj)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(bohmvel.__path__)))
def test_every_exported_name_resolves(module):
    """Each name in a module's ``__all__`` resolves, and a star import of
    the module succeeds."""
    mod = importlib.import_module(f"bohmvel.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    exec(f"from bohmvel.{module} import *", {})


def test_package_imports_are_listed_in_module_all():
    """Every name ``bohmvel/__init__.py`` imports from a module is in that
    module's ``__all__``: a deleted or renamed export fails here."""
    tree = ast.parse(Path(bohmvel.__file__).read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"bohmvel.{node.module}").__all__
    ]
    assert unlisted == []


def test_package_exports_are_listed_where_defined():
    """Every function or class the package exports is in the ``__all__``
    of the module that defines it."""
    unlisted = []
    for name in dir(bohmvel):
        obj = getattr(bohmvel, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if name not in importlib.import_module(obj.__module__).__all__:
                unlisted.append(f"{obj.__module__}.{name}")
    assert unlisted == []
