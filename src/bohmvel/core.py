"""Shared domain types for trajectory ensembles and velocity measures.

Conventions used everywhere in this package:

* natural units, hbar = c = 1; masses are order unity,
* a trajectory follows one particle in d spatial dimensions: a
  non-uniform polyline of positions in R^d with linear interpolation
  between samples; no higher-order dense output is attempted,
* empirical measures are weighted sample clouds over velocity space,
* a Lorentz boost is not a type: it is its speed u along x, and the
  relativity module applies it to velocities and states.

SampledTrajectory and EmpiricalMeasure are frozen and mark their arrays
read-only, but they share the arrays they are given instead of copying
them: trajectories built together keep one ``times`` object, which the
time-grid check of ``asymptotics._blocks`` tests by identity first.
Writing through a writable base array therefore reaches them: after
``trajs = [SampledTrajectory(t, p) for p in pos]``, ``pos[0, 1, 0] = nan``
changes ``trajs[0].points``. EnsembleRun is a plain mutable record.

Checked once: ``SampledTrajectory.from_block`` checks an (n, T, d) block
of trajectories on one time grid as a whole and freezes it, and each
trajectory's constructor then skips a check whose input has already
passed it. Two slots, each a weak reference (so no array is kept alive
and a reused ``id`` cannot match), remember the last time grid and the
last block that ``from_block`` checked. A check is skipped only for the
array in its slot (``times``), or an aligned view of it (``points``),
and only while that array is read-only. A slot only takes an array that
owns its data: such an array cannot change while it is read-only, and
numpy refuses to make a view of it writable. A slot is only a hint: when
another thread replaces it first, a trajectory runs the check again.
Caveat: re-enabling writes on a frozen array, changing it and freezing
it again defeats the skip; that is the same tampering that already
changes an existing trajectory under its checks, and the slots open no
other way to it.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SampledTrajectory",
    "EmpiricalMeasure",
    "EnsembleRun",
    "save_trajectories_ndjson",
    "config_hash",
]


def _finite_array(x, name: str, dtype=float) -> np.ndarray:
    arr = np.asarray(x, dtype=dtype)
    _require_finite(arr, name)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")


def _require_time_grid(times: np.ndarray) -> None:
    if times.ndim != 1 or times.size < 2:
        raise InvalidInputError("a trajectory needs at least 2 samples")
    # On finite times, t[i+1] <= t[i] exactly when t[i+1] - t[i] <= 0.
    if (times[1:] <= times[:-1]).any():
        raise InvalidInputError("times must be strictly increasing")


class _CheckedSlot:
    """The last array that passed a check, held by weak reference."""

    __slots__ = ("_ref",)

    def __init__(self):
        self._ref = None

    def holds(self, arr) -> bool:
        """Whether ``arr`` is the array in the slot and still read-only."""
        ref = self._ref
        return arr is not None and ref is not None and ref() is arr and not arr.flags.writeable

    def take(self, arr: np.ndarray) -> None:
        """Remember ``arr`` if it owns its data and is read-only."""
        if arr.base is None and not arr.flags.writeable:
            self._ref = weakref.ref(arr)


# The last time grid and the last block that SampledTrajectory.from_block
# checked.
_checked_times = _CheckedSlot()
_checked_block = _CheckedSlot()


@dataclass(frozen=True, slots=True)
class SampledTrajectory:
    """A time-stamped polyline approximating one particle's trajectory k(t).

    ``points`` has shape (n_samples, dim); values between samples are
    defined by linear interpolation.

    Every check runs on every trajectory, except one whose input has
    already passed it in ``from_block`` (see the module docstring): the
    times checks when ``times`` is the last grid it checked, and the
    finiteness of ``points`` when it is an aligned view of the last
    block it checked; in both cases only while that array is
    read-only. The shape check always runs. An array made writable,
    changed and frozen again is not checked again; such tampering also
    changes an existing trajectory after its checks.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        times_checked = _checked_times.holds(times)
        if not times_checked:
            _require_finite(times, "times")
        if not (points.flags.aligned and _checked_block.holds(points.base)):
            _require_finite(points, "points")
        if not times_checked:
            _require_time_grid(times)
        if points.ndim != 2 or points.shape[0] != times.size:
            raise InvalidInputError(
                f"points has shape {points.shape}, expected ({times.size}, dim)"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        times.setflags(write=False)
        points.setflags(write=False)

    @classmethod
    def from_block(cls, times, block) -> list["SampledTrajectory"]:
        """One trajectory per row of an (n, T, d) block on one time grid.

        Runs every check of the constructor on the whole block once, in
        the same order and with the same messages, then freezes ``times``
        and the block and builds ``[cls(times, p) for p in block]``; the
        trajectories share the block's memory, so each constructor skips
        the checks already done here (see the module docstring).
        """
        times = np.asarray(times, dtype=float)
        block = np.asarray(block, dtype=float)
        _require_finite(times, "times")
        _require_finite(block, "points")
        _require_time_grid(times)
        if block.ndim != 3 or block.shape[1] != times.size:
            raise InvalidInputError(
                f"points has shape {block.shape[1:]}, expected ({times.size}, dim)"
            )
        times.setflags(write=False)
        block.setflags(write=False)
        _checked_times.take(times)
        _checked_block.take(block)
        return [cls(times, p) for p in block]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


_WEIGHT_TOL = 1e-12

# Rows formatted per write: one tolist() of a whole 10^5-row table would
# hold every value as a Python float at once.
_CSV_CHUNK = 8192


def _repr_column(values: np.ndarray) -> list[str]:
    """``repr`` of each float of a 1D array. A column whose values all
    share one bit pattern (a uniform weight) is formatted once; bits, not
    values, are compared, so -0.0 and 0.0 keep their own text."""
    bits = values.view(np.int64)
    if values.size and (bits == bits[0]).all():
        return [repr(float(values[0]))] * values.size
    return list(map(repr, values.tolist()))


def _write_float_csv(path, header, columns) -> None:
    """Write columns side by side as CSV, each value as ``repr(float)``.

    ``columns`` are sequences of equal length, 1D or 2D (a 2D array gives
    one CSV column per array column).
    """
    n_rows = len(columns[0])
    flat = []
    for c in columns:
        arr = np.asarray(c, dtype=float)
        flat.extend(arr.T if arr.ndim == 2 else [arr])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK):
            texts = [_repr_column(col[start : start + _CSV_CHUNK]) for col in flat]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted sample cloud over velocity space.

    samples: (n, D) array; weights: nonnegative, summing to 1.
    """

    samples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        samples = _finite_array(self.samples, "samples")
        if samples.ndim == 1:
            samples = samples[:, None]
        weights = _finite_array(self.weights, "weights")
        if samples.shape[0] == 0:
            raise InvalidInputError("empirical measure needs at least one sample")
        if weights.shape != (samples.shape[0],):
            raise InvalidInputError("weights must match sample count")
        if np.any(weights < 0):
            raise InvalidInputError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise InvalidInputError(f"weights sum to {weights.sum()}, not 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "weights", weights)
        self.samples.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def from_samples(cls, samples, weights=None) -> "EmpiricalMeasure":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        n = samples.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=float)
            total = weights.sum()
            if total <= 0:
                raise InvalidInputError("total weight must be positive")
            weights = weights / total
        return cls(samples, weights)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def transport(self, f: Callable[[np.ndarray], np.ndarray]) -> "EmpiricalMeasure":
        """Pushforward through a map acting on (n, D) sample blocks."""
        return EmpiricalMeasure(np.asarray(f(self.samples), dtype=float), self.weights.copy())

    def to_csv(self, path) -> None:
        header = [f"v{i}" for i in range(self.dim)] + ["weight"]
        _write_float_csv(path, header, [self.samples, self.weights])

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        """The measure ``to_csv`` wrote; a file without a sample column,
        without rows, with ragged rows or with non-numeric entries raises
        InvalidInputError."""
        try:
            with open(path) as fh:
                ncol = len(fh.readline().split(","))
                data = np.array([[float(x) for x in line.split(",")] for line in fh if line.strip()])
        except ValueError:
            data = None
        if data is None or ncol < 2 or data.ndim != 2 or data.shape[1] != ncol:
            raise InvalidInputError(f"malformed measure CSV {path}")
        return cls(data[:, :-1], data[:, -1])


def save_trajectories_ndjson(trajs: Iterable[SampledTrajectory], path) -> None:
    """One line per trajectory, byte for byte ``json.dumps(record,
    sort_keys=True)`` of the record ``{"times": [...], "points": [[...],
    ...], "n": 1, "d": dim}``, written without the dict: floats as
    ``repr``, json's separators, and a ``times`` list shared by
    consecutive trajectories (one object) formatted once."""
    times, times_text = None, ""
    with open(path, "w") as fh:
        for traj in trajs:
            if traj.times is not times:
                times = traj.times
                times_text = ", ".join(map(repr, times.tolist()))
            rows = traj.points.tolist()
            if traj.dim == 1:
                points = "], [".join(repr(x) for (x,) in rows)
            else:
                points = "], [".join(", ".join(map(repr, row)) for row in rows)
            fh.write(f'{{"d": {traj.dim}, "n": 1, "points": [[{points}]], "times": [{times_text}]}}\n')


def config_hash(config: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON form of a config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class EnsembleRun:
    """Full record of one experiment, reproducible from (config, seed)."""

    config: dict
    seed: int
    trajectories: list[SampledTrajectory] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    measures: dict[str, EmpiricalMeasure] = field(default_factory=dict)
    reports: dict = field(default_factory=dict)

    def save(self, out_dir) -> None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            json.dump(self.config, fh, sort_keys=True, indent=2)
        save_trajectories_ndjson(self.trajectories, os.path.join(out_dir, "trajectories.ndjson"))
        for name, measure in self.measures.items():
            measure.to_csv(os.path.join(out_dir, f"{name}.csv"))
        manifest = {
            "config_hash": config_hash(self.config),
            "seed": self.seed,
            "n_trajectories": len(self.trajectories),
            "measures": sorted(self.measures),
            "diagnostics": _jsonable(self.diagnostics),
            "reports": _jsonable(self.reports),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj
