"""Per-call timings of the guidance, propagation, boost and CSV kernels.

Times, in fresh single-threaded worker processes:

- ``FieldSnapshot.evaluate`` at 10^4 points drawn from |psi|^2, on a
  snapshot of configs/free_gaussian.json (Schrodinger) and of
  configs/dirac_covariance.json (Dirac);
- ``FieldSnapshot`` construction for both states;
- ``stencil_build``: ``_interp.CubicStencil`` on a Dirac snapshot's rho
  and current grids, built once per snapshot: the spectral spline
  prefilter and the four cubic-spline cell coefficient arrays of each
  grid (on older trees the four Catmull-Rom arrays, or the periodic ghost
  cells only; on a tree without it, the ``np.pad`` of both grids that
  every interpolation call used to make);
- ``rk4_step``: one ``guidance._rk4_block`` at 10^4 points on three
  Dirac snapshots half a step apart, the step the covariance pipelines
  repeat;
- ``DiracPropagator.advance`` by half an RK4 step, the call the Dirac
  ensemble integration repeats: each call advances the previous call's
  output, as the integration does, by +dt/2 and -dt/2 in turn;
- ``EmpiricalMeasure.to_csv`` of a 10^5-row measure into a temporary
  directory, the size of ``q_plus_samples.csv`` in ``bohmvel run``;
- ``boost_dirac_state`` at u = 0.4 on the initial state of
  configs/dirac_covariance.json, as ``bohmvel covariance`` boosts it;
- ``rotating_family``: ``rotating_trajectory_family(1.0, None, 100000, 0,
  dim=2)``, the 10^5 trajectory objects that
  ``bohmvel counterexample --n 100000 --dim 2`` builds;
- ``rotating_estimator``: the three estimator calls of that command on
  its rotating family: ``velocity_measure_at`` at t = 5 and at t = 10,
  and ``estimate_asymptotic_measure`` on the checkpoint ladder 10, 20, 40
  at tol 0.1 (which raises ``RegularityError``: no trajectory converges);
- ``extrapolate``: ``estimate_asymptotic_measure`` on an
  ``IntegrationResult`` of 10^4 closed-form free-Gaussian trajectories
  (configs/free_gaussian.json: its record times, checkpoints and eta_tol),
  with their closed-form velocities on trees whose integration results
  record velocities, so the fit of positions and velocities is timed
  there (the position fit on older trees);
- ``trajectory_objects``: ``IntegrationResult.trajectories`` of that
  result, 10^4 ``SampledTrajectory`` objects, on a fresh result each call;
- ``ndjson_write``: ``save_trajectories_ndjson`` of those trajectories,
  built on a fresh result each call, into a temporary directory;
- ``ks_w1``: KS and W1 between 10^4 and 10^5 weighted samples, as
  ``verify_distribution_equality`` computes them: ``stats.ks_w1_1d`` on
  trees that have it, ``ks_two_sample_1d`` plus ``wasserstein1_1d`` on
  older ones.

The two Dirac step kernels step by the fixed DIRAC_DT = 0.05, not by the
config's ``time.dt``, so a step change in the config does not change what
they time and their figures stay comparable across result files.
``rotating_family`` and ``rotating_estimator`` time the two parts of the
benchmark's ``rotating`` workload that its speed-ups rest on. The inputs
of the four kernels after them are built only through calls whose
signatures older trees share.

Usage:

    python scripts/bench_kernels.py
    python scripts/bench_kernels.py --tree before=OLD/src --tree after=src

Each ``--tree label=path`` names a source directory holding the bohmvel
package (default: this checkout's src). Every round starts one worker per
tree, alternating which tree goes first, and each worker times several
blocks of calls per kernel. The result file records the median and
quartiles of the per-call time over all blocks, a sha256 of each kernel's
output where there is one (the evaluate arrays, the CSV bytes, the
boosted amplitudes, the RK4 positions, the stacked family points, the
two velocity measures and the regularity report, the extrapolated
measure, the NDJSON bytes, the KS and W1 values; equal digests mean
bitwise-equal results), and the host: nproc, CPU, Python and numpy
versions. With two or more trees it also records,
per kernel, the ratio of the last tree to the first within each round
(each tree's median block in that round) and the median and quartiles
of those per-round ratios: host speed drifts between rounds, and a
paired ratio cancels what the two workers of one round share.

Every round ends with one more worker of the first tree, and
``noise_floor`` records, per kernel, the median and quartiles of the
per-round ratio of that repeat to the same tree's first worker: the
paired ratio of two identical trees. A tree's paired ratio says
something only where it lies outside that spread.

After its timed blocks each worker calls every kernel once more, untimed,
under ``tracemalloc``: ``peak_alloc_mb`` records, per tree and kernel, the
median over workers of the peak of the memory that call allocated (what
it returns included), a figure that does not depend on host load.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_POINTS = 10_000
CSV_ROWS = 100_000
BOOST_U = 0.4
DIRAC_DT = 0.05
FAMILY_N = 100_000
ENSEMBLE_N = 10_000
KS_N = (10_000, 100_000)
# Worker processes per tree, and timed blocks per kernel in each worker.
ROUNDS = 10
BLOCKS = 5
# Calls per timed block; each block takes roughly 0.05-0.2 s.
CALLS = {
    "evaluate_schrodinger": 50,
    "evaluate_dirac": 50,
    "snapshot_schrodinger": 50,
    "snapshot_dirac": 100,
    "dirac_advance": 200,
    "stencil_build": 200,
    "rk4_step": 20,
    "measure_to_csv": 1,
    "boost_dirac_state": 100,
    "rotating_family": 1,
    "rotating_estimator": 1,
    "extrapolate": 50,
    "trajectory_objects": 1,
    "ndjson_write": 1,
    "ks_w1": 5,
}
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _states():
    from bohmvel import wavefunction
    from bohmvel.wavefunction import (
        DiracPropagator,
        GridSpec,
        SplitStepPropagator,
        project_positive_energy,
        superposed_gaussians,
    )

    def build(name, kind):
        with open(os.path.join(REPO, "configs", name)) as fh:
            cfg = json.load(fh)
        g = cfg["grid"]
        spec = GridSpec(g["n_points"], g["x_min"], g["x_max"])
        psi = superposed_gaussians(spec, cfg["mass"], cfg["packets"], kind=kind)
        return psi, cfg["time"]["dt"]

    schrodinger, dt = build("free_gaussian.json", "schrodinger")
    spec, mass = schrodinger.spec, schrodinger.mass
    if "dt" in inspect.signature(SplitStepPropagator).parameters:
        # Older trees build one propagator per step size, with a potential
        # object for free evolution too.
        prop = SplitStepPropagator(spec, mass, wavefunction.PotentialSpec.none(), dt)
        schrodinger = prop.advance(schrodinger, 20)
    else:
        schrodinger = SplitStepPropagator(spec, mass).advance(schrodinger, dt, 20)
    dirac, _ = build("dirac_covariance.json", "dirac")
    dirac, _ = project_positive_energy(dirac)
    prop = DiracPropagator(dirac.spec, dirac.mass)
    return schrodinger, dirac, prop.advance(dirac, 1.0), prop, 0.5 * DIRAC_DT


def _source_digest(package_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith((".py", ".json")):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def build_kernels(tmp: str) -> tuple[dict, dict]:
    """Every kernel of the importable bohmvel as a no-argument callable, by
    name, and the sha256 of each output; the CSV and NDJSON kernels write
    into the directory ``tmp``."""
    import numpy as np

    from bohmvel import _interp, guidance, stats
    from bohmvel.asymptotics import (
        estimate_asymptotic_measure,
        rotating_trajectory_family,
        velocity_measure_at,
    )
    from bohmvel.core import EmpiricalMeasure, save_trajectories_ndjson
    from bohmvel.errors import RegularityError
    from bohmvel.guidance import (
        EnsembleDiagnostics,
        FieldSnapshot,
        IntegrationResult,
        _rk4_block,
        sample_initial,
    )
    from bohmvel.stats import ks_two_sample_1d, wasserstein1_1d
    from bohmvel.relativity import boost_dirac_state

    schrodinger, dirac0, dirac, prop, half_step = _states()
    kernels, digests = {}, {}
    for label, psi in (("schrodinger", schrodinger), ("dirac", dirac)):
        snap = FieldSnapshot(psi)
        points = sample_initial(psi, N_POINTS, 0)
        digests[f"evaluate_{label}"] = _sha256(*(a.tobytes() for a in snap.evaluate(points, 1e-12)))
        kernels[f"evaluate_{label}"] = lambda snap=snap, points=points: snap.evaluate(points, 1e-12)
        kernels[f"snapshot_{label}"] = lambda psi=psi: FieldSnapshot(psi)
    # Each call advances the previous call's output, as the integrator
    # does, alternating +dt/2 and -dt/2 so the packet stays in place.
    chain = [dirac, half_step]

    def dirac_advance():
        chain[0] = prop.advance(chain[0], chain[1])
        chain[1] = -chain[1]

    kernels["dirac_advance"] = dirac_advance

    dirac_snap = FieldSnapshot(dirac)
    # Older trees keep a list of currents, one per axis.
    current = dirac_snap.current if hasattr(dirac_snap, "current") else dirac_snap.currents[0]
    grids = [dirac_snap.rho, current]
    spec = dirac.spec
    if hasattr(_interp, "CubicStencil"):
        kernels["stencil_build"] = lambda: _interp.CubicStencil(grids, spec.x_min, spec.dx)
    else:
        kernels["stencil_build"] = lambda: [np.pad(g, [(1, 2)], mode="wrap") for g in grids]

    mid = prop.advance(dirac, half_step)
    snaps = [dirac_snap, FieldSnapshot(mid), FieldSnapshot(prop.advance(mid, half_step))]
    dirac_points = sample_initial(dirac, N_POINTS, 0)
    if hasattr(guidance, "NodePolicy"):
        # Older trees take a NodePolicy for the density floor, and some a
        # slow-path budget as a last argument.
        rho_floor = guidance.NodePolicy()
        budget = (math.inf,) if len(inspect.signature(_rk4_block).parameters) == 8 else ()
    else:
        rho_floor, budget = 1e-12, ()

    def diagnostics(n):
        return EnsembleDiagnostics(
            min_rho=np.full(n, np.inf),
            shrink_events=np.zeros(n, dtype=np.int64),
            frozen_steps=np.zeros(n, dtype=np.int64),
            failed=np.zeros(n, dtype=bool),
        )

    def rk4_step():
        return _rk4_block(dirac_points, *snaps, 2.0 * half_step, rho_floor, diagnostics(N_POINTS), *budget)

    kernels["rk4_step"] = rk4_step
    # Newer trees return the stage velocities k1 and k4 beside the positions.
    step = rk4_step()
    digests["rk4_step"] = _sha256(*(a.tobytes() for a in (step if isinstance(step, tuple) else (step,))))

    measure = EmpiricalMeasure.from_samples(np.random.default_rng(0).standard_normal(CSV_ROWS))
    kernels["boost_dirac_state"] = lambda: boost_dirac_state(dirac0, BOOST_U)
    digests["boost_dirac_state"] = _sha256(kernels["boost_dirac_state"]().amplitudes.tobytes())

    # The family and checkpoints of ``cmd_counterexample`` at its defaults.
    kernels["rotating_family"] = lambda: rotating_trajectory_family(1.0, None, FAMILY_N, 0, dim=2)
    family = kernels["rotating_family"]()
    digests["rotating_family"] = _sha256(np.stack([t.points for t in family]).tobytes())

    def rotating_estimator():
        s_a, s_b = (velocity_measure_at(family, t) for t in (5.0, 10.0))
        try:
            _, report = estimate_asymptotic_measure(family, np.array([10.0, 20.0, 40.0]), 0.1)
        except RegularityError as exc:
            report = exc.report
        return s_a, s_b, report

    kernels["rotating_estimator"] = rotating_estimator
    s_a, s_b, report = rotating_estimator()
    digests["rotating_estimator"] = _sha256(
        s_a.samples.tobytes(), s_b.samples.tobytes(), json.dumps(report.to_dict(), sort_keys=True).encode()
    )

    # Exact free-Gaussian trajectories x0 sqrt(1 + (t / 2 sigma0^2)^2) of
    # configs/free_gaussian.json (m = 1, p0 = 0), from its start draw.
    with open(os.path.join(REPO, "configs", "free_gaussian.json")) as fh:
        free_cfg = json.load(fh)
    sigma0 = free_cfg["packets"][0]["sigma0"]
    record = np.asarray(free_cfg["time"]["record_times"], dtype=float)
    checkpoints = np.asarray(free_cfg["time"]["checkpoints"], dtype=float)
    x0 = sample_initial(schrodinger, ENSEMBLE_N, 0)[:, 0]
    tau = 2.0 * sigma0**2
    width = np.sqrt(1.0 + (record / tau) ** 2)
    positions = (x0[:, None] * width)[:, :, None]
    extra = {}
    if "velocities" in inspect.signature(IntegrationResult).parameters:
        extra["velocities"] = (x0[:, None] * record / (tau**2 * width))[:, :, None]

    def ensemble():
        return IntegrationResult(record, positions, diagnostics(ENSEMBLE_N), **extra)

    def extrapolate():
        return estimate_asymptotic_measure(ensemble(), checkpoints, 0.05)[0]

    kernels["extrapolate"] = extrapolate
    extrapolated = extrapolate()
    digests["extrapolate"] = _sha256(extrapolated.samples.tobytes(), extrapolated.weights.tobytes())
    kernels["trajectory_objects"] = lambda: ensemble().trajectories

    rng = np.random.default_rng(1)
    ks_a, ks_b = (EmpiricalMeasure.from_samples(rng.standard_normal(n), rng.uniform(0.5, 1.5, n))
                  for n in KS_N)

    def ks_w1():
        if hasattr(stats, "ks_w1_1d"):
            return np.array(stats.ks_w1_1d(ks_a, ks_b))
        ks = ks_two_sample_1d(ks_a.samples[:, 0], ks_a.weights, ks_b.samples[:, 0], ks_b.weights)
        return np.array([ks, wasserstein1_1d(ks_a, ks_b)])

    kernels["ks_w1"] = ks_w1
    digests["ks_w1"] = _sha256(ks_w1().tobytes())

    csv_path = os.path.join(tmp, "measure.csv")
    kernels["measure_to_csv"] = lambda: measure.to_csv(csv_path)
    kernels["measure_to_csv"]()
    with open(csv_path, "rb") as fh:
        digests["measure_to_csv"] = _sha256(fh.read())
    ndjson_path = os.path.join(tmp, "trajectories.ndjson")
    kernels["ndjson_write"] = lambda: save_trajectories_ndjson(ensemble().trajectories, ndjson_path)
    kernels["ndjson_write"]()
    with open(ndjson_path, "rb") as fh:
        digests["ndjson_write"] = _sha256(fh.read())
    return kernels, digests


def worker() -> dict:
    """Time every kernel of the importable bohmvel; print-ready dict."""
    import bohmvel

    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        kernels, digests = build_kernels(tmp)
        for name, fn in kernels.items():
            fn()
            calls = CALLS[name]
            per_call = []
            for _ in range(BLOCKS):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                per_call.append((time.perf_counter() - t0) / calls * 1e3)
            times[name] = per_call
        peaks = {}
        for name, fn in kernels.items():
            tracemalloc.start()
            fn()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
    return {
        "source_sha256": _source_digest(os.path.dirname(bohmvel.__file__)),
        "output_sha256": digests,
        "per_call_ms": times,
        "peak_alloc_mb": peaks,
    }


def _quantiles(xs: list[float]) -> dict:
    xs = sorted(xs)

    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return {"median": q(0.5), "q1": q(0.25), "q3": q(0.75), "samples": len(xs)}


def _host() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_per_worker": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=None, metavar="LABEL=SRC",
                        help="source directory holding the bohmvel package (repeatable)")
    parser.add_argument("--out", default=os.path.join(REPO, "BENCH_kernels.json"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0

    trees = [t.split("=", 1) for t in (args.tree or [f"current={os.path.join(REPO, 'src')}"])]
    runs: dict[str, list[dict]] = {label: [] for label, _ in trees}
    repeats: list[dict] = []
    for r in range(ROUNDS):
        order = trees if r % 2 == 0 else trees[::-1]
        for label, src in [*order, trees[0]]:
            env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": os.path.abspath(src)}
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker"],
                env=env, check=True, capture_output=True, text=True,
            )
            record = json.loads(out.stdout)
            # The first tree's own record comes first in the round, its repeat last.
            (repeats if len(runs[label]) > r else runs[label]).append(record)
            print(f"round {r + 1}/{ROUNDS} {label} done", file=sys.stderr)

    result = {"host": _host(), "points": N_POINTS, "csv_rows": CSV_ROWS, "boost_u": BOOST_U,
              "dirac_dt": DIRAC_DT, "family_n": FAMILY_N, "ensemble_n": ENSEMBLE_N,
              "ks_n": list(KS_N),
              "rounds": ROUNDS, "blocks": BLOCKS, "calls_per_block": CALLS,
              "unit": "ms per call", "trees": {}}
    for label, recs in runs.items():
        result["trees"][label] = {
            "source_sha256": recs[0]["source_sha256"],
            "output_sha256": recs[0]["output_sha256"],
            "kernels": {
                name: _quantiles([x for rec in recs for x in rec["per_call_ms"][name]])
                for name in CALLS
            },
            "peak_alloc_mb": {
                name: _quantiles([rec["peak_alloc_mb"][name] for rec in recs])["median"]
                for name in CALLS
            },
        }
    def paired_ratio(first, last):
        def round_median(rec, name):
            return _quantiles(rec["per_call_ms"][name])["median"]

        return {
            name: _quantiles([round_median(b, name) / round_median(a, name) for a, b in zip(first, last)])
            for name in CALLS
        }

    first = runs[trees[0][0]]
    result["noise_floor"] = {"tree": trees[0][0], "ratio": paired_ratio(first, repeats)}
    if len(trees) > 1:
        result[f"paired_ratio_{trees[-1][0]}_over_{trees[0][0]}"] = paired_ratio(first, runs[trees[-1][0]])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: v for k, v in result.items() if k.startswith(("paired_ratio", "noise_floor"))}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
