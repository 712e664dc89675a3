"""Smoke tests of the scripts under scripts/ against this checkout."""

import importlib.util
import json
from pathlib import Path

from bohmvel.cli import load_config
from bohmvel.wavefunction import DiracPropagator

REPO = Path(__file__).resolve().parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_builds_its_states():
    bench = load_script("bench_kernels")
    schrodinger, dirac0, dirac, prop, half_step = bench._states()
    assert schrodinger.kind == "schrodinger" and dirac.kind == "dirac"
    # 20 split steps of the free Gaussian's time.dt, and one unit of Dirac time.
    dt = json.loads((REPO / "configs" / "free_gaussian.json").read_text())["time"]["dt"]
    assert schrodinger.t == 20 * dt and dirac0.t == 0.0 and dirac.t == 1.0
    assert isinstance(prop, DiracPropagator)
    assert half_step == 0.5 * bench.DIRAC_DT


def test_bench_kernels_builds_and_calls_every_kernel(tmp_path):
    # The script reaches into private signatures (``guidance._rk4_block``
    # among them); building and calling each kernel once here catches a
    # signature change before a benchmark run does.
    bench = load_script("bench_kernels")
    kernels, digests = bench.build_kernels(str(tmp_path))
    assert set(kernels) == set(bench.CALLS)
    assert set(digests) <= set(kernels)
    for fn in kernels.values():
        fn()


def test_dt_study_runs_one_free_gaussian_cell():
    # One (seed, dt) cell of the free-Gaussian step study at n = 200, as its
    # own reference: a signature change in ``cli.cmd_run`` or ``oracles``
    # fails here rather than in the next study run.
    dt_study = load_script("dt_study")
    study = dt_study.STUDIES["free_gaussian"]._replace(dts=(0.1,), reference_dt=0.1)
    cfg = load_config(study.config)
    cfg["ensemble"]["n_trajectories"] = 200
    (run,) = dt_study.study_runs(study, cfg, seeds=(dt_study.SEEDS[0],))
    assert (run["seed"], run["dt"]) == (dt_study.SEEDS[0], 0.1)
    assert set(run["comparison"]) == {"ks", "w1", "pass"}
    (pipeline,) = run["pipelines"]
    assert pipeline["run_key"] == 0 and pipeline["times"] == cfg["time"]["record_times"]
    assert pipeline["time_stepping_max"] == 0.0 and 0.0 < pipeline["oracle_error_max"] < 1e-2
    verdict = dt_study.apply_rule([run], study)
    assert verdict["per_dt"]["0.1"]["worst_share"] == 0.0
