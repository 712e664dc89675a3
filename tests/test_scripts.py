"""Smoke tests of the scripts under scripts/ against this checkout."""

import importlib.util
from pathlib import Path

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
    assert schrodinger.t == 1.0 and dirac0.t == 0.0 and dirac.t == 1.0
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
