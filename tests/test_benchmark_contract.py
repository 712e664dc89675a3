"""The benchmark's traced contract, on reduced workloads.

``perfbench/run.py --trace 1`` fails a traced experiment whose span counts
differ from what its workload implies (``layers.count_mismatches``), and a
run whose traced experiments all fail reports no per-layer metric. This
runs each workload's command in the benchmark's own child process with
the tracer installed, on a small copy of its config, and applies the same
check with the counts the benchmark's ``Runner`` expects. The benchmark
code is only read here.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench)

# Small enough for tier-1: fewer trajectories on the shipped grid and time
# block, so the span counts are those of the shipped step layout.
# Thresholds are loosened because at these sizes sampling noise alone
# exceeds the shipped ones, and a failed verdict would drop the traced
# experiment as the benchmark does.
REDUCED = {
    "covariance": {
        "ensemble": {"n_trajectories": 400},
        "thresholds": {"ks": 0.2, "covariance_ks": 0.2},
    },
    "free_gaussian": {
        "ensemble": {"n_trajectories": 400},
        "thresholds": {},
    },
}
ROTATING_N = 2000


def reduced_workload(name: str, tmp_path: Path) -> dict:
    """The benchmark's workload spec with a reduced config or size."""
    spec = copy.deepcopy(perfbench._workloads(1)[name])
    argv = spec["argv"]
    if name == "rotating":
        argv[argv.index("--n") + 1] = str(ROTATING_N)
        spec["trajectories"] = ROTATING_N
        return spec
    cfg = json.loads((REPO / spec["config"]).read_text())
    cfg.update(REDUCED[name])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    spec["config"] = str(path)
    argv[argv.index("--config") + 1] = str(path)
    return spec


@pytest.mark.parametrize("name", ["covariance", "free_gaussian", "rotating"])
def test_traced_span_counts_match_the_workload(name, tmp_path):
    spec = reduced_workload(name, tmp_path)
    sidecar = tmp_path / "sidecar.json"
    cmd = [
        sys.executable, str(PERFBENCH / "child.py"), str(sidecar), "trace",
        *spec["argv"], "--seed", "1", "--out", str(tmp_path / "out"),
    ]
    proc = subprocess.run(
        cmd, cwd=REPO, env=perfbench.child_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(sidecar.read_text())
    assert record["bohmvel_file"].startswith(str(REPO / "src"))

    runner = perfbench.Runner(name, spec, 1, deadline=0.0)
    steps = layers.rk4_steps(runner.config) if runner.config else 0
    metrics = layers.compute(record["trace"], {"ks_max": 0.0, "artifact_mb": 0.0}, 1)
    bad = layers.count_mismatches(
        metrics, steps, runner.pipelines(), runner.swept_pipelines(), runner.trajectories()
    )
    assert bad == []
