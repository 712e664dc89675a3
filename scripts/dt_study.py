"""Time-step study of the Dirac covariance experiment against the
monotone-transport oracle.

For every candidate step in DTS and every seed in SEEDS (the shipped seed
first, then two held-out seeds) this runs ``bohmvel covariance`` on
configs/dirac_covariance.json with ``time.dt`` set to that step, and for
each of its five pipelines (the base state and the states boosted by
u = 0.2 and 0.4, keyed by their run keys) records:

- the oracle error: max |x(t) - F_t^-1(F_0(x(0)))| at every recorded
  time over the starts in the central 99.73% quantile band
  (``oracles.transport_oracle_band``, the starts tier-1 gates on;
  spatial interpolation plus time stepping);
- the time-stepping part: max |x_dt(t) - x_ref(t)| over the same starts,
  against the run at the reference step REFERENCE_DT (same seed, same run
  key, so the same starts);
- the crossings (``count_order_violations``), the rejected evaluations
  and the failed trajectories;
- the pipeline's wall time;

and per run the command's wall time, exit code, every covariance check KS
and every foliation-sweep KS entry. The config's time block apart from
the step (``t_max``, checkpoints, record times) is recorded as ``time``.

The rule, fixed before the study ran: a step passes when, on every seed
and every pipeline, its time-stepping part is at most SHARE of the
reference step's oracle error (both the maximum over the recorded
times), it has no crossing, and every verdict of the run passes. The
study chooses the largest step that passes. It writes BENCH_dt_study.json
at the repository root; the shipped ``time.dt`` is recorded beside the
choice, and setting it is a separate, deliberate config change.

Usage (about 1.5 minutes on 2 vCPUs):

    PYTHONPATH=src python scripts/dt_study.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tests"))

import oracles  # noqa: E402
from bohmvel import cli, relativity  # noqa: E402
from bohmvel.guidance import count_order_violations  # noqa: E402

CONFIG = os.path.join(REPO, "configs", "dirac_covariance.json")
OUT = os.path.join(REPO, "BENCH_dt_study.json")
DTS = (0.05, 0.1, 0.2, 0.4)
REFERENCE_DT = 0.05
SEEDS = (20260808, 101, 202)
SHARE = 0.1


@contextlib.contextmanager
def _recorded_pipelines(log: list):
    """Record every pipeline that ``bohmvel covariance`` runs, with its
    wall time, by wrapping the pipeline where the CLI and the relativity
    module call it."""
    inner = cli.run_guided_pipeline

    def recording(psi0, potential, params):
        t0 = time.perf_counter()
        result = inner(psi0, potential, params)
        log.append((result, time.perf_counter() - t0))
        return result

    cli.run_guided_pipeline = relativity.run_guided_pipeline = recording
    try:
        yield
    finally:
        cli.run_guided_pipeline = relativity.run_guided_pipeline = inner


def covariance_run(cfg: dict, time_block: dict, seed: int) -> tuple[dict, dict]:
    """One ``bohmvel covariance`` run with the keys of ``time_block`` set
    in the config's ``time`` block: its record, which carries those keys,
    and its pipeline results by run key."""
    cfg = copy.deepcopy(cfg)
    cfg["time"].update(time_block)
    log: list = []
    with tempfile.TemporaryDirectory() as out_dir, _recorded_pipelines(log):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cmd_covariance(cfg, out_dir, seed)
        wall = time.perf_counter() - t0
        with open(os.path.join(out_dir, "covariance_report.json")) as fh:
            report = json.load(fh)
    record = {
        "seed": seed,
        **time_block,
        "wall_s": wall,
        "exit_code": code,
        "covariance_checks": [
            {"u": r["u"], "ks": r["ks"], "pass": r["pass"]} for r in report["covariance_checks"]
        ],
        "sweep": {k: report["sweep"][k] for k in ("labels", "ks_matrix", "pass")},
    }
    results = {res.params.run_key: (res, wall_s) for res, wall_s in log}
    return record, results


def pipeline_record(result, wall_s: float, reference) -> dict:
    """Oracle error, time-stepping part and health of one pipeline;
    ``reference`` is the same pipeline at REFERENCE_DT."""
    integ = result.integration
    inside, oracle = oracles.transport_oracle_band(integ)
    pos = integ.positions[:, :, 0]
    oracle_error = np.max(np.abs(pos[inside] - oracle[inside]), axis=0)
    band = inside & ~reference.integration.diagnostics.failed
    stepping = np.max(np.abs(pos[band] - reference.integration.positions[band, :, 0]), axis=0)
    diag = integ.diagnostics
    return {
        "run_key": result.params.run_key,
        "wall_s": wall_s,
        "times": integ.times.tolist(),
        "oracle_error": oracle_error.tolist(),
        "oracle_error_max": float(oracle_error.max()),
        "time_stepping": stepping.tolist(),
        "time_stepping_max": float(stepping.max()),
        "band_trajectories": int(band.sum()),
        "crossings": count_order_violations(integ),
        "rejected_evaluations": diag.rejected_evaluations,
        "failed": int(diag.failed.sum()),
        "regularity_verdict": result.regularity.verdict,
    }


def apply_rule(runs: list[dict]) -> dict:
    """Per-step verdicts of the rule and the largest step that passes."""
    reference = {
        (r["seed"], p["run_key"]): p["oracle_error_max"]
        for r in runs if r["dt"] == REFERENCE_DT for p in r["pipelines"]
    }
    verdicts = {}
    for dt in DTS:
        mine = [r for r in runs if r["dt"] == dt]
        shares = [
            p["time_stepping_max"] / reference[(r["seed"], p["run_key"])]
            for r in mine for p in r["pipelines"]
        ]
        crossings = sum(p["crossings"] for r in mine for p in r["pipelines"])
        verdicts_pass = all(
            r["exit_code"] == 0
            and r["sweep"]["pass"]
            and all(c["pass"] for c in r["covariance_checks"])
            and all(p["regularity_verdict"] for p in r["pipelines"])
            for r in mine
        )
        verdicts[f"{dt:g}"] = {
            "worst_share": max(shares),
            "crossings": crossings,
            "verdicts_pass": verdicts_pass,
            "pass": max(shares) <= SHARE and crossings == 0 and verdicts_pass,
        }
    passing = [dt for dt in DTS if verdicts[f"{dt:g}"]["pass"]]
    return {"per_dt": verdicts, "chosen_dt": max(passing) if passing else None}


def horizon(cfg: dict) -> dict:
    """The config's time block without its step: the horizon every run of
    the study shares."""
    return {k: cfg["time"][k] for k in ("t_max", "checkpoints", "record_times")}


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def main() -> int:
    cfg = cli.load_config(CONFIG)
    runs = []
    for seed in SEEDS:
        for dt in DTS:
            record, results = covariance_run(cfg, {"dt": dt}, seed)
            if dt == REFERENCE_DT:
                reference = {k: res for k, (res, _) in results.items()}
            record["pipelines"] = [
                pipeline_record(res, wall_s, reference[key])
                for key, (res, wall_s) in sorted(results.items())
            ]
            runs.append(record)
            print(f"seed {seed} dt {dt:g}: {record['wall_s']:.1f} s, exit {record['exit_code']}",
                  file=sys.stderr)
    study = {
        "config": os.path.relpath(CONFIG, REPO),
        "shipped_dt": cfg["time"]["dt"],
        "time": horizon(cfg),
        "n_trajectories": cfg["ensemble"]["n_trajectories"],
        "dts": list(DTS),
        "reference_dt": REFERENCE_DT,
        "seeds": list(SEEDS),
        "refinement": oracles.TRANSPORT_REFINEMENT,
        "central_band": list(oracles.CENTRAL_BAND),
        "rule": (
            f"largest dt whose time-stepping part max|x_dt - x_{REFERENCE_DT:g}| is at most "
            f"{SHARE:g} of the dt-{REFERENCE_DT:g} oracle error on every seed and pipeline, "
            "with 0 crossings and every verdict passing"
        ),
        "host": _host(),
        "runs": runs,
        **apply_rule(runs),
    }
    with open(OUT, "w") as fh:
        json.dump(study, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"chosen_dt": study["chosen_dt"], "per_dt": study["per_dt"]}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
