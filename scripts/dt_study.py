"""Time-step studies against the monotone-transport oracle.

Two studies share one harness and one rule:

- ``dirac`` (the default) runs ``bohmvel covariance`` on
  configs/dirac_covariance.json: five pipelines per run (the base state
  and the states boosted by u = 0.2 and 0.4, keyed by their run keys).
  It writes BENCH_dt_study.json.
- ``free_gaussian`` runs ``bohmvel run`` on configs/free_gaussian.json:
  one pipeline per run (run key 0). It writes
  BENCH_dt_study_free_gaussian.json.

For every candidate step of the study and every seed in SEEDS (the
shipped seed first, then two held-out seeds) this runs the command with
``time.dt`` set to that step, and for each pipeline records:

- the oracle error: max |x(t) - F_t^-1(F_0(x(0)))| at every recorded
  time over the starts in the central 99.73% quantile band
  (``oracles.transport_oracle_band``, the starts tier-1 gates on;
  spatial interpolation plus time stepping);
- the time-stepping part: max |x_dt(t) - x_ref(t)| over the same starts,
  against the run at the study's reference step (same seed, same run
  key, so the same starts);
- the crossings (``count_order_violations``), the rejected evaluations
  and the failed trajectories;
- the pipeline's wall time;

and per run the command's wall time, exit code and verdicts: every
covariance check KS and every foliation-sweep KS entry, or the ``run``
comparison's KS, W1 and verdict. The config's time block apart from the
step (``t_max``, checkpoints, record times) is recorded as ``time``.

The rule, fixed before either study ran: a step passes when, on every
seed and every pipeline, its time-stepping part is at most SHARE of the
reference step's oracle error (both the maximum over the recorded
times), it has no crossing, and every verdict of the run passes. The
study chooses the largest step that passes, and writes its file at the
repository root; the shipped ``time.dt`` is recorded beside the choice,
and setting it is a separate, deliberate config change.

Usage (about 40 seconds for dirac and 10 seconds for free_gaussian on 2
vCPUs):

    PYTHONPATH=src python scripts/dt_study.py [dirac|free_gaussian]
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
from typing import Callable, NamedTuple

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tests"))

import oracles  # noqa: E402
from bohmvel import cli, relativity  # noqa: E402
from bohmvel.guidance import count_order_violations  # noqa: E402

CONFIG = os.path.join(REPO, "configs", "dirac_covariance.json")
OUT = os.path.join(REPO, "BENCH_dt_study.json")
DTS = (0.05, 0.1, 0.125, 0.15, 0.175, 0.2, 0.4)
REFERENCE_DT = 0.05
SEEDS = (20260808, 101, 202)
SHARE = 0.1


@contextlib.contextmanager
def _recorded_pipelines(log: list):
    """Record every pipeline that a command runs, with its wall time, by
    wrapping the pipeline where the CLI and the relativity module call it."""
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


def _run_command(command, cfg: dict, time_block: dict, seed: int, report: str | None = None):
    """``command(cfg, out_dir, seed)`` with the keys of ``time_block`` set
    in the config's ``time`` block, in a temporary output directory: the
    wall time, exit code, stdout, the JSON file ``report`` of the output
    directory (None without one), and the pipeline results with their
    wall times, by run key."""
    cfg = copy.deepcopy(cfg)
    cfg["time"].update(time_block)
    log: list = []
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, _recorded_pipelines(log):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = command(cfg, out_dir, seed)
        wall = time.perf_counter() - t0
        if report is not None:
            with open(os.path.join(out_dir, report)) as fh:
                report = json.load(fh)
    results = {res.params.run_key: (res, wall_s) for res, wall_s in log}
    return wall, code, stdout.getvalue(), report, results


def covariance_run(cfg: dict, time_block: dict, seed: int) -> tuple[dict, dict]:
    """One ``bohmvel covariance`` run with the keys of ``time_block`` set
    in the config's ``time`` block: its record, which carries those keys,
    and its pipeline results by run key."""
    wall, code, _, report, results = _run_command(
        cli.cmd_covariance, cfg, time_block, seed, "covariance_report.json"
    )
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
    return record, results


def single_run(cfg: dict, time_block: dict, seed: int) -> tuple[dict, dict]:
    """One ``bohmvel run`` with the keys of ``time_block`` set in the
    config's ``time`` block: its record, which carries those keys and the
    comparison's KS, W1 and verdict, and its pipeline result by run key."""
    wall, code, stdout, _, results = _run_command(cli.cmd_run, cfg, time_block, seed)
    printed = json.loads(stdout.strip().splitlines()[-1])
    record = {
        "seed": seed,
        **time_block,
        "wall_s": wall,
        "exit_code": code,
        "comparison": {k: printed[k] for k in ("ks", "w1", "pass")},
    }
    return record, results


def _covariance_verdicts(record: dict) -> bool:
    return record["sweep"]["pass"] and all(c["pass"] for c in record["covariance_checks"])


def _run_verdicts(record: dict) -> bool:
    return record["comparison"]["pass"]


class Study(NamedTuple):
    """One step study: the config, the command harness and the verdicts
    of its records, the candidate and reference steps, and the file the
    study writes."""

    config: str
    run: Callable[[dict, dict, int], tuple[dict, dict]]
    verdicts: Callable[[dict], bool]
    dts: tuple[float, ...]
    reference_dt: float
    out: str


STUDIES = {
    "dirac": Study(CONFIG, covariance_run, _covariance_verdicts, DTS, REFERENCE_DT, OUT),
    "free_gaussian": Study(
        os.path.join(REPO, "configs", "free_gaussian.json"),
        single_run,
        _run_verdicts,
        (0.025, 0.05, 0.0625, 0.08, 0.1, 0.125, 0.16, 0.2),
        0.025,
        os.path.join(REPO, "BENCH_dt_study_free_gaussian.json"),
    ),
}


def pipeline_record(result, wall_s: float, reference) -> dict:
    """Oracle error, time-stepping part and health of one pipeline;
    ``reference`` is the same pipeline at the study's reference step."""
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


def apply_rule(runs: list[dict], study: Study = STUDIES["dirac"]) -> dict:
    """Per-step verdicts of the rule and the largest step that passes."""
    reference = {
        (r["seed"], p["run_key"]): p["oracle_error_max"]
        for r in runs if r["dt"] == study.reference_dt for p in r["pipelines"]
    }
    verdicts = {}
    for dt in study.dts:
        mine = [r for r in runs if r["dt"] == dt]
        shares = [
            p["time_stepping_max"] / reference[(r["seed"], p["run_key"])]
            for r in mine for p in r["pipelines"]
        ]
        crossings = sum(p["crossings"] for r in mine for p in r["pipelines"])
        verdicts_pass = all(
            r["exit_code"] == 0
            and study.verdicts(r)
            and all(p["regularity_verdict"] for p in r["pipelines"])
            for r in mine
        )
        verdicts[f"{dt:g}"] = {
            "worst_share": max(shares),
            "crossings": crossings,
            "verdicts_pass": verdicts_pass,
            "pass": max(shares) <= SHARE and crossings == 0 and verdicts_pass,
        }
    passing = [dt for dt in study.dts if verdicts[f"{dt:g}"]["pass"]]
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


def study_runs(study: Study, cfg: dict, seeds=SEEDS) -> list[dict]:
    """The study's run records over ``seeds`` and its candidate steps, the
    reference step first on each seed."""
    runs = []
    for seed in seeds:
        for dt in sorted(study.dts, key=lambda dt: dt != study.reference_dt):
            record, results = study.run(cfg, {"dt": dt}, seed)
            if dt == study.reference_dt:
                reference = {k: res for k, (res, _) in results.items()}
            record["pipelines"] = [
                pipeline_record(res, wall_s, reference[key])
                for key, (res, wall_s) in sorted(results.items())
            ]
            runs.append(record)
            print(f"seed {seed} dt {dt:g}: {record['wall_s']:.1f} s, exit {record['exit_code']}",
                  file=sys.stderr)
    return runs


def main(argv=None) -> int:
    name = (sys.argv[1:] if argv is None else argv) or ["dirac"]
    if len(name) != 1 or name[0] not in STUDIES:
        print(f"usage: dt_study.py [{'|'.join(STUDIES)}]", file=sys.stderr)
        return 2
    study = STUDIES[name[0]]
    cfg = cli.load_config(study.config)
    runs = study_runs(study, cfg)
    record = {
        "config": os.path.relpath(study.config, REPO),
        "shipped_dt": cfg["time"]["dt"],
        "time": horizon(cfg),
        "n_trajectories": cfg["ensemble"]["n_trajectories"],
        "dts": list(study.dts),
        "reference_dt": study.reference_dt,
        "seeds": list(SEEDS),
        "refinement": oracles.TRANSPORT_REFINEMENT,
        "central_band": list(oracles.CENTRAL_BAND),
        "rule": (
            f"largest dt whose time-stepping part max|x_dt - x_{study.reference_dt:g}| is at most "
            f"{SHARE:g} of the dt-{study.reference_dt:g} oracle error on every seed and pipeline, "
            "with 0 crossings and every verdict passing"
        ),
        "host": _host(),
        "runs": runs,
        **apply_rule(runs, study),
    }
    with open(study.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"chosen_dt": record["chosen_dt"], "per_dt": record["per_dt"]}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
