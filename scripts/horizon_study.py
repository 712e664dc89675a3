"""Horizon study of the Dirac covariance experiment against the v+ oracle.

For every candidate checkpoint ladder in LADDERS and every seed in SEEDS
(the shipped seed first, then two held-out seeds) this runs
``bohmvel covariance`` on configs/dirac_covariance.json with its time
block set to the ladder: the checkpoints are the ladder, the record
times are 0 and the ladder, and ``t_max`` is the last checkpoint. The
step ``time.dt``, ``eta_tol`` and every threshold stay as shipped. It
reuses ``scripts/dt_study.py``'s harness, and for each of the five
pipelines (the base state and the states boosted by u = 0.2 and 0.4,
keyed by their run keys) records:

- the v+ error: |v+ - oracles.velocity_oracle| of every live trajectory
  whose start quantile lies in ``oracles.CENTRAL_BAND``, as its median
  and its max (v+ from the pipeline's own fit, converged or not);
- the converged fraction;
- the crossings (``count_order_violations``), the rejected evaluations
  and the failed trajectories;
- the pipeline's wall time;

and per run the command's wall time, exit code, every covariance check KS
and every foliation-sweep KS entry.

The rule, fixed before the study ran: a ladder passes when, on every seed
and every pipeline, the v+ error has a median of at most
HEADROOM * V_PLUS_MEDIAN_BOUND and a max of at most
HEADROOM * V_PLUS_MAX_BOUND (the tier-1 bounds of
``test_dirac_limiting_velocities_match_velocity_oracle``), the converged
fraction is at least ``asymptotics.REGULARITY_FRACTION``, there is no
crossing, and every covariance and sweep verdict passes. The study
chooses the shortest ``t_max`` that passes, then the fewest checkpoints.
It writes BENCH_horizon_study.json at the repository root; the shipped
time block is recorded beside the choice, and setting it is a separate,
deliberate config change.

Usage (about 40 seconds on 2 vCPUs):

    PYTHONPATH=src python scripts/horizon_study.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from dt_study import CONFIG, REPO, SEEDS, _host, covariance_run, horizon, oracles  # noqa: E402
from bohmvel import cli  # noqa: E402
from bohmvel.asymptotics import (  # noqa: E402
    REGULARITY_FRACTION,
    _fit_trajectories,
    dirac_velocity_distribution,
)
from bohmvel.guidance import count_order_violations  # noqa: E402

OUT = os.path.join(REPO, "BENCH_horizon_study.json")
LADDERS = (
    (10.0, 20.0, 40.0),
    (7.5, 15.0, 30.0),
    (7.5, 10.0, 15.0, 20.0, 30.0),
    (7.5, 10.0, 12.5, 15.0, 20.0, 25.0, 30.0),
    (6.25, 12.5, 25.0),
    (6.25, 7.5, 10.0, 12.5, 15.0, 20.0, 25.0),
    (5.0, 10.0, 20.0),
    (5.0, 6.0, 7.5, 10.0, 12.5, 15.0, 20.0),
)
# The tier-1 v+ oracle bounds, and the share of them a ladder must meet.
V_PLUS_MEDIAN_BOUND = 5e-4
V_PLUS_MAX_BOUND = 1.5e-2
HEADROOM = 0.7


def time_block(ladder) -> dict:
    """The config time keys of a ladder: it ends at t_max, and every
    checkpoint is a record time."""
    return {
        "t_max": ladder[-1],
        "checkpoints": list(ladder),
        "record_times": [0.0, *ladder],
    }


def label(ladder) -> str:
    return ",".join(f"{t:g}" for t in ladder)


def pipeline_record(result, wall_s: float) -> dict:
    """v+ error against the velocity oracle and health of one pipeline."""
    integ = result.integration
    live = ~integ.diagnostics.failed
    v_plus, _ = _fit_trajectories(integ, np.asarray(result.params.checkpoints, dtype=float))
    psi0 = result.psi0
    quantiles, oracle = oracles.velocity_oracle(
        psi0, dirac_velocity_distribution(psi0), integ.positions[live, 0, 0]
    )
    inside = (quantiles >= oracles.CENTRAL_BAND[0]) & (quantiles <= oracles.CENTRAL_BAND[1])
    err = np.abs(v_plus[inside, 0] - oracle[inside])
    diag = integ.diagnostics
    return {
        "run_key": result.params.run_key,
        "wall_s": wall_s,
        "v_plus_error_median": float(np.median(err)),
        "v_plus_error_max": float(np.max(err)),
        "band_trajectories": int(inside.sum()),
        "fraction_converged": result.regularity.fraction_converged,
        "crossings": count_order_violations(integ),
        "rejected_evaluations": diag.rejected_evaluations,
        "failed": int(diag.failed.sum()),
    }


def apply_rule(runs: list[dict]) -> dict:
    """Per-ladder verdicts of the rule and the ladder it chooses."""
    verdicts = {}
    for ladder in LADDERS:
        mine = [r for r in runs if r["checkpoints"] == list(ladder)]
        pipes = [p for r in mine for p in r["pipelines"]]
        median = max(p["v_plus_error_median"] for p in pipes)
        worst = max(p["v_plus_error_max"] for p in pipes)
        fraction = min(p["fraction_converged"] for p in pipes)
        crossings = sum(p["crossings"] for p in pipes)
        verdicts_pass = all(
            r["exit_code"] == 0
            and r["sweep"]["pass"]
            and all(c["pass"] for c in r["covariance_checks"])
            for r in mine
        )
        verdicts[label(ladder)] = {
            "worst_median": median,
            "worst_max": worst,
            "min_fraction_converged": fraction,
            "crossings": crossings,
            "verdicts_pass": verdicts_pass,
            "pass": (
                median <= HEADROOM * V_PLUS_MEDIAN_BOUND
                and worst <= HEADROOM * V_PLUS_MAX_BOUND
                and fraction >= REGULARITY_FRACTION
                and crossings == 0
                and verdicts_pass
            ),
        }
    passing = sorted(
        (ladder for ladder in LADDERS if verdicts[label(ladder)]["pass"]),
        key=lambda ladder: (ladder[-1], len(ladder)),
    )
    return {"per_ladder": verdicts, "chosen": time_block(passing[0]) if passing else None}


def main() -> int:
    cfg = cli.load_config(CONFIG)
    runs = []
    for seed in SEEDS:
        for ladder in LADDERS:
            record, results = covariance_run(cfg, time_block(ladder), seed)
            record["pipelines"] = [
                pipeline_record(res, wall_s) for key, (res, wall_s) in sorted(results.items())
            ]
            runs.append(record)
            print(f"seed {seed} ladder {label(ladder)}: {record['wall_s']:.1f} s, "
                  f"exit {record['exit_code']}", file=sys.stderr)
    study = {
        "config": os.path.relpath(CONFIG, REPO),
        "shipped_time": horizon(cfg),
        "dt": cfg["time"]["dt"],
        "eta_tol": float(cli._setting(cfg, "time", "eta_tol")),
        "n_trajectories": cfg["ensemble"]["n_trajectories"],
        "ladders": [list(ladder) for ladder in LADDERS],
        "seeds": list(SEEDS),
        "refinement": oracles.TRANSPORT_REFINEMENT,
        "central_band": list(oracles.CENTRAL_BAND),
        "rule": (
            f"shortest t_max, then fewest checkpoints, whose v+ error against the velocity oracle "
            f"has a median <= {HEADROOM:g} x {V_PLUS_MEDIAN_BOUND:g} and a max <= {HEADROOM:g} x "
            f"{V_PLUS_MAX_BOUND:g} on every seed and pipeline, with a converged fraction >= "
            f"{REGULARITY_FRACTION:g}, 0 crossings and every verdict passing"
        ),
        "host": _host(),
        "runs": runs,
        **apply_rule(runs),
    }
    with open(OUT, "w") as fh:
        json.dump(study, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"chosen": study["chosen"], "per_ladder": study["per_ladder"]}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
