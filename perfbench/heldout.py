"""Held-out seed check: each workload on its default seed and on one other.

Usage (from the root of a source checkout):

    python3 perfbench/heldout.py --seed <held-out seed>

The default seed of a ``bohmvel run``/``covariance`` workload is the
``seed`` in its config; ``counterexample`` defaults to 0. For every
workload this runs ``run.py --trace 0`` on both seeds and reports whether
both passed the verdict gate and whether the held-out seed's
``time_to_verdict_s`` stays within the bound BENCHMARK.json gives it,
relative to the default seed. Exits 1 if any workload misses either.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, _workloads

# bohmvel counterexample's own default --seed.
COUNTEREXAMPLE_SEED = 0


def default_seed(workload: str) -> int:
    spec = _workloads(1)[workload]
    if "config" not in spec:
        return COUNTEREXAMPLE_SEED
    return int(json.loads((ROOT / spec["config"]).read_text())["seed"])


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        return {"correct": False, "metrics": {}, "error": out.stderr.strip()[-500:]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "time_to_verdict_s")

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        seed0 = default_seed(workload)
        base = run_once(workload, seed0, bench["run_seconds"])
        held = run_once(workload, args.seed, bench["run_seconds"])
        passed = base["correct"] and held["correct"]
        ratio = None
        if passed:
            ratio = (held["metrics"]["time_to_verdict_s"]["value"]
                     / base["metrics"]["time_to_verdict_s"]["value"])
        within = ratio is not None and abs(ratio - 1.0) <= bound
        ok = ok and passed and within
        print(json.dumps({
            "workload": workload,
            "default_seed": seed0,
            "heldout_seed": args.seed,
            "verdicts_pass": passed,
            "time_to_verdict_s": [r["metrics"].get("time_to_verdict_s", {}).get("value") for r in (base, held)],
            "ratio": ratio,
            "within_bound": within,
            "bound": bound,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
