"""Per-layer metrics computed from the spans of one traced experiment.

Each metric is named ``<module>.<metric>`` after the bohmvel module whose
functions the spans wrap. Times are inclusive unless the name says
``self``: a span's self time is its duration minus the part of it that its
child spans cover. A metric of a layer the workload never runs reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict

EVALUATE = "guidance.FieldSnapshot.evaluate"
SNAPSHOT = "guidance.FieldSnapshot.__init__"
INTEGRATE = "guidance.integrate_ensemble"
PROPAGATE = ("wavefunction.SplitStepPropagator.advance", "wavefunction.DiracPropagator.advance")
PIPELINE = "pipeline.run_guided_pipeline"
SWEEP = "relativity.foliation_sweep"
TRAJECTORY = "core.SampledTrajectory.__init__"
TO_CSV = "core.EmpiricalMeasure.to_csv"
SAVE = "core.EnsembleRun.save"


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanTree:
    """Spans as exported by ``spans.Tracer``: [id, parent, name, start, end]."""

    def __init__(self, spans: list):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)
            self.by_name[s[2]].append(s)

    def named(self, *names) -> list:
        return [s for n in names for s in self.by_name.get(n, ())]

    def has_ancestor(self, span, names) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def total(self, *names) -> float:
        """Summed duration of the named spans, counting nested ones once."""
        names = set(names)
        return sum(s[4] - s[3] for s in self.named(*names) if not self.has_ancestor(s, names))

    def self_time(self, span) -> float:
        kids = [(max(c[3], span[3]), min(c[4], span[4])) for c in self.children.get(span[0], ())]
        return (span[4] - span[3]) - _union(k for k in kids if k[1] > k[0])

    def root_cover(self) -> float:
        return _union((s[3], s[4]) for s in self.children.get(0, ()))


def _dur(spans) -> float:
    return sum(s[4] - s[3] for s in spans)


def compute(trace: dict, exp: dict, workers: int) -> dict:
    """Per-layer metrics of one traced experiment record."""
    tree = SpanTree(trace["spans"])
    extra = {int(k): v for k, v in trace["extra"].items()}
    m: dict[str, float] = {}

    ev = tree.named(EVALUATE)
    points = sum(extra.get(s[0], 0) for s in ev)
    m["guidance.evaluate_s"] = _dur(ev)
    m["guidance.evaluate_calls"] = len(ev)
    m["guidance.evaluate_points"] = points
    m["guidance.ns_per_point"] = 1e9 * _dur(ev) / points if points else 0.0
    snaps = tree.named(SNAPSHOT)
    m["guidance.snapshot_s"] = _dur(snaps)
    m["guidance.snapshot_calls"] = len(snaps)
    m["guidance.sample_s"] = tree.total("guidance.sample_initial")
    integ = tree.named(INTEGRATE)
    m["guidance.integrate_s"] = _dur(integ)
    m["guidance.integrate_self_s"] = sum(tree.self_time(s) for s in integ)
    m["guidance.equivariance_s"] = tree.total("guidance.check_equivariance")
    diags = [extra[s[0]] for s in integ if s[0] in extra]
    accepted = sum(d["accepted"] for d in diags)
    rejected = sum(d["rejected"] for d in diags)
    m["guidance.rejected_evaluations"] = rejected
    m["guidance.shrink_events"] = sum(d["shrink"] for d in diags)
    m["guidance.frozen_steps"] = sum(d["frozen"] for d in diags)
    m["guidance.failed_weight"] = max((d["failed_weight"] for d in diags), default=0.0)
    m["guidance.accept_base"] = accepted + rejected
    m["guidance.accept_ratio"] = accepted / (accepted + rejected) if accepted + rejected else 0.0
    m["guidance.oracle_pos_err_max"] = exp.get("oracle_err") or 0.0

    m["wavefunction.state_s"] = tree.total(
        "wavefunction.superposed_gaussians", "wavefunction.project_positive_energy"
    )
    prop = tree.named(*PROPAGATE)
    m["wavefunction.propagate_s"] = _dur(prop)
    m["wavefunction.propagate_calls"] = len(prop)
    m["wavefunction.propagate_us_per_call"] = 1e6 * _dur(prop) / len(prop) if prop else 0.0

    pipes = tree.named(PIPELINE)
    m["pipeline.runs"] = len(pipes)
    m["pipeline.run_s"] = _dur(pipes)

    fractions = [extra[s[0]] for s in tree.named("asymptotics.estimate_asymptotic_measure") if s[0] in extra]
    m["asymptotics.extrapolate_s"] = tree.total("asymptotics.estimate_asymptotic_measure")
    m["asymptotics.fraction_converged"] = min(fractions, default=0.0)
    m["asymptotics.quantum_s"] = tree.total(
        "asymptotics.free_velocity_distribution",
        "asymptotics.scattering_velocity_distribution",
        "asymptotics.dirac_velocity_distribution",
        "asymptotics.VelocityDistribution.as_measure",
        "asymptotics.VelocityDistribution.sample",
    )
    m["asymptotics.velocity_measure_s"] = tree.total("asymptotics.velocity_measure_at")
    m["asymptotics.compare_s"] = tree.total("asymptotics.verify_distribution_equality")
    m["asymptotics.family_s"] = tree.total("asymptotics.rotating_trajectory_family")

    ks = tree.named("stats.ks_two_sample_1d", "stats.ks_vs_cdf_1d")
    m["stats.ks_s"] = _dur(ks)
    m["stats.ks_calls"] = len(ks)
    m["stats.w1_s"] = tree.total("stats.wasserstein1_1d")
    m["stats.ks_max"] = exp["ks_max"]

    sweep_s = tree.total(SWEEP)
    swept = [s for s in pipes if tree.has_ancestor(s, {SWEEP})]
    m["relativity.boost_state_s"] = tree.total("relativity.boost_dirac_state")
    m["relativity.covariance_check_s"] = tree.total("relativity.verify_boost_covariance")
    m["relativity.sweep_s"] = sweep_s
    m["relativity.sweep_runs"] = len(swept)
    m["relativity.sweep_efficiency"] = _dur(swept) / (workers * sweep_s) if sweep_s else 0.0

    trajs = tree.named(TRAJECTORY)
    csvs = tree.named(TO_CSV)
    m["core.trajectory_objects_s"] = _dur(trajs)
    m["core.trajectory_objects"] = len(trajs)
    m["core.ndjson_s"] = tree.total("core.save_trajectories_ndjson")
    m["core.csv_s"] = _dur(csvs)
    m["core.csv_rows"] = sum(extra.get(s[0], 0) for s in csvs)
    m["core.save_s"] = tree.total(SAVE)
    write_s = m["core.save_s"] + _dur(s for s in csvs if not tree.has_ancestor(s, {SAVE}))
    m["core.artifact_mb"] = exp["artifact_mb"]
    m["core.write_mb_per_s"] = exp["artifact_mb"] / write_s if write_s else 0.0

    m["trace.root_cover_s"] = tree.root_cover()
    return m


def rk4_steps(config: dict) -> int:
    """RK4 steps of one pipeline, as ``integrate_ensemble`` lays them out."""
    t = config["time"]
    t_max = float(t["t_max"])
    checkpoints = t.get("checkpoints", [t_max / 4.0, t_max / 2.0, t_max])
    record = t.get("record_times", [0.0, t_max / 8.0, *checkpoints])
    times = sorted({float(x) for x in (*record, *checkpoints)})
    dt = float(t.get("dt", 0.05))
    return sum(max(1, math.ceil((b - a) / dt - 1e-12)) for a, b in zip(times, times[1:]))


def count_mismatches(m: dict, steps: int, pipelines: int, swept: int, trajectories: int) -> list[str]:
    """Span counts that differ from what the workload implies.

    Each pipeline takes 4 field evaluations, 2 propagator half-steps and 2
    snapshots per RK4 step, plus the initial snapshot. The near-node slow
    path adds evaluations, so the evaluation count is exact only when no
    step was shrunk or frozen. The sweep's pipelines run on pool threads and
    count only when their spans were attributed to the sweep.
    """
    expected = {
        "pipeline.runs": pipelines,
        "relativity.sweep_runs": swept,
        "guidance.snapshot_calls": (2 * steps + 1) * pipelines,
        "wavefunction.propagate_calls": 2 * steps * pipelines,
        "core.trajectory_objects": trajectories,
    }
    bad = [f"{k}={m[k]} expected {v}" for k, v in expected.items() if m[k] != v]
    ev = 4 * steps * pipelines
    slow = m["guidance.shrink_events"] or m["guidance.frozen_steps"]
    if (m["guidance.evaluate_calls"] < ev) if slow else (m["guidance.evaluate_calls"] != ev):
        bad.append(f"guidance.evaluate_calls={m['guidance.evaluate_calls']} expected {ev}")
    return bad
