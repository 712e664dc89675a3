"""Configuration-driven experiment runner.

Subcommands: run, covariance, counterexample, plotdata, validate-config.
Configs are single JSON documents. Which keys exist, their types and their
ranges are stated once, in the package's experiment_config.schema.json;
the validator here walks that schema and adds only the rules that cross
fields. Unknown keys and out-of-range values are rejected before any
computation (silent typos destroy physics runs).

Exit codes: 0 pass, 2 comparison failed, 3 regularity invalid (no verdict
possible), 4 configuration error, 5 numerical failure. Structured JSON
errors go to stderr.

Every output file is a pure function of (config, seed): no timestamps or
hostnames are written, and all randomness flows from the root seed via
the spawn-key scheme in the pipeline module.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import os
import sys

import numpy as np

from .asymptotics import (
    dirac_velocity_distribution,
    estimate_asymptotic_measure,
    free_velocity_distribution,
    rotating_trajectory_family,
    scattering_velocity_distribution,
    velocity_measure_at,
    verify_distribution_equality,
)
from .core import EmpiricalMeasure, EnsembleRun, _write_float_csv, config_hash
from .errors import (
    BohmvelError,
    ConfigurationError,
    InvalidInputError,
    NumericalFailureError,
    RegularityError,
)
from .guidance import check_equivariance, count_order_violations
from .pipeline import PipelineParams, run_guided_pipeline
from .relativity import foliation_label, foliation_sweep, verify_boost_covariance
from .stats import ks_critical_value, ks_distance
from .wavefunction import (
    GaussianBarrier,
    GridSpec,
    check_packet_fits,
    check_split_step_stability,
    outgoing_asymptote,
    project_positive_energy,
    rk4_step_sizes,
    superposed_gaussians,
)

EXIT_PASS = 0
EXIT_COMPARISON_FAIL = 2
EXIT_REGULARITY_INVALID = 3
EXIT_CONFIG_ERROR = 4
EXIT_NUMERICAL_FAILURE = 5

ENV_OUT_DIR = "BOHMVEL_OUT_DIR"


# ---------------------------------------------------------------------------
# Config validation. The JSON schema shipped beside this module is the only
# statement of which keys exist, their types and their ranges; _check walks
# it (the draft-07 keywords the file uses), and validate_config adds only
# the rules that cross fields or depend on the system.

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "experiment_config.schema.json")

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float), "integer": int}
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "exclusiveMaximum": (operator.lt, "<")}


@functools.cache
def config_schema() -> dict:
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def _setting(cfg: dict, *path: str):
    """The config's value at ``path`` (keys of nested objects), or the
    default the schema states for it."""
    schema = config_schema()
    for key in path[:-1]:
        cfg = cfg.get(key, {})
        schema = schema["properties"][key]
    return cfg[path[-1]] if path[-1] in cfg else schema["properties"][path[-1]]["default"]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


def _is_type(value, name: str) -> bool:
    # A JSON bool is not a number; an integer is any number with no
    # fractional part (draft-07), so 3.0 counts.
    if isinstance(value, bool) and name in ("number", "integer"):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _check(value, schema: dict, path: str) -> None:
    """Raise ConfigurationError naming ``path`` where ``value`` breaks ``schema``."""
    if "type" in schema:
        _expect(_is_type(value, schema["type"]), f"{path} must be of type {schema['type']}")
    if "enum" in schema:
        _expect(value in schema["enum"], f"{path} must be one of {schema['enum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            _expect(key in value, f"{path}.{key} is required")
        for key, item in value.items():
            _expect(key in props or schema.get("additionalProperties", True), f"unknown key {path}.{key}")
            if key in props:
                _check(item, props[key], f"{path}.{key}")
    elif isinstance(value, list):
        _expect(len(value) >= schema.get("minItems", 0), f"{path} needs at least {schema.get('minItems')} items")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{path}[{i}]")
    elif _is_type(value, "number"):
        for key, (holds, op) in _BOUNDS.items():
            if key in schema:
                _expect(holds(value, schema[key]), f"{path} must be {op} {schema[key]}")


def validate_config(cfg: dict) -> dict:
    """Check an experiment config against the schema and the cross-field
    rules; returns it unchanged (defaults are applied where read)."""
    _check(cfg, config_schema(), "config")
    try:
        grid = _grid(cfg)
    except InvalidInputError as exc:
        # GridSpec's messages start with the name of the field.
        raise ConfigurationError(f"config.grid.{exc}") from None
    for i, packet in enumerate(cfg["packets"]):
        try:
            check_packet_fits(grid, float(packet["x0"]), float(packet["sigma0"]))
        except ConfigurationError as exc:
            raise ConfigurationError(f"config.packets[{i}]: {exc}") from None
    system = cfg["system"]
    if system == "potential_schrodinger":
        _expect("potential" in cfg, "potential_schrodinger needs config.potential")
    else:
        _expect("potential" not in cfg, f"{system} takes no config.potential")
    _expect("moller" not in cfg or system == "potential_schrodinger",
            "config.moller requires the potential system")
    _expect("boosts" not in cfg or system == "free_dirac", "config.boosts requires the free_dirac system")
    # Each foliation's measure is written to a file named by its label.
    labels = [foliation_label(u) for u in cfg.get("boosts", ())]
    clash = sorted({x for x in labels if labels.count(x) > 1})
    _expect(not clash, f"config.boosts: several boosts share the label {', '.join(clash)}")
    try:
        params = _pipeline_params(cfg, 0)
    except InvalidInputError as exc:
        # PipelineParams' messages start with the name of the time field.
        raise ConfigurationError(f"config.time.{exc}") from None
    # Every guided RK4 step of size h advances the state by h/2 twice, and
    # the outgoing-asymptote legs take the same half steps.
    layouts = [params.record_times]
    if system == "potential_schrodinger":
        times = _extraction_times(cfg)
        _expect(all(a < b for a, b in zip(times, times[1:])),
                "config.moller.extraction_times must increase strictly")
        layouts.append([0.0, *times])
    potential, mass = _potential(cfg), float(_setting(cfg, "mass"))
    try:
        for h in {h for layout in layouts for h, _ in rk4_step_sizes(layout, params.dt)}:
            check_split_step_stability(grid, mass, potential, 0.5 * h)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config.time.dt: {exc}") from None
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Builders shared by the commands.

def _grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(int(g["n_points"]), float(g["x_min"]), float(g["x_max"]))


def _build_state(cfg: dict):
    grid = _grid(cfg)
    mass = float(_setting(cfg, "mass"))
    kind = "dirac" if cfg["system"] == "free_dirac" else "schrodinger"
    psi = superposed_gaussians(grid, mass, cfg["packets"], kind=kind)
    projection_info = {}
    if kind == "dirac":
        psi, discarded = project_positive_energy(psi)
        projection_info["discarded_weight"] = discarded
    return psi, projection_info


def _potential(cfg: dict) -> GaussianBarrier | None:
    if cfg["system"] != "potential_schrodinger":
        return None
    pot = cfg["potential"]
    center = _setting(cfg, "potential", "center")
    return GaussianBarrier(float(pot["height"]), float(pot["width"]), float(center))


def _pipeline_params(cfg: dict, seed: int) -> PipelineParams:
    time_cfg = cfg["time"]
    return PipelineParams(
        n_trajectories=int(_setting(cfg, "ensemble", "n_trajectories")),
        t_max=float(time_cfg["t_max"]),
        dt=float(_setting(cfg, "time", "dt")),
        record_times=tuple(time_cfg["record_times"]) if "record_times" in time_cfg else None,
        checkpoints=tuple(time_cfg["checkpoints"]) if "checkpoints" in time_cfg else None,
        eta_tol=float(_setting(cfg, "time", "eta_tol")),
        rho_floor=float(_setting(cfg, "ensemble", "rho_floor")),
        seed=seed,
    )


def _extraction_times(cfg: dict) -> list[float]:
    """The outgoing-asymptote extraction times; by default t_max/2,
    3 t_max/4 and t_max."""
    t_max = float(cfg["time"]["t_max"])
    return cfg.get("moller", {}).get("extraction_times", [t_max / 2.0, 0.75 * t_max, t_max])


def _quantum_distribution(cfg: dict, psi, potential: GaussianBarrier | None):
    """The quantum-side velocity distribution, and the outgoing asymptote it
    is read from (None for the free systems)."""
    system = cfg["system"]
    if system == "free_schrodinger":
        return free_velocity_distribution(psi), None
    if system == "free_dirac":
        return dirac_velocity_distribution(psi), None
    out = outgoing_asymptote(
        psi,
        potential,
        _extraction_times(cfg),
        dt=float(_setting(cfg, "time", "dt")),
        residual_tol=float(_setting(cfg, "moller", "residual_tol")),
    )
    return scattering_velocity_distribution(out, psi.mass), out


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands.

def cmd_run(cfg: dict, out_dir: str, seed: int | None) -> int:
    seed = int(_setting(cfg, "seed")) if seed is None else seed
    cfg = dict(cfg)
    cfg["seed"] = seed
    psi, projection_info = _build_state(cfg)
    params = _pipeline_params(cfg, seed)
    potential = _potential(cfg)

    # The quantum side first: a state that has no outgoing asymptote (one
    # with a bound part) fails before any trajectory is integrated. The
    # two sides draw from separate spawn keys, so the order changes no
    # artifact.
    q_dist, outgoing = _quantum_distribution(cfg, psi, potential)
    result = run_guided_pipeline(psi, potential, params)

    thr = cfg.get("thresholds", {})
    comparison = verify_distribution_equality(
        result.s_plus,
        q_dist,
        seed=seed,
        ks_threshold=thr.get("ks"),
        w1_threshold=thr.get("w1"),
    )
    q_measure = comparison.pop("q_measure")

    equivariance = {}
    eq_threshold = thr.get("equivariance_ks")
    for snap, t in zip(result.integration.snapshots, result.integration.times):
        if t > 0:
            equivariance[f"{t:g}"] = check_equivariance(result.integration, snap, float(t))
    order_violations = count_order_violations(result.integration)

    reports = {
        "regularity": result.regularity.to_dict(),
        "comparison": comparison,
        "equivariance": equivariance,
        "projection": projection_info,
        "order_violations": order_violations,
    }
    if outgoing is not None:
        reports.update(
            moller_residual_curve=outgoing.residual_curve.tolist(),
            moller_extraction_times=outgoing.extraction_times.tolist(),
            cauchy_residual=outgoing.cauchy_residual,
        )
    os.makedirs(out_dir, exist_ok=True)
    run = EnsembleRun(
        config=cfg,
        seed=seed,
        trajectories=result.integration.trajectories,
        diagnostics=result.integration.diagnostics.summary(),
        measures={"s_plus": result.s_plus},
        reports=reports,
    )
    run.save(out_dir)

    q_measure.to_csv(os.path.join(out_dir, "q_plus_samples.csv"))
    # Trapezoid normalization: integral of the density over this grid is
    # the continuous mass (see the measures docs).
    _write_float_csv(
        os.path.join(out_dir, "q_plus_density.csv"), ["v", "density"], [q_dist.v, q_dist.density]
    )
    for t in result.integration.times:
        if t > 0:
            velocity_measure_at(result.integration, float(t)).to_csv(
                os.path.join(out_dir, f"s_t_{t:g}.csv")
            )
    if outgoing is not None:
        _write_float_csv(
            os.path.join(out_dir, "out_momentum_density.csv"),
            ["p", "density"],
            [outgoing.p, outgoing.density],
        )
        _write_float_csv(
            os.path.join(out_dir, "moller_residuals.csv"),
            ["T", "residual"],
            [outgoing.extraction_times[1:], outgoing.residual_curve],
        )

    ok = comparison["pass"] and result.regularity.verdict
    if eq_threshold is not None:
        ok = ok and all(v <= eq_threshold for v in equivariance.values())
    print(json.dumps({
        "out_dir": out_dir,
        "config_hash": config_hash(cfg),
        "ks": comparison["ks"],
        "w1": comparison["w1"],
        "fraction_converged": result.regularity.fraction_converged,
        "pass": bool(ok),
    }, sort_keys=True))
    if not result.regularity.verdict:
        return EXIT_REGULARITY_INVALID
    return EXIT_PASS if ok else EXIT_COMPARISON_FAIL


def cmd_covariance(cfg: dict, out_dir: str, seed: int | None) -> int:
    if cfg["system"] != "free_dirac":
        raise ConfigurationError("covariance runs need system = free_dirac")
    seed = int(_setting(cfg, "seed")) if seed is None else seed
    cfg = dict(cfg)
    cfg["seed"] = seed
    psi, projection_info = _build_state(cfg)
    params = _pipeline_params(cfg, seed)
    boosts = [float(u) for u in _setting(cfg, "boosts")]
    threshold = float(_setting(cfg, "thresholds", "covariance_ks"))

    try:
        # The checks and the sweep read only the base run's measure and
        # report, so its integration is let go before they run theirs.
        base = dataclasses.replace(run_guided_pipeline(psi, None, params), integration=None)
        if not base.regularity.verdict:
            raise RegularityError("base run failed the regularity verdict", base.regularity)

        per_boost = []
        for k, u in enumerate(b for b in boosts if b != 0.0):
            rep = verify_boost_covariance(
                psi, u, params, base=base, run_key=k + 1, ks_threshold=threshold
            )
            rep.pop("transported_measure", None)
            rep.pop("boosted_measure", None)
            per_boost.append(rep)

        sweep = foliation_sweep(psi, boosts, params, base, ks_threshold=threshold)
    except RegularityError as exc:
        # No verdict is possible; record that explicitly before exiting.
        os.makedirs(out_dir, exist_ok=True)
        _write_json(
            os.path.join(out_dir, "covariance_report.json"),
            {
                "config_hash": config_hash(cfg),
                "seed": seed,
                "verdict": "invalid",
                "reason": str(exc),
                "regularity": exc.report.to_dict() if exc.report is not None else None,
            },
        )
        raise

    os.makedirs(out_dir, exist_ok=True)
    report = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "verdict": "valid",
        "projection": projection_info,
        "covariance_checks": per_boost,
        "sweep": {
            "labels": sweep["labels"],
            "ks_matrix": sweep["ks_matrix"].tolist(),
            "pass": sweep["pass"],
            "ks_threshold": sweep["ks_threshold"],
            "regularity": sweep["regularity"],
        },
    }
    _write_json(os.path.join(out_dir, "covariance_report.json"), report)
    for label, measure in zip(sweep["labels"], sweep["measures"]):
        measure.to_csv(os.path.join(out_dir, f"s_plus_foliation_{label}.csv"))

    ok = sweep["pass"] and all(r["pass"] for r in per_boost)
    print(json.dumps({
        "out_dir": out_dir,
        "pairwise_ks_max": float(np.max(sweep["ks_matrix"])),
        "pass": bool(ok),
    }, sort_keys=True))
    return EXIT_PASS if ok else EXIT_COMPARISON_FAIL


def cmd_counterexample(omega: float, n: int, dim: int, seed: int, out_dir: str) -> int:
    """Stationary instantaneous velocity measure without trajectory-level
    convergence: the rotating family dichotomy."""
    t_pair = (5.0, 10.0)
    checkpoints = np.array([10.0, 20.0, 40.0])
    tol = 0.1
    family = rotating_trajectory_family(
        omega, [0.0, 0.0, 1.0] if dim == 3 else None, n, seed, dim=dim
    )
    s_a = velocity_measure_at(family, t_pair[0])
    s_b = velocity_measure_at(family, t_pair[1])
    ks = ks_distance(s_a, s_b)
    critical = ks_critical_value(n, n, alpha=0.01)
    try:
        _, report = estimate_asymptotic_measure(family, checkpoints, tol)
    except RegularityError as exc:
        report = exc.report
    stationary = bool(np.max(ks) <= critical)
    fraction = report.fraction_converged
    payload = {
        "omega": omega,
        "n": n,
        "dim": dim,
        "seed": seed,
        "s_t_ks_per_axis": [float(x) for x in ks],
        "s_t_times": list(t_pair),
        "ks_critical_alpha_0.01": critical,
        "stationary": stationary,
        "fraction_converged": fraction,
        "convergence_tol": tol,
        "checkpoints": checkpoints.tolist(),
        "note": "n=1 runs carry no stationarity power; interpret KS with care",
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "counterexample_report.json"), payload)
    verdict = bool(stationary and (fraction == 0.0 if omega != 0 else fraction == 1.0))
    print(json.dumps({
        "stationary": stationary,
        "fraction_converged": fraction,
        "pass": verdict,
    }, sort_keys=True))
    return EXIT_PASS if verdict else EXIT_COMPARISON_FAIL


def cmd_plotdata(run_dir: str, out_dir: str | None) -> int:
    """Histogram/CDF/residual-curve CSV bundles from a finished run."""
    if not os.path.isdir(run_dir):
        raise ConfigurationError(f"run directory not found: {run_dir}")
    out_dir = out_dir or os.path.join(run_dir, "plotdata")
    expected = ["manifest.json", "s_plus.csv"]
    missing = [f for f in expected if not os.path.exists(os.path.join(run_dir, f))]
    if missing:
        raise ConfigurationError(f"run directory incomplete, missing: {', '.join(missing)}")
    expected_extras = ["q_plus_density.csv"]
    cfg_path = os.path.join(run_dir, "config.json")
    if os.path.exists(cfg_path):
        try:
            with open(cfg_path) as fh:
                cfg = json.load(fh)
        except ValueError:
            cfg = None
        if not isinstance(cfg, dict):
            raise InvalidInputError(f"malformed run config {cfg_path}: not a JSON object")
        if cfg.get("system") == "potential_schrodinger":
            expected_extras.append("moller_residuals.csv")
    # Every input is parsed before anything is written: no partial bundle.
    measures = {
        name[:-4]: EmpiricalMeasure.from_csv(os.path.join(run_dir, name))
        for name in sorted(os.listdir(run_dir))
        if name.endswith(".csv") and name.startswith(("s_", "q_plus_samples"))
    }
    extras, partial = {}, []
    for extra in expected_extras:
        src = os.path.join(run_dir, extra)
        if os.path.exists(src):
            with open(src) as fh:
                extras[extra] = fh.read()
        else:
            partial.append(extra)
    os.makedirs(out_dir, exist_ok=True)
    for stem, measure in measures.items():
        values = measure.samples[:, 0]
        order = np.argsort(values, kind="mergesort")
        _write_float_csv(
            os.path.join(out_dir, f"{stem}_cdf.csv"),
            ["v", "cdf"],
            [values[order], np.cumsum(measure.weights[order])],
        )
        hist, edges = np.histogram(values, bins=101, weights=measure.weights)
        _write_float_csv(
            os.path.join(out_dir, f"{stem}_hist.csv"),
            ["left", "right", "mass"],
            [edges[:-1], edges[1:], hist],
        )
    for extra, data in extras.items():
        with open(os.path.join(out_dir, extra), "w") as fh:
            fh.write(data)
    if partial:
        print(json.dumps({"out_dir": out_dir, "skipped_missing": partial}, sort_keys=True))
    else:
        print(json.dumps({"out_dir": out_dir}, sort_keys=True))
    return EXIT_PASS


# ---------------------------------------------------------------------------

def _error_payload(exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bohmvel",
        description="Guided-trajectory ensembles and asymptotic velocity experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full ensemble pipeline for one configured system")
    p_cov = sub.add_parser("covariance", help="boost covariance and foliation sweep (Dirac)")
    for p in (p_run, p_cov):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    # Kept only because the benchmark's covariance workload passes it; the
    # sweep runs its pipelines one after another.
    p_cov.add_argument("--workers", type=int, default=None, help="accepted; has no effect")

    p_ce = sub.add_parser("counterexample", help="rotating-family stationarity dichotomy")
    p_ce.add_argument("--omega", type=float, default=1.0)
    p_ce.add_argument("--n", type=int, default=10_000)
    p_ce.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p_ce.add_argument("--seed", type=int, default=0)
    p_ce.add_argument("--out", default=None)

    p_pd = sub.add_parser("plotdata", help="emit plot-ready CSV bundles from a run directory")
    p_pd.add_argument("--run", required=True)
    p_pd.add_argument("--out", default=None)

    p_vc = sub.add_parser("validate-config", help="schema-check a config and exit")
    p_vc.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        # numpy's SeedSequence takes only nonnegative seeds.
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "validate-config":
            load_config(args.config)
            print(json.dumps({"valid": True, "config": args.config}, sort_keys=True))
            return EXIT_PASS
        if args.command == "plotdata":
            return cmd_plotdata(args.run, args.out)
        if args.command == "counterexample":
            out = args.out or os.environ.get(ENV_OUT_DIR) or "runs/counterexample"
            return cmd_counterexample(args.omega, args.n, args.dim, args.seed, out)
        cfg = load_config(args.config)
        out = args.out or os.environ.get(ENV_OUT_DIR) or cfg.get("out_dir")
        if not out:
            raise ConfigurationError("no output directory (config.out_dir, --out, or env)")
        if args.command == "run":
            return cmd_run(cfg, out, args.seed)
        return cmd_covariance(cfg, out, args.seed)
    except ConfigurationError as exc:
        print(_error_payload(exc), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except RegularityError as exc:
        print(_error_payload(exc), file=sys.stderr)
        return EXIT_REGULARITY_INVALID
    except NumericalFailureError as exc:
        print(_error_payload(exc), file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except BohmvelError as exc:
        print(_error_payload(exc), file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
