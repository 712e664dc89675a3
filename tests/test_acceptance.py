"""End-to-end acceptance suite.

Each test runs one headline experiment at full scale (n = 10^4 where an
ensemble is involved) against its frozen tolerance and prints a one-line
verdict; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import dataclasses
import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from bohmvel import relativity
from bohmvel.asymptotics import (
    _eta_block,
    _fit_eta,
    dirac_velocity_distribution,
    estimate_asymptotic_measure,
    free_velocity_distribution,
    rotating_trajectory_family,
    scattering_velocity_distribution,
    velocity_measure_at,
    verify_distribution_equality,
)
from bohmvel.errors import RegularityError
from bohmvel.guidance import FieldSnapshot, check_equivariance, count_order_violations
from bohmvel.pipeline import run_guided_pipeline
from bohmvel.relativity import (
    boost_dirac_state,
    foliation_sweep,
    transform_velocity_block,
    verify_boost_covariance,
)
from bohmvel.stats import ks_critical_value, ks_distance, ks_two_sample_1d, ks_vs_cdf_1d
from bohmvel.wavefunction import (
    GridSpec,
    GaussianBarrier,
    SplitStepPropagator,
    gaussian_packet,
)

from conftest import ACCEPTANCE_SEED, acceptance_line
from oracles import (
    CENTRAL_BAND,
    boost_residual,
    boost_velocity_1d,
    boost_worldline,
    free_gaussian_trajectory,
    is_worldline,
    position_at,
    random_worldline_polyline,
    transfer_matrix_transmission,
    transport_oracle,
    transport_oracle_band,
    transport_oracle_errors,
    velocity_oracle,
)

REPO = Path(__file__).resolve().parent.parent

# Largest |x(t) - oracle| over the central band of starts; the benchmark's
# bound on the free Gaussian's closed-form error within 3 sigma0.
POSITION_TOL = 2.5e-3
# Largest |v+ - x0/2| of the shipped free-Gaussian run over starts within
# 3 sigma0; the affine position fit on (10, 20, 40) reads 9.2e-3 and fails
# it, the shipped fit of positions and velocities on (2.5, 5, 10) 1.3e-3.
V_PLUS_TOL = 8e-3
# Median and largest |v+ - velocity oracle| of a Dirac run over the central
# band, gated on the base run and the sweep's u = 0.4 run. The shipped fit
# of positions and velocities on (7.5, 10, 15, 20, 30) reads 3.1e-4 and
# 7.0e-3 (base) and 2.1e-4 and 5.6e-3 (u = 0.4) at the shipped seed; the
# largest errors sit in the fast tail, where u(t) converges slowest.
# scripts/horizon_study.py chooses the shortest ladder within 0.7 of both
# bounds on every pipeline and seed. The fit on (10, 20, 40) at t_max 40
# read 2.3e-4 and 9.9e-3 (base); the position fit on (20, 40, 80) read
# 1.3e-3 and 1.9e-2 and fails both.
V_PLUS_ORACLE_MEDIAN_TOL = 5e-4
V_PLUS_ORACLE_MAX_TOL = 1.5e-2
# Largest |recorded velocity - field at x(t)| at the last recorded time,
# where the recorded k4 is evaluated O(h^3) away from x(t): it reads
# 7.1e-8 (free Gaussian, dt 0.16, t = 10) and 9.3e-10 (Dirac, dt 0.175,
# t = 30). Recording k4 at every t > 0 read 1.5e-5 at the free Gaussian's
# t = 2.5 at dt 0.16 and fails; recording k2, the field half a step
# earlier, read 6.5e-3 and 5.6e-4 (free Gaussian at dt 0.05, Dirac).
VELOCITY_RECORD_TOL = 1e-5


def pipeline_v_plus(run):
    """Extrapolated v+ of every live trajectory of a pipeline run, shape
    (n_live,), by the fit whose converged values are the run's s_plus."""
    integ = run.integration
    checkpoints = np.asarray(run.params.checkpoints, dtype=float)
    live = ~integ.diagnostics.failed
    eta, vel = _eta_block(integ.times, integ.positions[live], integ.velocities[live], checkpoints)
    assert vel is not None
    v_plus, residual = _fit_eta(eta, checkpoints, vel)
    assert np.array_equal(run.s_plus.samples, v_plus[residual <= run.params.eta_tol])
    return v_plus[:, 0]


def load_study(name):
    """scripts/<name>.py as a module: a study's rule and its constants."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_free_gaussian_velocity_distribution(free_gaussian_state, free_gaussian_run):
    """Ensemble limiting velocities match the quantum distribution
    N(0, 0.25) for the standard free packet: KS < 0.02 and W1 < 0.02."""
    run = free_gaussian_run
    q = free_velocity_distribution(free_gaussian_state)
    rep = verify_distribution_equality(
        run.s_plus, q, seed=ACCEPTANCE_SEED, ks_threshold=0.02, w1_threshold=0.02
    )
    # Second, fully analytic oracle: one-sample KS against N(0, 0.5^2).
    d_exact = ks_vs_cdf_1d(
        run.s_plus.samples[:, 0],
        run.s_plus.weights,
        lambda x: scipy.stats.norm.cdf(x, scale=0.5),
    )
    ok = rep["pass"] and d_exact < 0.02 and run.regularity.verdict
    acceptance_line(
        "result-a free gaussian",
        ok,
        f"ks={rep['ks']:.4f} w1={rep['w1']:.4f} ks_exact={d_exact:.4f} "
        f"fraction={run.regularity.fraction_converged:.4f}",
    )
    assert rep["ks"] < 0.02
    assert rep["w1"] < 0.02
    assert d_exact < 0.02
    assert run.regularity.verdict


def test_bimodal_superposition(bimodal_run):
    """Equal-weight +-1.5 momentum superposition: KS < 0.03 at n = 10^4."""
    run, psi = bimodal_run
    q = free_velocity_distribution(psi)
    rep = verify_distribution_equality(
        run.s_plus, q, seed=ACCEPTANCE_SEED + 1, ks_threshold=0.03
    )
    ok = rep["pass"] and run.regularity.verdict
    acceptance_line(
        "result-a bimodal superposition",
        ok,
        f"ks={rep['ks']:.4f} fraction={run.regularity.fraction_converged:.4f}",
    )
    assert rep["ks"] < 0.03
    assert run.regularity.verdict


def test_barrier_scattering(barrier_setup):
    """Gaussian barrier (V0=2, w=1, p0=1.5): converged outgoing asymptote
    (which rules out a bound part, whose residual stays near 0.93),
    ensemble agreement KS < 0.04 and transfer-matrix transmitted mass
    within 0.01."""
    psi, pot, run, out = barrier_setup
    assert out.cauchy_residual < 1e-3
    q = scattering_velocity_distribution(out, 1.0)
    rep = verify_distribution_equality(
        run.s_plus, q, seed=ACCEPTANCE_SEED + 2, ks_threshold=0.04
    )
    dp = float(out.p[1] - out.p[0])
    transmitted = float(np.sum(out.density[out.p > 0]) * dp)
    from bohmvel.wavefunction import momentum_density

    md = momentum_density(psi)
    p0_grid, rho0 = md.p, md.values
    sel = (p0_grid > 0) & (rho0 > 1e-12)
    barrier = lambda x: 2.0 * np.exp(-(x**2) / 2.0)
    predicted = float(np.sum(transfer_matrix_transmission(barrier, p0_grid[sel]) * rho0[sel]) * dp)
    tm_gap = abs(transmitted - predicted)
    ok = (
        rep["pass"]
        and out.cauchy_residual < 1e-3
        and tm_gap < 0.01
        and run.regularity.verdict
    )
    acceptance_line(
        "result-a barrier scattering",
        ok,
        f"ks={rep['ks']:.4f} cauchy={out.cauchy_residual:.2e} "
        f"T={transmitted:.4f} T_tm={predicted:.4f}",
    )
    assert rep["ks"] < 0.04
    assert tm_gap < 0.01
    assert run.regularity.verdict


def test_boost_covariance_and_foliation_independence(
    dirac_state, dirac_params, dirac_base_run, monkeypatch
):
    """Transported ensemble measures agree across boosts u in {0, 0.2, 0.3}
    (KS < 0.03), both sides cross-check against the analytic velocity
    pushforward, the {id, 0.2, 0.4} foliation sweep is flat, and no
    boosted ensemble has a 1D crossing."""
    psi = dirac_state
    base = dirac_base_run
    boosted_runs = []
    inner = relativity.run_guided_pipeline

    def recording(*args):
        boosted_runs.append(inner(*args))
        return boosted_runs[-1]

    monkeypatch.setattr(relativity, "run_guided_pipeline", recording)
    q_base = dirac_velocity_distribution(psi)

    checks = {}
    for k, u in enumerate((0.0, 0.2, 0.3)):
        rep = verify_boost_covariance(
            psi, u, dirac_params, base=base, run_key=k + 1, ks_threshold=0.03
        )
        boosted_state = boost_dirac_state(psi, u)
        q_boosted = dirac_velocity_distribution(boosted_state)
        side_b = verify_distribution_equality(
            rep["boosted_measure"], q_boosted, seed=ACCEPTANCE_SEED + 10 + k, ks_threshold=0.03
        )
        n = 100_000
        pushed = boost_velocity_1d(q_base.sample(n, 1000 + k)[:, 0], u)
        direct = q_boosted.sample(n, 2000 + k)[:, 0]
        w = np.full(n, 1.0 / n)
        q_push_ks = ks_two_sample_1d(pushed, w, direct, w)
        checks[u] = (rep["ks"], side_b["ks"], q_push_ks)
        assert rep["ks"] < 0.03, f"u={u}"
        assert side_b["ks"] < 0.03, f"u={u}"
        assert q_push_ks < 0.03, f"u={u}"

    side_base = verify_distribution_equality(
        base.s_plus, q_base, seed=ACCEPTANCE_SEED + 20, ks_threshold=0.03
    )
    assert side_base["ks"] < 0.03

    sweep = foliation_sweep(psi, [0.0, 0.2, 0.4], dirac_params, base, ks_threshold=0.03)
    # Three covariance checks and two swept foliations; the base run is
    # counted in the dynamics property suite.
    assert len(boosted_runs) == 5
    crossings = [count_order_violations(r.integration) for r in boosted_runs]
    ok = sweep["pass"] and all(v[0] < 0.03 for v in checks.values()) and not any(crossings)
    detail = " ".join(f"u={u}:ks={v[0]:.4f}" for u, v in checks.items())
    acceptance_line(
        "result-b covariance + foliation sweep",
        ok,
        f"{detail} sweep_max={np.max(sweep['ks_matrix']):.4f} crossings={crossings}",
    )
    assert sweep["pass"], sweep["ks_matrix"]
    assert crossings == [0] * 5


def paired_foliation_errors(psi, params, base, u):
    """|v+'_i - T_u(v+_i)| over the trajectories live in both runs whose
    start lies in the central band, and the count of those trajectories.

    ``base`` is the pipeline run of psi on ``params``; the boosted state
    runs on the same run key, so both runs draw their starts from the same
    uniforms, and by flux conservation the i-th starts lie on one world
    line. T_u is the velocity transform of the boost u."""
    boosted = run_guided_pipeline(boost_dirac_state(psi, u), None, params)
    v_plus = []
    for run in (base, boosted):
        failed = run.integration.diagnostics.failed
        v = np.full(failed.size, np.nan)
        v[~failed] = pipeline_v_plus(run)
        v_plus.append(v)
    lab, moved = v_plus
    starts = base.integration.positions[:, 0, 0]
    quantiles, _ = velocity_oracle(psi, dirac_velocity_distribution(psi), starts)
    inside = (quantiles >= CENTRAL_BAND[0]) & (quantiles <= CENTRAL_BAND[1])
    inside &= ~np.isnan(lab) & ~np.isnan(moved)
    err = np.abs(moved[inside] - transform_velocity_block(lab[inside, None], u)[:, 0])
    return err, int(inside.sum())


@pytest.mark.parametrize("u", [0.2, 0.4])
def test_boosted_run_retraces_the_lab_world_lines(dirac_state, dirac_params, dirac_base_run, u):
    """One-particle Bohm-Dirac world lines do not depend on the foliation
    (Duerr, Goldstein, Muench-Berndl & Zanghi, Phys. Rev. A 60, 2729
    (1999)): the boosted state, run on the lab run's key, retraces the
    lab world lines start by start, so each boosted v+ is the boost of
    its lab v+ to within the v+ oracle bounds. The sweep's KS against an
    independent draw cannot see this; the paired check can."""
    err, n = paired_foliation_errors(dirac_state, dirac_params, dirac_base_run, u)
    median, worst = float(np.median(err)), float(np.max(err))
    ok = median <= V_PLUS_ORACLE_MEDIAN_TOL and worst <= V_PLUS_ORACLE_MAX_TOL
    acceptance_line(
        f"dirac u={u} v+ vs boosted lab v+, paired", ok, f"median={median:.2e} max={worst:.2e} n={n}"
    )
    assert n > 0.99 * dirac_params.n_trajectories
    assert ok, (median, worst)


def test_transport_oracle_matches_closed_form(free_gaussian_run):
    """The monotone-transport oracle, from the free Gaussian's recorded
    snapshots, is within 1e-4 of the closed-form trajectory at the last
    recorded time for every start within 3 sigma0."""
    integ = free_gaussian_run.integration
    x0 = integ.positions[:, 0, 0]
    inside = np.abs(x0) < 3.0
    _, oracle = transport_oracle(integ.snapshots, x0)
    t_last = float(integ.times[-1])
    err = float(np.max(np.abs(oracle[inside, -1] - free_gaussian_trajectory(x0[inside], t_last))))
    acceptance_line(f"transport oracle vs closed form (t={t_last:g})", err <= 1e-4, f"err={err:.2e}")
    assert err <= 1e-4


def test_free_gaussian_limiting_velocities_match_closed_form(free_gaussian_run):
    """Every extrapolated limiting velocity of the shipped free-Gaussian run
    whose start lies within 3 sigma0 is within V_PLUS_TOL of the closed
    form x0 / (2 m sigma0^2) = x0 / 2, from the pipeline's fit of
    positions and recorded velocities on the 3-checkpoint ladder."""
    integ = free_gaussian_run.integration
    v_plus = pipeline_v_plus(free_gaussian_run)
    x0 = integ.positions[~integ.diagnostics.failed, 0, 0]
    inside = np.abs(x0) <= 3.0
    err = np.abs(v_plus[inside] - x0[inside] / 2.0)
    ok = float(np.max(err)) <= V_PLUS_TOL
    acceptance_line(
        f"free gaussian v+ vs closed form (checkpoints={list(free_gaussian_run.params.checkpoints)})",
        ok,
        f"median={np.median(err):.2e} max={np.max(err):.2e} bound={V_PLUS_TOL:.0e}",
    )
    assert ok, float(np.max(err))


def test_velocity_oracle_matches_closed_form(free_gaussian_state, free_gaussian_run):
    """The velocity oracle of the free Gaussian is within 5e-4 of the
    closed form x0 / 2 for every start within 3 sigma0 (measured 1.8e-4,
    set by the momentum grid of the quantum-side CDF)."""
    x0 = free_gaussian_run.integration.positions[:, 0, 0]
    inside = np.abs(x0) <= 3.0
    _, oracle = velocity_oracle(free_gaussian_state, free_velocity_distribution(free_gaussian_state), x0)
    err = float(np.max(np.abs(oracle[inside] - x0[inside] / 2.0)))
    acceptance_line("velocity oracle vs closed form", err <= 5e-4, f"err={err:.2e}")
    assert err <= 5e-4


def assert_v_plus_matches_velocity_oracle(name, run):
    """The run's extrapolated limiting velocities over the central quantile
    band match v+ = Q_q(F_0(x(0))) of its initial state in the median and
    in the maximum."""
    integ = run.integration
    v_plus = pipeline_v_plus(run)
    starts = integ.positions[~integ.diagnostics.failed, 0, 0]
    quantiles, oracle = velocity_oracle(run.psi0, dirac_velocity_distribution(run.psi0), starts)
    inside = (quantiles >= CENTRAL_BAND[0]) & (quantiles <= CENTRAL_BAND[1])
    err = np.abs(v_plus[inside] - oracle[inside])
    median, worst = float(np.median(err)), float(np.max(err))
    ok = median <= V_PLUS_ORACLE_MEDIAN_TOL and worst <= V_PLUS_ORACLE_MAX_TOL
    acceptance_line(
        f"{name} v+ vs velocity oracle (checkpoints={list(run.params.checkpoints)})",
        ok,
        f"median={median:.2e} max={worst:.2e} bounds={V_PLUS_ORACLE_MEDIAN_TOL:.0e}/"
        f"{V_PLUS_ORACLE_MAX_TOL:.1e} n={int(inside.sum())}",
    )
    assert ok, (median, worst)


def test_dirac_limiting_velocities_match_velocity_oracle(dirac_base_run):
    """The Dirac base run's limiting velocities match the velocity oracle."""
    assert_v_plus_matches_velocity_oracle("dirac", dirac_base_run)


def test_dirac_sweep_limiting_velocities_match_velocity_oracle(dirac_sweep_fast_run):
    """So do those of the foliation sweep's u = 0.4 pipeline: the most
    boosted state, whose v+ error reached the largest max of the five
    covariance pipelines on (10, 20, 40)."""
    assert_v_plus_matches_velocity_oracle("dirac sweep u=0.4", dirac_sweep_fast_run)


@pytest.mark.parametrize("fixture", ["free_gaussian_run", "dirac_base_run"])
def test_recorded_velocities_are_the_guiding_field(fixture, request):
    """Every live trajectory's recorded velocity is the guiding field at
    its recorded position: exactly at t = 0, to rounding at every other
    time but the last (the k1 of the step that starts there; the snapshot
    of a free Schrodinger run takes d_x psi from the kept spectrum, and
    reads 5.8e-14), and within VELOCITY_RECORD_TOL at the last (the k4 of
    the last step)."""
    run = request.getfixturevalue(fixture)
    integ = run.integration
    live = ~integ.diagnostics.failed
    worst = []
    for i, (t, psi) in enumerate(zip(integ.times, integ.snapshots)):
        field, _, ok = FieldSnapshot(psi).evaluate(integ.positions[live, i], run.params.rho_floor)
        assert ok.all()
        dev = float(np.max(np.abs(integ.velocities[live, i] - field)))
        if t == 0:
            assert dev == 0.0
        elif i < len(integ.times) - 1:
            assert dev <= 1e-12
        worst.append(dev)
    ok = max(worst) <= VELOCITY_RECORD_TOL
    detail = " ".join(f"t={t:g}:{d:.1e}" for t, d in zip(integ.times, worst))
    acceptance_line(f"{fixture} recorded velocities", ok, detail)
    assert ok, worst


def test_dirac_positions_match_transport_oracle(dirac_base_run):
    """Every Dirac trajectory starting in the central 99.73% quantile band
    is within 2.5e-3 of the transport oracle at every recorded time, at
    the shipped step."""
    errors = transport_oracle_errors(dirac_base_run.integration)
    detail = " ".join(f"t={t:g}:{e:.2e}" for t, e in zip(dirac_base_run.integration.times, errors))
    acceptance_line(
        f"dirac oracle positions (dt={dirac_base_run.params.dt:g})",
        bool(np.all(errors <= POSITION_TOL)),
        detail,
    )
    assert np.all(errors <= POSITION_TOL), errors


def assert_time_stepping_is_a_small_share(name, psi, params, run):
    """Halving the shipped step moves no trajectory of the central band by
    more than the study's SHARE of the half-step run's oracle error, at
    any recorded time: time stepping is a small part of the position
    error, so an RK4 that is wrong but stable cannot hide behind the
    spatial part."""
    half = run_guided_pipeline(psi, None, dataclasses.replace(params, dt=params.dt / 2.0))
    # Same seed and run key: the same starts.
    full_pos = run.integration.positions
    half_pos = half.integration.positions
    np.testing.assert_array_equal(full_pos[:, 0], half_pos[:, 0])
    inside, _ = transport_oracle_band(run.integration)
    inside &= ~half.integration.diagnostics.failed
    stepping = float(np.max(np.abs(full_pos[inside, :, 0] - half_pos[inside, :, 0])))
    oracle = float(np.max(transport_oracle_errors(half.integration)))
    share = load_study("dt_study").SHARE
    ok = stepping <= share * oracle
    acceptance_line(
        f"{name} time-stepping share (dt={params.dt:g})",
        ok,
        f"stepping={stepping:.2e} oracle={oracle:.2e} share={stepping / oracle:.2%} bound={share:.0%}",
    )
    assert ok, (stepping, oracle)


def test_dirac_time_stepping_error_is_a_small_share(dirac_state, dirac_params, dirac_base_run):
    assert_time_stepping_is_a_small_share("dirac", dirac_state, dirac_params, dirac_base_run)


def test_free_gaussian_time_stepping_error_is_a_small_share(free_gaussian_config, free_gaussian_run):
    _, psi, params = free_gaussian_config
    assert_time_stepping_is_a_small_share("free gaussian", psi, params, free_gaussian_run)


def assert_step_is_the_study_choice(name, study_name, bench, cfg, n_pipelines):
    """The config steps at the dt that the committed study file chooses
    when the study's rule is applied again to its records, and the study
    covers every seed and step it names at the config's ensemble size and
    time block."""
    dt_study = load_study("dt_study")
    study = dt_study.STUDIES[study_name]
    with open(REPO / bench) as fh:
        record = json.load(fh)
    runs = record["runs"]
    assert sorted((r["seed"], r["dt"]) for r in runs) == sorted(
        itertools.product(dt_study.SEEDS, study.dts)
    )
    assert all(len(r["pipelines"]) == n_pipelines for r in runs)
    assert record["n_trajectories"] == cfg["ensemble"]["n_trajectories"]
    assert record["time"] == dt_study.horizon(cfg)
    verdict = dt_study.apply_rule(runs, study)
    ok = cfg["time"]["dt"] == verdict["chosen_dt"]
    acceptance_line(
        f"{name} step = study choice", ok, f"config dt={cfg['time']['dt']:g} chosen={verdict['chosen_dt']}"
    )
    assert verdict == {"per_dt": record["per_dt"], "chosen_dt": record["chosen_dt"]}
    assert ok


def test_shipped_dirac_step_is_the_study_choice(dirac_config):
    """The Dirac config steps at the dt that BENCH_dt_study.json chooses."""
    assert_step_is_the_study_choice("dirac", "dirac", "BENCH_dt_study.json", dirac_config[0], 5)


def test_shipped_free_gaussian_step_is_the_study_choice(free_gaussian_config):
    """The free-Gaussian config steps at the dt that
    BENCH_dt_study_free_gaussian.json chooses."""
    assert_step_is_the_study_choice(
        "free gaussian", "free_gaussian", "BENCH_dt_study_free_gaussian.json", free_gaussian_config[0], 1
    )


def test_shipped_dirac_ladder_is_the_study_choice(dirac_config):
    """The Dirac config's time block (t_max, checkpoints, record times) is
    the one BENCH_horizon_study.json chooses when the study's rule is
    applied again to its records; the study covers every seed and ladder
    it names at the config's ensemble size, step and eta_tol, and its
    bounds are the tier-1 v+ oracle bounds."""
    horizon_study = load_study("horizon_study")
    with open(REPO / "BENCH_horizon_study.json") as fh:
        study = json.load(fh)
    cfg, _, params = dirac_config
    runs = study["runs"]
    want = itertools.product(horizon_study.SEEDS, map(list, horizon_study.LADDERS))
    assert sorted((r["seed"], r["checkpoints"]) for r in runs) == sorted(want)
    for r in runs:
        ran = {k: r[k] for k in ("t_max", "checkpoints", "record_times")}
        assert ran == horizon_study.time_block(r["checkpoints"])
    assert all(len(r["pipelines"]) == 5 for r in runs)
    assert study["n_trajectories"] == cfg["ensemble"]["n_trajectories"]
    assert (study["dt"], study["eta_tol"]) == (params.dt, params.eta_tol)
    assert horizon_study.V_PLUS_MEDIAN_BOUND == V_PLUS_ORACLE_MEDIAN_TOL
    assert horizon_study.V_PLUS_MAX_BOUND == V_PLUS_ORACLE_MAX_TOL
    verdict = horizon_study.apply_rule(runs)
    shipped = horizon_study.horizon(cfg)
    ok = shipped == verdict["chosen"]
    acceptance_line("dirac ladder = study choice", ok, f"config={shipped} chosen={verdict['chosen']}")
    assert verdict == {"per_ladder": study["per_ladder"], "chosen": study["chosen"]}
    assert ok


def test_rotating_counterexample():
    """Stationary instantaneous measure (KS below the 1% critical value
    between t=5 and t=10) with zero trajectory-level convergence at
    tol = 0.1, for the planar rotating family at n = 10^4."""
    n = 10_000
    family = rotating_trajectory_family(1.0, None, n, ACCEPTANCE_SEED, dim=2)
    s5 = velocity_measure_at(family, 5.0)
    s10 = velocity_measure_at(family, 10.0)
    ks = float(np.max(ks_distance(s5, s10)))
    critical = ks_critical_value(n, n, alpha=0.01)
    try:
        _, report = estimate_asymptotic_measure(family, np.array([10.0, 20.0, 40.0]), 0.1)
        fraction = report.fraction_converged
    except RegularityError as err:
        fraction = err.report.fraction_converged
    ok = ks < critical and fraction == 0.0
    acceptance_line(
        "rotating counterexample",
        ok,
        f"S_t ks={ks:.4f} critical={critical:.4f} fraction_converged={fraction}",
    )
    assert ks < critical
    assert fraction == 0.0


def test_kinematics_property_suite():
    """1000 random causal polylines with straight tails: boost round trips
    to 1e-6, world lines stay world lines, boosting commutes with the
    velocity limit at 1e-2, and composing two boosts matches the boost by
    their relativistic sum (u1 + u2) / (1 + u1 u2) to 1e-12. The world-line
    boost and check are the oracles of ``tests/oracles.py``; the velocity
    limit is the package's fit."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    n_traj = 1000
    round_trip_worst = 0.0
    preserved = 0
    functorial = 0
    checkpoints = np.array([40.0, 80.0, 160.0])
    for i in range(n_traj):
        times, pts = random_worldline_polyline(rng, dim=3)
        u = rng.uniform(-0.6, 0.6)
        boosted = boost_worldline(times, pts, u)
        preserved += int(is_worldline(*boosted))
        back_t, back = boost_worldline(*boosted, -u)
        inside = (times >= back_t[0]) & (times <= back_t[-1])
        err = float(np.max(np.abs(position_at(back_t, back, times[inside]) - pts[inside])))
        round_trip_worst = max(round_trip_worst, err)
        functorial += int(boost_residual(times, pts, u, checkpoints) <= 1e-2)

    comp_worst = 0.0
    for _ in range(1000):
        v = rng.uniform(-0.95, 0.95)
        u1, u2 = rng.uniform(-0.9, 0.9, 2)
        vp = np.array([[v]])
        seq = transform_velocity_block(transform_velocity_block(vp, u2), u1)[0, 0]
        comp = transform_velocity_block(vp, (u1 + u2) / (1.0 + u1 * u2))[0, 0]
        comp_worst = max(comp_worst, abs(seq - comp))

    ok = (
        round_trip_worst < 1e-6
        and preserved == n_traj
        and functorial == n_traj
        and comp_worst < 1e-12
    )
    acceptance_line(
        "kinematics property suite",
        ok,
        f"round_trip={round_trip_worst:.2e} preserved={preserved}/{n_traj} "
        f"functorial={functorial}/{n_traj} composition={comp_worst:.2e}",
    )
    assert round_trip_worst < 1e-6
    assert preserved == n_traj
    assert functorial == n_traj
    assert comp_worst < 1e-12


def test_dynamics_property_suite(free_gaussian_run, dirac_base_run):
    """Unitarity drift below 1e-9 over 10^4 steps, equivariance KS below
    0.02 at every recorded time (n = 10^4), zero 1D crossings, and Dirac
    limiting velocities and world lines inside the light cone."""
    spec = GridSpec(4096, -320.0, 320.0)
    psi = gaussian_packet(spec, 1.0, -12.0, 1.5, 2.0)
    prop = SplitStepPropagator(spec, 1.0, GaussianBarrier(2.0, 1.0, 0.0))
    amps = prop.step(np.asarray(psi.amplitudes), 0.005, 10_000)
    drift = abs(float(np.sqrt(np.sum(np.abs(amps) ** 2) * spec.dx)) - 1.0)

    run = free_gaussian_run
    eq_worst = 0.0
    for snap, t in zip(run.integration.snapshots, run.integration.times):
        if t > 0:
            eq_worst = max(eq_worst, check_equivariance(run.integration, snap, float(t)))

    crossings = count_order_violations(run.integration)
    crossings += count_order_violations(dirac_base_run.integration)

    # Every limiting velocity of the Dirac ensemble lies in the unit ball,
    # and every live trajectory is a world line at its recorded times.
    dirac_vmax = float(np.max(np.abs(dirac_base_run.s_plus.samples)))
    dirac = dirac_base_run.integration
    worldlines = is_worldline(dirac.times, dirac.positions[~dirac.diagnostics.failed])

    ok = (
        drift < 1e-9
        and eq_worst < 0.02
        and crossings == 0
        and dirac_vmax <= 1.0
        and worldlines
    )
    acceptance_line(
        "dynamics property suite",
        ok,
        f"drift={drift:.2e} equivariance={eq_worst:.4f} crossings={crossings} "
        f"vmax={dirac_vmax:.4f}",
    )
    assert drift < 1e-9
    assert eq_worst < 0.02
    assert crossings == 0
    assert dirac_vmax <= 1.0
    assert worldlines
