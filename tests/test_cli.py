import copy
import dataclasses
import inspect
import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from bohmvel import cli
from bohmvel.cli import (
    EXIT_COMPARISON_FAIL,
    EXIT_CONFIG_ERROR,
    EXIT_PASS,
    _pipeline_params,
    config_schema,
    main,
    validate_config,
)
from bohmvel.core import EmpiricalMeasure
from bohmvel.errors import ConfigurationError
from bohmvel.guidance import integrate_ensemble
from bohmvel.pipeline import PipelineParams
from bohmvel.relativity import foliation_sweep, verify_boost_covariance
from bohmvel.stats import ks_two_sample_1d, wasserstein1_1d
from bohmvel.wavefunction import (
    GaussianBarrier,
    GridSpec,
    outgoing_asymptote,
    superposed_gaussians,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def shipped_config(name):
    return json.loads((CONFIG_DIR / name).read_text())


def mutated(base, path, value):
    """A copy of ``base`` with the value at ``path`` (keys and list
    indices) replaced; missing objects on the way are created."""
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return cfg


# Mutations of configs/free_gaussian.json that the schema rejects.
DRIFT_CASES = {
    "dt_zero": (("time", "dt"), 0.0),
    "dt_negative": (("time", "dt"), -0.05),
    "rho_floor_zero": (("ensemble", "rho_floor"), 0.0),
    "eta_tol_zero": (("time", "eta_tol"), 0.0),
    "ks_threshold_negative": (("thresholds", "ks"), -0.02),
    "sigma0_string": (("packets", 0, "sigma0"), "1"),
    "t_max_string": (("time", "t_max"), "40"),
    "seed_negative": (("seed",), -1),
    "n_points_8": (("grid", "n_points"), 8),
    "two_checkpoints": (("time", "checkpoints"), [20.0, 40.0]),
    "n_trajectories_fractional": (("ensemble", "n_trajectories"), 1.5),
    "out_dir_integer": (("out_dir",), 7),
}

# Mutations of configs/free_gaussian.json that the schema accepts but the
# grid rules reject, with the config path the error must name.
GRID_CASES = {
    "n_points_48": (("grid", "n_points"), 48, r"config\.grid\.n_points must be a power of two"),
    "center_outside_grid": (("grid", "x_min"), 10.0, r"config\.packets\[0\]: packet center 0 outside"),
    "tail_clipped": (("grid", "x_max"), 8.0, r"config\.packets\[0\]: packet tail"),
    "empty_grid": (("grid", "x_max"), -256.0, r"config\.grid\.x_max must exceed x_min"),
}

# Type and range edges, both ways, for the cross-check against jsonschema.
EDGE_CASES = {
    "mass_bool": ("free_gaussian.json", ("mass",), True, False),
    "seed_bool": ("free_gaussian.json", ("seed",), False, False),
    "n_trajectories_integral_float": ("free_gaussian.json", ("ensemble", "n_trajectories"), 1000.0, True),
    "mass_integer": ("free_gaussian.json", ("mass",), 2, True),
    # Neither an interaction-radius setting nor a long-range potential is
    # a config option.
    "interaction_radius_null": ("barrier_scattering.json", ("moller", "interaction_radius"), None, False),
    "interaction_radius_string": ("barrier_scattering.json", ("moller", "interaction_radius"), "8", False),
    "potential_soft_coulomb": ("barrier_scattering.json", ("potential", "kind"), "soft_coulomb", False),
    # The near-node action is no longer a key: even a once-valid value fails.
    "node_action_unknown": ("free_gaussian.json", ("ensemble", "node_action"), "abort", False),
    "boost_luminal": ("dirac_covariance.json", ("boosts", 1), 1.0, False),
    "boost_negative_luminal": ("dirac_covariance.json", ("boosts", 1), -1.0, False),
    "record_time_zero": ("free_gaussian.json", ("time", "record_times", 0), 0.0, True),
    "record_time_negative": ("free_gaussian.json", ("time", "record_times", 0), -1.0, False),
    "packets_empty": ("free_gaussian.json", ("packets",), [], False),
}


def drift_config(case):
    return mutated(shipped_config("free_gaussian.json"), *DRIFT_CASES[case])


def grid_config(case):
    path, value, _ = GRID_CASES[case]
    return mutated(shipped_config("free_gaussian.json"), path, value)


def edge_config(case):
    name, path, value, _ = EDGE_CASES[case]
    return mutated(shipped_config(name), path, value)


def is_valid(cfg):
    try:
        validate_config(cfg)
    except ConfigurationError:
        return False
    return True


def small_free_config(out_dir, n=600, seed=11):
    return {
        "system": "free_schrodinger",
        "mass": 1.0,
        "grid": {"n_points": 2048, "x_min": -192.0, "x_max": 192.0},
        "packets": [{"x0": 0.0, "p0": 0.0, "sigma0": 1.0}],
        "ensemble": {"n_trajectories": n},
        "time": {
            "t_max": 40.0,
            "dt": 0.05,
            "checkpoints": [10.0, 20.0, 40.0],
            "record_times": [0.0, 10.0, 20.0, 40.0],
        },
        "seed": seed,
        "out_dir": str(out_dir),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestValidation:
    def test_unknown_key_rejected(self):
        cfg = small_free_config("x")
        cfg["tyop"] = 1
        with pytest.raises(ConfigurationError, match="unknown key"):
            validate_config(cfg)

    def test_nested_unknown_key_rejected(self):
        cfg = small_free_config("x")
        cfg["time"]["dtt"] = 0.1
        with pytest.raises(ConfigurationError, match="unknown key config.time"):
            validate_config(cfg)

    def test_boost_speed_rejected_before_compute(self):
        cfg = small_free_config("x")
        cfg["system"] = "free_dirac"
        cfg["packets"][0]["p0"] = 0.75
        cfg["boosts"] = [0.2, 1.0]
        with pytest.raises(ConfigurationError, match=r"config\.boosts\[1\] must be < 1"):
            validate_config(cfg)

    def test_potential_only_for_potential_system(self):
        cfg = small_free_config("x")
        cfg["potential"] = {"kind": "gaussian_barrier", "height": 1.0, "width": 1.0}
        with pytest.raises(ConfigurationError):
            validate_config(cfg)

    def test_validate_config_command(self, tmp_path):
        path = write_config(tmp_path, small_free_config(tmp_path / "out"))
        assert main(["validate-config", "--config", path]) == EXIT_PASS
        bad = write_config(tmp_path, {"system": "nope"}, "bad.json")
        assert main(["validate-config", "--config", bad]) == EXIT_CONFIG_ERROR

    def test_missing_config_file(self):
        assert main(["validate-config", "--config", "/nonexistent.json"]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_schema_range_and_type_rejected(self, case):
        with pytest.raises(ConfigurationError, match=r"^config\."):
            validate_config(drift_config(case))

    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_drift_case_exits_4_with_json_error(self, case, tmp_path, capsys):
        cfg = drift_config(case)
        if case != "out_dir_integer":
            cfg["out_dir"] = str(tmp_path / "run")
        path = write_config(tmp_path, cfg)
        code = main(["run", "--config", path])
        assert code == EXIT_CONFIG_ERROR
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "ConfigurationError"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_grid_case_exits_4_naming_the_path(self, case, command, tmp_path, capsys):
        cfg = grid_config(case)
        cfg["out_dir"] = str(tmp_path / "run")
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert '"valid"' not in captured.out
        err = json.loads(captured.err.strip())["error"]
        assert err["type"] == "ConfigurationError"
        assert re.match(GRID_CASES[case][2], err["message"])
        assert not (tmp_path / "run").exists()

    def test_error_names_the_path(self):
        with pytest.raises(ConfigurationError, match=r"config\.packets\[0\]\.sigma0 must be of type number"):
            validate_config(drift_config("sigma0_string"))

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_validate(self, path):
        cfg = json.loads(path.read_text())
        assert validate_config(cfg) is cfg

    def test_validation_leaves_config_untouched(self):
        cfg = shipped_config("free_gaussian.json")
        before = json.dumps(cfg, sort_keys=True)
        validate_config(cfg)
        assert json.dumps(cfg, sort_keys=True) == before

    def test_incomplete_potential_is_config_error(self):
        cfg = shipped_config("barrier_scattering.json")
        del cfg["potential"]["height"]
        with pytest.raises(ConfigurationError, match="config.potential"):
            validate_config(cfg)

    def test_moller_only_for_potential_system(self):
        cfg = small_free_config("x")
        cfg["moller"] = {"dt": 0.01}
        with pytest.raises(ConfigurationError, match="config.moller"):
            validate_config(cfg)

    def test_boosts_only_for_dirac(self):
        cfg = small_free_config("x")
        cfg["boosts"] = [0.2]
        with pytest.raises(ConfigurationError, match="config.boosts"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "boosts", [[0.0, 0.2, 0.2], [0.0, 0.1234567, 0.1234568]], ids=["repeated", "same_label"]
    )
    def test_boosts_sharing_a_label_exit_4(self, boosts, tmp_path, capsys):
        # Each foliation writes s_plus_foliation_<label>.csv; a shared label
        # would overwrite one measure with another.
        cfg = shipped_config("dirac_covariance.json")
        cfg["boosts"] = boosts
        path = write_config(tmp_path, cfg)
        assert main(["validate-config", "--config", path]) == EXIT_CONFIG_ERROR
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ConfigurationError"
        assert err["message"].startswith("config.boosts")

    def test_omitted_keys_take_the_schema_defaults(self):
        cfg = small_free_config("x")
        del cfg["time"]["dt"]
        params = _pipeline_params(cfg, 0)
        props = config_schema()["properties"]
        ens = props["ensemble"]["properties"]
        assert params.dt == props["time"]["properties"]["dt"]["default"]
        assert params.eta_tol == props["time"]["properties"]["eta_tol"]["default"]
        assert params.rho_floor == ens["rho_floor"]["default"]
        assert props["boosts"]["default"] == [0.0, 0.2, 0.4]

    def test_library_defaults_equal_the_schema_defaults(self):
        """Every library default that restates a schema default equals it,
        so ``PipelineParams()`` and a CLI run of the same config agree."""
        props = config_schema()["properties"]
        ens, time_ = props["ensemble"]["properties"], props["time"]["properties"]
        moller = props["moller"]["properties"]
        center = props["potential"]["properties"]["center"]
        ks = props["thresholds"]["properties"]["covariance_ks"]

        def field_defaults(cls):
            return {f.name: f.default for f in dataclasses.fields(cls)}

        def arg_defaults(fn):
            return {k: p.default for k, p in inspect.signature(fn).parameters.items()}

        params = field_defaults(PipelineParams)
        pairs = {
            "PipelineParams.n_trajectories": (params["n_trajectories"], ens["n_trajectories"]),
            "PipelineParams.dt": (params["dt"], time_["dt"]),
            "PipelineParams.eta_tol": (params["eta_tol"], time_["eta_tol"]),
            "PipelineParams.rho_floor": (params["rho_floor"], ens["rho_floor"]),
            "integrate_ensemble.rho_floor": (arg_defaults(integrate_ensemble)["rho_floor"], ens["rho_floor"]),
            "integrate_ensemble.dt": (arg_defaults(integrate_ensemble)["dt"], time_["dt"]),
            "GaussianBarrier.center": (field_defaults(GaussianBarrier)["center"], center),
            "verify_boost_covariance.ks_threshold": (
                arg_defaults(verify_boost_covariance)["ks_threshold"], ks
            ),
            "foliation_sweep.ks_threshold": (arg_defaults(foliation_sweep)["ks_threshold"], ks),
        }
        for name in ("dt", "residual_tol"):
            pairs[f"outgoing_asymptote.{name}"] = (
                arg_defaults(outgoing_asymptote)[name], moller[name]
            )
        differing = {
            name: (lib, schema["default"])
            for name, (lib, schema) in pairs.items()
            if lib != schema["default"]
        }
        assert differing == {}

        # superposed_gaussians reads its amplitude default inline: a packet
        # that states the schema default must build the same state.
        spec = GridSpec(256, -40.0, 40.0)
        packets = [{"x0": -3.0, "p0": 1.0, "sigma0": 1.0}, {"x0": 3.0, "p0": -1.0, "sigma0": 1.5}]
        amplitude = props["packets"]["items"]["properties"]["amplitude"]["default"]
        stated = [{**packets[0], "amplitude": amplitude}, packets[1]]
        np.testing.assert_array_equal(
            superposed_gaussians(spec, 1.0, stated).amplitudes,
            superposed_gaussians(spec, 1.0, packets).amplitudes,
        )

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_type_and_range_edges(self, case):
        assert is_valid(edge_config(case)) is EDGE_CASES[case][3]

    def test_schema_uses_only_supported_keywords(self):
        supported = {
            "type", "enum", "required", "properties", "additionalProperties",
            "items", "minItems", "minimum", "exclusiveMinimum", "exclusiveMaximum",
            "title", "description", "default", "$schema",
        }

        def walk(node):
            assert set(node) <= supported, set(node) - supported
            assert isinstance(node.get("type", ""), str), "one type per node"
            assert node.get("additionalProperties", False) is False
            for sub in node.get("properties", {}).values():
                walk(sub)
            if "items" in node:
                walk(node["items"])

        walk(config_schema())


class TestGuidedStepStability:
    """A guided RK4 step of size h advances the state by h/2 twice; a step
    that breaks the split-step stability bound is a config error before
    any work, in validate-config as in run, naming config.time.dt."""

    KINETIC = "config.time.dt: dt * p_max^2/(2m) exceeds the stability bound 2 pi"

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_barrier_at_half_unit_step_exits_4(self, command, tmp_path, capsys):
        cfg = shipped_config("barrier_scattering.json")
        cfg["time"]["dt"] = 0.5
        cfg["out_dir"] = str(tmp_path / "run")
        path = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert main([command, "--config", path]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ConfigurationError", "message": self.KINETIC}
        assert not (tmp_path / "run").exists()

    def test_unstable_step_on_a_well_exits_4_before_the_quantum_side(
        self, tmp_path, monkeypatch, capsys
    ):
        # The packet on a Gaussian well has a bound part, so the quantum side
        # would fail too (exit 5); the unstable guided step is found first.
        def no_asymptote(*args, **kwargs):
            pytest.fail("the outgoing asymptote ran before the config was rejected")

        monkeypatch.setattr(cli, "outgoing_asymptote", no_asymptote)
        cfg = {
            "system": "potential_schrodinger",
            "mass": 1.0,
            "grid": {"n_points": 4096, "x_min": -256.0, "x_max": 256.0},
            "packets": [{"x0": 30.0, "p0": 0.0, "sigma0": 1.0}],
            "potential": {"kind": "gaussian_barrier", "height": -1.0, "width": 1.0, "center": 30.0},
            "ensemble": {"n_trajectories": 10000},
            "time": {"t_max": 40.0, "dt": 0.05, "checkpoints": [10.0, 20.0, 40.0]},
            "moller": {"extraction_times": [20.0, 40.0], "dt": 0.01},
            "seed": 1,
            "out_dir": str(tmp_path / "well"),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_CONFIG_ERROR
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ConfigurationError", "message": self.KINETIC}
        assert not (tmp_path / "well").exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_barrier_at_half_unit_moller_step_exits_4(self, command, tmp_path, capsys):
        # The outgoing-asymptote legs are stepped at about moller.dt; a step
        # past the potential bound is a config error before any work.
        cfg = shipped_config("barrier_scattering.json")
        cfg["moller"]["dt"] = 0.5
        cfg["out_dir"] = str(tmp_path / "run")
        path = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert main([command, "--config", path]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {
            "type": "ConfigurationError",
            "message": "config.moller.dt: dt * max|V| exceeds the stability bound 0.5",
        }
        assert not (tmp_path / "run").exists()

    def test_free_system_has_no_step_bound(self):
        # Free split steps are exact per mode, so no step is rejected.
        cfg = shipped_config("free_gaussian.json")
        cfg["time"]["dt"] = 0.5
        assert validate_config(cfg) is cfg


class TestCheckpointLadder:
    """A bad checkpoint ladder is a config error before any integration."""

    @pytest.mark.parametrize(
        "checkpoints, t_max, match",
        [([10.0, 20.0, 30.0], 40.0, "factor >= 4"), ([20.0, 40.0, 80.0], 40.0, "beyond t_max")],
        ids=["factor_3", "beyond_t_max"],
    )
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_exits_4_fast(self, command, checkpoints, t_max, match, tmp_path, capsys):
        cfg = shipped_config("free_gaussian.json")
        cfg["time"]["checkpoints"] = checkpoints
        cfg["time"]["t_max"] = t_max
        cfg["out_dir"] = str(tmp_path / "run")
        path = write_config(tmp_path, cfg)
        start = time.perf_counter()
        code = main([command, "--config", path])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "ConfigurationError"
        assert err["message"].startswith("config.time.checkpoints: ")
        assert match in err["message"]
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize(
    "record_times, match",
    [
        ([2.5, 5.0, 10.0, 20.0], "the first record time must be 0"),
        ([0.0, 2.5, 2.5, 5.0, 10.0, 20.0], "record times must be strictly increasing"),
        ([0.0, 2.5, 5.0, 10.0, 20.0, 60.0], "last time 60 lies beyond t_max 20"),
    ],
    ids=["no_zero", "repeated", "beyond_t_max"],
)
def test_bad_record_times_exit_4_fast(command, record_times, match, tmp_path, capsys):
    cfg = shipped_config("free_gaussian.json")
    cfg["time"]["record_times"] = record_times
    cfg["out_dir"] = str(tmp_path / "run")
    path = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert main([command, "--config", path]) == EXIT_CONFIG_ERROR
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err == {"type": "ConfigurationError", "message": f"config.time.record_times: {match}"}
    assert not (tmp_path / "run").exists()


class TestSchemaAgreement:
    """The in-repo validator and the jsonschema reference agree."""

    @pytest.fixture(scope="class")
    def reference(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = config_schema()
        jsonschema.Draft7Validator.check_schema(schema)
        return jsonschema.Draft7Validator(schema)

    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_drift_cases(self, reference, case):
        cfg = drift_config(case)
        assert not reference.is_valid(cfg)
        assert not is_valid(cfg)

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_grid_cases_are_beyond_the_schema(self, reference, case):
        cfg = grid_config(case)
        assert reference.is_valid(cfg)
        assert not is_valid(cfg)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, reference, case):
        cfg = edge_config(case)
        assert is_valid(cfg) == reference.is_valid(cfg)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs(self, reference, path):
        cfg = json.loads(path.read_text())
        assert reference.is_valid(cfg)
        assert is_valid(cfg)


class TestRunCommand:
    def test_free_run_passes_and_persists(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_free_config(out))
        code = main(["run", "--config", path])
        assert code == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["pass"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["reports"]["comparison"]["pass"] is True
        assert manifest["reports"]["regularity"]["verdict"] is True
        assert manifest["reports"]["order_violations"] == 0
        for fname in ("s_plus.csv", "q_plus_density.csv", "trajectories.ndjson", "config.json"):
            assert (out / fname).exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_free_config(tmp_path / "a")
        path = write_config(tmp_path, cfg)
        main(["run", "--config", path, "--out", str(tmp_path / "a")])
        main(["run", "--config", path, "--out", str(tmp_path / "b")])
        for fname in ("s_plus.csv", "q_plus_samples.csv", "manifest.json", "trajectories.ndjson"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_written_samples_reproduce_the_verdict(self, tmp_path):
        # The quantum sample in q_plus_samples.csv is the one the verdict
        # compared: KS and W1 recomputed from the two CSVs are the manifest's.
        out = tmp_path / "run"
        path = write_config(tmp_path, small_free_config(out))
        assert main(["run", "--config", path]) == EXIT_PASS
        s = EmpiricalMeasure.from_csv(out / "s_plus.csv")
        q = EmpiricalMeasure.from_csv(out / "q_plus_samples.csv")
        comparison = json.loads((out / "manifest.json").read_text())["reports"]["comparison"]
        assert q.n_samples == comparison["n_q"]
        assert ks_two_sample_1d(s.samples[:, 0], s.weights, q.samples[:, 0], q.weights) == comparison["ks"]
        assert wasserstein1_1d(s, q) == comparison["w1"]

    def test_impossible_threshold_fails_with_exit_2(self, tmp_path):
        cfg = small_free_config(tmp_path / "c")
        cfg["thresholds"] = {"ks": 1e-6}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_COMPARISON_FAIL

    def test_env_out_dir_override(self, tmp_path, monkeypatch):
        cfg = small_free_config(tmp_path / "ignored")
        cfg.pop("out_dir")
        path = write_config(tmp_path, cfg)
        monkeypatch.setenv("BOHMVEL_OUT_DIR", str(tmp_path / "env_out"))
        assert main(["run", "--config", path]) == EXIT_PASS
        assert (tmp_path / "env_out" / "manifest.json").exists()


class TestCounterexampleCommand:
    def test_rotating_dichotomy(self, tmp_path, capsys):
        out = tmp_path / "ce"
        code = main([
            "counterexample", "--omega", "1.0", "--n", "2000", "--dim", "2",
            "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_PASS
        report = json.loads((out / "counterexample_report.json").read_text())
        assert report["fraction_converged"] == 0.0
        assert report["stationary"] is True

    def test_failed_verdict_exits_2(self, tmp_path, capsys):
        # In 3D the rotating family's instantaneous measure is not
        # stationary, so the printed verdict fails.
        out = tmp_path / "ce3"
        code = main([
            "counterexample", "--dim", "3", "--n", "10000", "--seed", "0", "--out", str(out),
        ])
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["pass"] is False
        assert code == EXIT_COMPARISON_FAIL

    def test_degenerate_control(self, tmp_path):
        out = tmp_path / "ce0"
        code = main([
            "counterexample", "--omega", "0.0", "--n", "500", "--dim", "2",
            "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_PASS
        report = json.loads((out / "counterexample_report.json").read_text())
        assert report["fraction_converged"] == 1.0

    def test_single_sample_runs(self, tmp_path):
        out = tmp_path / "ce1"
        assert main([
            "counterexample", "--omega", "1.0", "--n", "1", "--dim", "2",
            "--seed", "5", "--out", str(out),
        ]) == EXIT_PASS
        report = json.loads((out / "counterexample_report.json").read_text())
        assert "note" in report


class TestRejectedArguments:
    """A bad --seed or --omega is a named config error before any work."""

    @pytest.mark.parametrize("argv", [
        ["run", "--config", str(CONFIG_DIR / "free_gaussian.json")],
        ["covariance", "--config", str(CONFIG_DIR / "dirac_covariance.json")],
        ["counterexample"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_4(self, argv, tmp_path, capsys):
        start = time.perf_counter()
        code = main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "ConfigurationError", "message": "--seed must be >= 0, got -1"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("omega", ["nan", "inf", "-inf"])
    def test_non_finite_omega_exits_4(self, omega, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["counterexample", f"--omega={omega}", "--n", "100000", "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err == {"type": "InvalidInputError", "message": f"omega must be finite, got {float(omega)}"}
        assert not (tmp_path / "out").exists()


class TestPlotdataCommand:
    def test_full_bundle(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_free_config(out, n=200))
        main(["run", "--config", path])
        capsys.readouterr()
        assert main(["plotdata", "--run", str(out)]) == EXIT_PASS
        plot = out / "plotdata"
        assert (plot / "s_plus_cdf.csv").exists()
        assert (plot / "s_plus_hist.csv").exists()
        assert (plot / "q_plus_density.csv").exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "skipped_missing" not in summary

    def test_partial_bundle_warns(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_free_config(out, n=200))
        main(["run", "--config", path])
        os.remove(out / "q_plus_density.csv")
        capsys.readouterr()
        assert main(["plotdata", "--run", str(out)]) == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["skipped_missing"] == ["q_plus_density.csv"]

    def test_empty_dir_is_config_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["plotdata", "--run", str(empty)]) == EXIT_CONFIG_ERROR


class TestFailureExitCodes:
    def test_numerical_failure_exit_5(self, tmp_path):
        # A grid too small for the spreading packet: the leak monitor
        # aborts the evolution mid-run.
        cfg = small_free_config(tmp_path / "leak", n=50)
        cfg["grid"] = {"n_points": 1024, "x_min": -32.0, "x_max": 32.0}
        path = write_config(tmp_path, cfg)
        from bohmvel.cli import EXIT_NUMERICAL_FAILURE

        assert main(["run", "--config", path]) == EXIT_NUMERICAL_FAILURE

    def test_density_floor_exits_3_naming_the_reasons(self, tmp_path, capsys):
        # A density floor that a quarter of the starts sit below, and that
        # the spreading packet's peak falls below near t = 3.4: every
        # trajectory fails, and the run exits 3 naming the count for each
        # reason.
        cfg = small_free_config(tmp_path / "floor", n=200)
        cfg["ensemble"]["rho_floor"] = 0.2
        path = write_config(tmp_path, cfg)
        from bohmvel.cli import EXIT_REGULARITY_INVALID

        start = time.perf_counter()
        assert main(["run", "--config", path]) == EXIT_REGULARITY_INVALID
        assert time.perf_counter() - start < 5.0
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "RegularityError"
        reasons = re.search(r"by reason: box (\d+), density floor (\d+), speed bound (\d+)$", error["message"])
        box, floor, speed = map(int, reasons.groups())
        assert (box, floor, speed) == (0, 200, 0)
        assert not (tmp_path / "floor").exists()

    def test_bound_part_exits_5_before_any_integration(self, tmp_path, monkeypatch, capsys):
        # A packet resting on an attractive well has a bound part and so no
        # outgoing asymptote: the run ends on the quantum side, before the
        # guided pipeline would integrate a single trajectory.
        def no_pipeline(*args):
            pytest.fail("the guided pipeline ran before the quantum side failed")

        monkeypatch.setattr(cli, "run_guided_pipeline", no_pipeline)
        cfg = {
            "system": "potential_schrodinger",
            "mass": 1.0,
            "grid": {"n_points": 2048, "x_min": -256.0, "x_max": 256.0},
            "packets": [{"x0": 30.0, "p0": 0.0, "sigma0": 1.0}],
            "potential": {"kind": "gaussian_barrier", "height": -1.0, "width": 1.0, "center": 30.0},
            "ensemble": {"n_trajectories": 200},
            "time": {"t_max": 40.0, "dt": 0.05, "checkpoints": [10.0, 20.0, 40.0]},
            "moller": {"extraction_times": [20.0, 40.0], "dt": 0.01},
            "seed": 1,
            "out_dir": str(tmp_path / "bound"),
        }
        path = write_config(tmp_path, cfg)
        from bohmvel.cli import EXIT_NUMERICAL_FAILURE

        assert main(["run", "--config", path]) == EXIT_NUMERICAL_FAILURE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "NonConvergedError"
        assert "bound part cannot converge" in error["message"]
        assert not (tmp_path / "bound").exists()

    def test_regularity_invalid_exit_3_and_report(self, tmp_path):
        # Aborting every trajectory invalidates the run: exit 3 and a
        # covariance report carrying the "invalid" verdict.
        cfg = {
            "system": "free_dirac",
            "mass": 1.0,
            "grid": {"n_points": 512, "x_min": -64.0, "x_max": 64.0},
            "packets": [{"x0": 0.0, "p0": 0.75, "sigma0": 1.0}],
            "ensemble": {"n_trajectories": 40, "rho_floor": 10.0},
            "time": {"t_max": 20.0, "dt": 0.5, "checkpoints": [5.0, 10.0, 20.0]},
            "boosts": [0.0, 0.2],
            "seed": 1,
            "out_dir": str(tmp_path / "cov_invalid"),
        }
        path = write_config(tmp_path, cfg)
        from bohmvel.cli import EXIT_REGULARITY_INVALID

        assert main(["covariance", "--config", path]) == EXIT_REGULARITY_INVALID
        report = json.loads((tmp_path / "cov_invalid" / "covariance_report.json").read_text())
        assert report["verdict"] == "invalid"


class TestDiracRunCommand:
    def test_small_dirac_run(self, tmp_path):
        cfg = {
            "system": "free_dirac",
            "mass": 1.0,
            "grid": {"n_points": 512, "x_min": -64.0, "x_max": 64.0},
            "packets": [{"x0": 0.0, "p0": 0.75, "sigma0": 1.0}],
            "ensemble": {"n_trajectories": 400},
            "time": {"t_max": 40.0, "dt": 0.05, "checkpoints": [10.0, 20.0, 40.0]},
            "seed": 2,
            "out_dir": str(tmp_path / "dirac_run"),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_PASS
        manifest = json.loads((tmp_path / "dirac_run" / "manifest.json").read_text())
        assert manifest["reports"]["projection"]["discarded_weight"] < 0.2
        assert manifest["reports"]["comparison"]["pass"] is True
