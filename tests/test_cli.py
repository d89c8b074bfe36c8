import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from tanlift import ScenarioError, load_scenario
from tanlift.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.out


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_scenario_parsing_shear():
    scenario = load_scenario(str(SCENARIOS / "r2_shear.json"))
    assert scenario.manifold.name == "R2"
    assert set(scenario.fields) == {"Y", "X1"}
    assert scenario.lifted is not None
    assert scenario.lifted.horizon == 1.0
    assert scenario.lifted.grid == 64


def test_scenario_rejects_unknown_schema(tmp_path):
    path = write_scenario(tmp_path, {"schema": "v999", "manifold": "R2"})
    with pytest.raises(ScenarioError, match="schema"):
        load_scenario(path)


def test_scenario_rejects_undefined_field(tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": ["0", "x1"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X9"],
            "initial": {"base": [0, 0], "fiber": [0, 0]},
            "horizon": 1.0,
        },
    }
    with pytest.raises(ScenarioError, match="X9"):
        load_scenario(write_scenario(tmp_path, doc))


def _run_shear_variant(capsys, tmp_path, path, value, command="controllability"):
    """Run the shear scenario with the key at ``path`` set to ``value``."""
    doc = json.loads((SCENARIOS / "r2_shear.json").read_text())
    spec = doc
    for key in path[:-1]:
        spec = spec.setdefault(key, {})
    spec[path[-1]] = value
    code = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_rejects_fields_that_are_not_an_object(capsys, tmp_path):
    code, out, err = _run_shear_variant(capsys, tmp_path, ("fields",), [])
    assert (code, out) == (2, "")
    assert err.startswith("error: fields must map names")


def test_scenario_rejects_a_field_given_as_one_string(capsys, tmp_path):
    code, out, err = _run_shear_variant(capsys, tmp_path, ("fields", "Y"), "12")
    assert (code, out) == (2, "")
    assert err.startswith("error: field 'Y': coefficients must be a list of strings")


def test_scenario_rejects_controls_given_as_one_string(capsys, tmp_path):
    code, out, err = _run_shear_variant(capsys, tmp_path, ("lifted_system", "controls"), "X1")
    assert (code, out) == (2, "")
    assert err.startswith("error: lifted_system.controls must be a list of field names")


@pytest.mark.parametrize(
    "path, value",
    [
        (("lifted_system", "grid"), -3),
        (("lifted_system", "grid"), "abc"),
        (("lifted_system", "grid"), 2.5),
        (("lifted_system", "k_max"), -1),
        (("lift_check", "samples"), "x"),
        (("lift_check", "samples"), 0),
        (("lifted_system", "bump", "channel"), "a"),
        (("lifted_system", "bump", "channel"), -1),
        (("lifted_system", "bump", "t0_fraction"), 1.0),
        (("lifted_system", "bump", "t0_fraction"), "x"),
        (("lifted_system", "bump", "epsilon_fractions"), [0.0]),
        (("lifted_system", "bump", "epsilon_fractions"), [0.5, 1.5]),
    ],
)
def test_scenario_numbers_out_of_range_are_input_errors(capsys, tmp_path, path, value):
    code, out, err = _run_shear_variant(capsys, tmp_path, path, value, "bump-convergence")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {'.'.join(path)}")


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("vertical_system",), [], "vertical_system"),
        (("vertical_system",), {"horizon": 1.0, "initial": 0}, "vertical_system.initial"),
        (("lifted_system",), 5, "lifted_system"),
        (("lifted_system", "initial"), 0, "lifted_system.initial"),
        (("lifted_system", "bump"), 5, "lifted_system.bump"),
        (("lift_check",), [], "lift_check"),
    ],
)
def test_scenario_sub_blocks_must_be_objects(capsys, tmp_path, path, value, key):
    code, out, err = _run_shear_variant(capsys, tmp_path, path, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} must be a JSON object, got ")


def test_scenario_rejects_bad_horizon(tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": ["0", "x1"], "X1": ["1", "0"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": [0, 0], "fiber": [0, 0]},
            "horizon": -1.0,
        },
    }
    for horizon in (-1.0, math.nan, math.inf):
        doc["lifted_system"]["horizon"] = horizon
        with pytest.raises(ScenarioError, match="horizon"):
            load_scenario(write_scenario(tmp_path, doc))


def test_scenario_rejects_bad_control_values(tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": ["0", "x1"], "X1": ["1", "0"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": [0, 0], "fiber": [0, 0]},
            "horizon": 1.0,
        },
    }
    for values in ([["a"]], [[math.nan]], [[math.inf], [0.0]]):
        doc["lifted_system"]["control_values"] = values
        with pytest.raises(ScenarioError, match="control_values"):
            load_scenario(write_scenario(tmp_path, doc))


def test_scenario_rejects_wrong_dimensions(tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": ["0", "x1", "0"]},
    }
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, doc))


def test_lift_check_command(capsys):
    code, report, _ = run_cli(
        capsys, "lift-check", "--scenario", str(SCENARIOS / "s2_vertical.json")
    )
    assert code == 0
    assert report["payload"]["all_pass"] is True
    identities = {r["identity"]: r for r in report["payload"]["identities"]}
    assert len(identities) == 10
    for record in identities.values():
        assert record["max_residual"] <= record["tolerance"]


def test_lift_check_needs_two_fields(capsys, tmp_path):
    doc = {"schema": "tanlift-scenario-v1", "manifold": "R2", "fields": {"Y": ["0", "x1"]}}
    code, _, _ = run_cli(capsys, "lift-check", "--scenario", write_scenario(tmp_path, doc))
    assert code == 2


def test_malformed_expression_is_input_error(capsys, tmp_path):
    doc = {"schema": "tanlift-scenario-v1", "manifold": "R2", "fields": {"B": ["sin(", "0"]}}
    code, _, _ = run_cli(capsys, "lift-check", "--scenario", write_scenario(tmp_path, doc))
    assert code == 2


def test_simulate_shear(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, report, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        str(SCENARIOS / "r2_shear.json"),
        "--out",
        str(out_dir),
    )
    assert code == 0
    lifted = report["payload"]["lifted"]
    assert lifted["discrepancy"] <= 1e-7
    assert np.allclose(lifted["closed_form"]["fiber"], [1.0, 1.5], atol=1e-7)
    csv_path = out_dir / "trajectory_lifted.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x1,x2,y1,y2"
    assert (out_dir / "report_simulate.json").exists()


def test_simulate_damping(capsys):
    code, report, _ = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIOS / "s2_damping.json")
    )
    assert code == 0
    vertical = report["payload"]["vertical"]
    assert vertical["base_constant"] is True
    ratio = vertical["ode"]["fiber"][0] / 1.0
    assert abs(ratio - math.exp(-1.0)) <= 1e-8


def test_simulate_vertical_discrepancy(capsys):
    code, report, _ = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIOS / "s2_vertical.json")
    )
    assert code == 0
    assert report["payload"]["vertical"]["discrepancy"] <= 1e-9


def test_controllability_vertical(capsys):
    code, report, _ = run_cli(
        capsys, "controllability", "--scenario", str(SCENARIOS / "s2_vertical.json")
    )
    assert code == 0
    assert report["payload"]["vertical"]["controllable"] is True
    assert report["payload"]["vertical"]["basis"]["rank"] == 2


def test_controllability_negative_verdict_exit_code(capsys, tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "S2-spherical",
        "fields": {"Y": ["0", "1"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["Y"],
            "initial": {"base": [0.8, 0.3], "fiber": [0.2, -0.1]},
            "horizon": 1.0,
        },
    }
    code, report, _ = run_cli(
        capsys, "controllability", "--scenario", write_scenario(tmp_path, doc)
    )
    assert code == 1
    lifted = report["payload"]["lifted"]
    assert lifted["verdict_transport"] is False
    assert lifted["verdict_bracket"] is False
    assert "grid-sampled" in lifted["caveat"]


def test_reachable_command(capsys):
    code, report, _ = run_cli(
        capsys, "reachable", "--scenario", str(SCENARIOS / "s2_vertical.json")
    )
    assert code == 0
    vertical = report["payload"]["vertical"]
    assert vertical["basis"]["rank"] == 2
    assert vertical["controllable"] is True


def test_bump_convergence_command(capsys):
    code, report, _ = run_cli(
        capsys, "bump-convergence", "--scenario", str(SCENARIOS / "r2_shear.json")
    )
    assert code == 0
    payload = report["payload"]
    errors = [row["error"] for row in payload["table"]]
    assert errors[0] > errors[1] > errors[2]
    assert payload["order"] >= 0.9


def test_bump_convergence_commuting_is_flat(capsys):
    code, report, _ = run_cli(
        capsys,
        "bump-convergence",
        "--scenario",
        str(SCENARIOS / "s2_lifted.json"),
    )
    assert code == 0
    payload = report["payload"]
    assert max(row["error"] for row in payload["table"]) <= 1e-9
    assert payload["order"] is None


def test_brackets_command(capsys):
    code, report, _ = run_cli(
        capsys, "brackets", "--scenario", str(SCENARIOS / "r2_shear.json")
    )
    assert code == 0
    pairs = {(p["a"], p["b"]): p["coefficients"] for p in report["payload"]["pairs"]}
    assert np.allclose(pairs[("Y", "X1")], [0.0, -1.0], atol=1e-12)
    assert report["payload"]["iterated_brackets"]["satisfied"] is True


def test_domain_exit_is_numerical_failure(capsys, tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "S2-spherical",
        "fields": {"Y": ["1", "0"], "X1": ["0", "1"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": [0.8, 0.3], "fiber": [0.1, 0.1]},
            "horizon": 5.0,
        },
    }
    code, _, _ = run_cli(capsys, "simulate", "--scenario", write_scenario(tmp_path, doc))
    assert code == 3


def test_non_finite_state_is_numerical_failure(capsys, tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "vertical_system": {
            "fiber_dynamics": ["y1*y1", "0"],
            "initial": {"base": [0, 0], "fiber": [1, 1]},
            "horizon": 2.0,
        },
    }
    path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    # y' = y^2 from y = 1 blows up at t = 1; RK4 overflows a few steps later.
    assert re.search(r"non-finite state at t = 1\.0\d*", captured.err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


@pytest.mark.parametrize(
    "drift, base",
    [
        # x1' = x1^2 from x1 = 1 blows up at t = 1.
        (["x1*x1", "0"], [1.0, 0.0]),
        # 1/x1 is infinite at the initial point itself.
        (["1/x1", "0"], [0.0, 0.0]),
    ],
)
def test_blow_up_or_singular_field_is_non_finite_state(capsys, tmp_path, drift, base):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": drift, "X1": ["0", "1"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": base, "fiber": [0.1, 0.1]},
            "horizon": 2.0,
        },
    }
    code = main(["simulate", "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure: non-finite state at t = " in captured.err
    assert "left the chart" not in captured.err
    assert "RuntimeWarning" not in captured.err


def test_singular_flow_differential_is_numerical_failure(capsys, tmp_path):
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": ["-1000*x1", "0"], "X1": ["1", "0"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": [1.0, 0.0], "fiber": [0.0, 1.0]},
            "horizon": 1.0,
            "grid": 8,
        },
    }
    path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["reachable", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "flow differential is numerically singular (cond = inf)" in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--step", "0"),
        ("--step", "-1"),
        ("--step", "nan"),
        ("--step", "inf"),
        ("--max-steps", "0"),
        ("--grid", "0"),
        ("--grid", "1"),
        ("--rank-tol", "nan"),
        ("--rank-tol", "0"),
        ("--rank-tol", "1"),
    ],
)
def test_bad_flag_is_input_error(capsys, flag, value):
    code = main(["bump-convergence", "--scenario", str(SCENARIOS / "r2_shear.json"), flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


def test_missing_scenario_file(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "/does/not/exist.json")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", "--scenario", "x.json"]) == 2


def test_runs_are_deterministic(capsys):
    argv = ["lift-check", "--scenario", str(SCENARIOS / "s2_vertical.json"), "--seed", "42"]
    _, _, first = run_cli(capsys, *argv)
    _, _, second = run_cli(capsys, *argv)
    assert first == second


def test_grid_flag_overrides_scenario(capsys):
    code, report, _ = run_cli(
        capsys,
        "controllability",
        "--scenario",
        str(SCENARIOS / "r2_shear.json"),
        "--grid",
        "16",
    )
    assert code == 0
    assert report["payload"]["lifted"]["grid_segments"] == 16
    assert report["config"]["grid"] == 16
