import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import tanlift.lifted
from tanlift import NumericalError, ScenarioError, load_scenario
from tanlift.cli import _COMMANDS, main
from tanlift.reportio import dumps

from test_expressions import _grammar

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


def test_a_scenario_loads_from_a_dict_as_from_its_file():
    path = SCENARIOS / "r2_shear.json"
    from_dict = load_scenario(json.loads(path.read_text()))
    from_file = load_scenario(str(path))
    assert (from_dict.name, sorted(from_dict.fields)) == (from_file.name, sorted(from_file.fields))
    assert from_dict.lifted.horizon == from_file.lifted.horizon == 1.0


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
        (("lifted_system", "bump", "epsilon_fractions"), [0.5]),
        (("lifted_system", "bump", "epsilon_fractions"), [0.125, 0.125]),
        (("lifted_system", "bump", "epsilon_fractions"), []),
        (("lifted_system", "horizon"), True),
        (("lifted_system", "horizon"), "1.5"),
        (("lifted_system", "horizon"), 10**400),
        (("lifted_system", "initial", "base"), [True, False]),
        (("lifted_system", "initial", "fiber"), [True, "2"]),
        (("lifted_system", "control_values"), [["1"]]),
        (("lifted_system", "control_values"), [[True]]),
        (("lifted_system", "bump", "epsilon_fractions"), 0.5),
    ],
)
def test_scenario_numbers_out_of_range_are_input_errors(capsys, tmp_path, path, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run_shear_variant(capsys, tmp_path, path, value, "bump-convergence")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {'.'.join(path)}")
    assert not caught


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


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "long-name"])
def test_an_unreadable_scenario_path_is_an_input_error(capsys, tmp_path, kind):
    (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')
    path = {
        "missing": tmp_path / "missing.json",
        "directory": tmp_path,
        "not-utf8": tmp_path / "latin1.json",
        "long-name": tmp_path / ("x" * 300 + ".json"),
    }[kind]
    code = main(["simulate", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    message = "scenario file not found" if kind == "missing" else "cannot read scenario file"
    assert captured.err.startswith(f"error: {message}")
    assert str(path) in captured.err
    assert "Traceback" not in captured.err


_NO_SYSTEM = {"schema": "tanlift-scenario-v1", "manifold": "R2", "fields": {"Y": ["0", "x1"]}}


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "simulate",
            "{not json",
            "scenario is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        ("brackets", "[1, 2]", "scenario document must be a JSON object"),
        ("simulate", json.dumps(_NO_SYSTEM), "simulate needs a vertical_system or lifted_system block"),
        ("controllability", json.dumps(_NO_SYSTEM), "controllability needs a vertical_system or lifted_system block"),
        ("reachable", json.dumps(_NO_SYSTEM), "reachable needs a vertical_system or lifted_system block"),
    ],
    ids=["not-json", "not-an-object", "simulate", "controllability", "reachable"],
)
def test_a_scenario_a_command_cannot_read_or_run_is_an_input_error(capsys, tmp_path, command, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_a_scenario_nested_past_the_recursion_limit_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["brackets", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot read scenario file {path}: maximum recursion depth exceeded")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("out", ["report.txt", "report.txt/sub"])
def test_out_naming_a_file_is_an_input_error(capsys, tmp_path, out):
    (tmp_path / "report.txt").write_text("")
    code = main(["brackets", "--scenario", str(SCENARIOS / "r2_shear.json"), "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot create the --out directory {tmp_path / out}: ")
    assert "Traceback" not in captured.err


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


def test_lift_check_stops_at_a_non_finite_lift(capsys, tmp_path):
    # X is NaN where x1 > 1.9; sample point 39 of seed 3 lies there.
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"X": ["pow(1.9 - x1, 0.5)", "1"], "Y": ["x2", "0"]},
        "lift_check": {"fields": ["X", "Y"], "samples": 50},
    }
    path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["lift-check", "--scenario", path, "--seed", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith(
        "numerical failure: lifts of field 'X' are not finite at sample point 39, (x, y) = [1.999"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "scenario, path, value, message",
    [
        ("r2_shear", ("fields", "Y"), ["0", "1/0"], "field 'Y': undefined value zoo"),
        ("r2_shear", ("fields", "Y"), ["x1/0", "0"], "field 'Y': undefined value zoo*x1"),
        ("r2_shear", ("fields", "Y"), ["0", "pow(0, -1)"], "field 'Y': undefined value zoo"),
        ("r2_shear", ("fields", "Y"), ["0/0", "x1"], "field 'Y': undefined value nan"),
        ("r2_shear", ("fields", "X1"), ["1e400", "0"], "field 'X1': number 1e400 is out of range"),
        ("s2_damping", ("vertical_system", "fiber_dynamics"), ["1/0", "0"], "vertical_system.fiber_dynamics: "),
        ("s2_damping", ("vertical_system", "fiber_dynamics"), 3, "vertical_system.fiber_dynamics must be "),
        ("s2_damping", ("vertical_system", "fiber_dynamics"), None, "vertical_system.fiber_dynamics must be "),
        ("s2_damping", ("vertical_system", "fiber_dynamics"), [[1]], "vertical_system.fiber_dynamics must be "),
        ("s2_damping", ("vertical_system", "fiber_dynamics"), ["0"], "vertical_system.fiber_dynamics: need 2"),
        ("r2_shear", ("lifted_system", "initial", "fiber"), [math.inf, 0.0], "lifted_system.initial.fiber "),
        ("s2_damping", ("vertical_system", "initial", "fiber"), [0.0, -math.inf], "vertical_system.initial.fiber "),
        ("r2_shear", ("lifted_system", "controls"), [], "lifted_system.controls must name at least one"),
        ("r2_shear", ("name",), math.nan, "name must be a string"),
        ("r2_shear", ("fields", "X1"), ["(" * 400 + "1" + ")" * 400, "0"], "field 'X1': expression nests deeper"),
        ("r2_shear", ("fields", "Y"), ["0", "-" * 1500 + "x1"], "field 'Y': expression nests deeper"),
        (
            "s2_damping",
            ("vertical_system", "fiber_dynamics"),
            ["-1*y1", "y2*pow(-1, 0.5)"],
            "vertical_system.fiber_dynamics: result is not a real number (at position 3)",
        ),
        (
            "r2_shear",
            ("fields", "X1"),
            ["x1 + 0.0/0.0", "0"],
            "field 'X1': undefined value nan (division by zero) (at position 8)\n",
        ),
    ],
)
def test_malformed_scenario_input_names_its_key(capsys, tmp_path, scenario, path, value, message):
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    spec = doc
    for key in path[:-1]:
        spec = spec[key]
    spec[path[-1]] = value
    scenario_path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--scenario", scenario_path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {message}")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_simulate_of_an_affine_vertical_block_without_controls_runs_its_drift_alone(capsys, tmp_path):
    doc = json.loads((SCENARIOS / "s2_vertical.json").read_text())
    del doc["vertical_system"]["control_values"]
    code, report, _ = run_cli(capsys, "simulate", "--scenario", write_scenario(tmp_path, doc))
    vertical = report["payload"]["vertical"]
    assert code == 0
    # The drift X0 = (cos(x2), sin(x1)) at x0 = (0.8, 0.3), for the horizon 1.0.
    assert vertical["closed_form"] == {"base": [0.8, 0.3], "fiber": [0.2 + np.cos(0.3), -0.1 + np.sin(0.8)]}
    assert vertical["discrepancy"] < 1e-12


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


@pytest.mark.parametrize(
    "bump, message",
    [
        ({"channel": 1}, "bump channel 1 out of range for 1 controls"),
        ({"t0_fraction": 0.3}, "bump start 0.3 does not land on a node of the 64-segment grid"),
        ({"epsilon_fractions": [0.3, 0.125]}, "bump width fraction 0.3 must divide the horizon evenly"),
        ({"t0_fraction": 0.015625}, "bump start 0.015625 is not a boundary of the 8-segment control"),
        (
            {"grid": 40},
            "bump width fraction 0.0625 gives 16 control segments, which neither align with nor refine the 40-segment grid",
        ),
        (
            {"horizon": 20.0, "--grid": "40"},
            "bump width fraction 0.0625 gives 16 control segments, which neither align with nor refine the 40-segment grid",
        ),
        (
            {"epsilon_fractions": [0.5, 1e-300], "--grid": "8"},
            "bump width fraction 1e-300 gives more control segments than the step budget of 1000000",
        ),
    ],
)
def test_bump_convergence_rejects_a_bump_off_the_grid(capsys, tmp_path, monkeypatch, bump, message):
    doc = json.loads((SCENARIOS / "r2_shear.json").read_text())
    bump, lifted = dict(bump), doc["lifted_system"]
    lifted["grid"] = bump.pop("grid", lifted["grid"])
    lifted["horizon"] = bump.pop("horizon", lifted["horizon"])
    flags = ["--grid", bump.pop("--grid")] if "--grid" in bump else []
    lifted["bump"].update(bump)
    # Every bump is rejected before the transport pass runs.
    passes = []
    monkeypatch.setattr(tanlift.lifted, "_transport_pass", lambda *args: passes.append(args))
    code = main(["bump-convergence", "--scenario", write_scenario(tmp_path, doc), *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert passes == []


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("y2", ["pow(pow(x1, 2), 0.5)", "pow(pow(x1, 2), 1.5)", "pow(pow(sin(x1), 2), 0.5)"])
def test_a_drift_whose_bracket_jacobian_holds_a_dirac_delta(capsys, tmp_path, y2, command):
    # sympy writes |x1| for these, and the second derivative of |x1| as
    # DiracDelta, which numpy has no name for.  Only lift-check evaluates the
    # Jacobian of a bracket: its complete lift is in the identity battery.
    doc = json.loads((SCENARIOS / "r2_shear.json").read_text())
    doc["fields"]["Y"] = ["x2", y2]
    code = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command == "lift-check":
        assert (code, captured.out) == (3, "")
        assert captured.err == "numerical failure: Jacobian of field '[X1,Y]' has DiracDelta, which numpy cannot evaluate\n"
    else:
        assert code == 0


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize(
    "y2, code, message",
    [
        ("x1 + pow(-2, 0.5)", 2, "error: field 'Y': result is not a real number (at position 5)\n"),
        ("x1 + pow(-2, x2)", 3, "numerical failure: Jacobian of field 'Y' has a constant that is not real\n"),
        ("pow(-exp(x1), 1/3)", 2, "error: field 'Y': result is not a real number (at position 0)\n"),
        (
            "x1*pow(10, 200)*pow(10, 200)",
            2,
            "error: field 'Y': result is undefined or out of the float range (at position 15)\n",
        ),
        (
            "x1*1e200*1e200",
            2,
            "error: field 'Y': result is undefined or out of the float range (at position 8)\n",
        ),
        ("x1/1e-320", 2, "error: field 'Y': result is undefined or out of the float range (at position 2)\n"),
        (
            "x1*exp(700)*exp(10)",
            2,
            "error: field 'Y': result is undefined or out of the float range (at position 11)\n",
        ),
    ],
    ids=[
        "constant",
        "log-of-a-negative",
        "power-of-a-negative",
        "product-beyond-the-float-range",
        "float-product-beyond-the-float-range",
        "float-quotient-beyond-the-float-range",
        "folded-exp-beyond-the-float-range",
    ],
)
def test_a_non_real_constant_ends_in_a_one_line_message(capsys, tmp_path, y2, code, message, command):
    # sympy writes pow(-2, 0.5) as 1.4142*I, and the log(-2) in the Jacobian
    # of pow(-2, x2) as log(2) + I*pi; neither is a float.  It writes
    # pow(-exp(x1), 1/3) with (-1)**(1/3), and forms 10**400 in the last
    # drift, which is out of the float range: the parser names the operator
    # that formed either, as it does for a constant.
    doc = json.loads((SCENARIOS / "r2_shear.json").read_text())
    doc["fields"]["Y"] = ["0", y2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if command == "brackets" and code == 3:
        # The brackets of Y with X1 and with itself hold no I, and brackets
        # never evaluates Y itself.
        assert result == 0
    else:
        assert (result, captured.out, captured.err) == (code, "", message)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_a_float_constant_beyond_the_float_range_in_a_jacobian_ends_in_a_one_line_message(capsys, tmp_path, command):
    # d/dx1 of 1e308*x1**3 has 3.0e308.  brackets and lift-check meet it
    # first in the bracket [X1, Y], the first column of Y's Jacobian.
    doc = json.loads((SCENARIOS / "r2_shear.json").read_text())
    doc["fields"]["Y"] = ["0", "1e308*pow(x1, 3)"]
    result = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    field = "field '[X1,Y]'" if command in ("brackets", "lift-check") else "Jacobian of field 'Y'"
    message = f"numerical failure: {field} has a constant beyond the float range\n"
    assert (result, captured.out, captured.err) == (3, "", message)


def _grammar_scenario(chart: str, drift: list, control: list) -> dict:
    """A short lifted system on ``chart``: every command runs it in well under a second."""
    return {
        "schema": "tanlift-scenario-v1",
        "manifold": chart,
        "fields": {"Y": drift, "X1": control},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": [0.8, 0.3], "fiber": [0.2, -0.1]},
            "horizon": 0.05,
            "control_values": [[1.0]],
            "grid": 8,
            "k_max": 1,
        },
        "lift_check": {"samples": 2},
    }


_COEFFICIENTS = st.lists(_grammar(["x1", "x2"], depth=3), min_size=2, max_size=2)


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(chart=st.sampled_from(["R2", "S2-spherical"]), drift=_COEFFICIENTS, control=_COEFFICIENTS)
def test_every_command_on_drawn_fields_exits_with_a_code_and_at_most_one_line(capsys, tmp_path, chart, drift, control):
    path = write_scenario(tmp_path, _grammar_scenario(chart, drift, control))
    for command in sorted(_COMMANDS):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--scenario", path])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == [], command
        assert code in (0, 1, 2, 3), command
        if code:
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), (command, captured.err)


def test_brackets_without_a_system_block_use_the_middle_of_the_sample_box(capsys, tmp_path):
    doc = {"schema": "tanlift-scenario-v1", "manifold": "R2", "fields": {"Y": ["0", "x1"], "X1": ["1", "0"]}}
    code, report, _ = run_cli(capsys, "brackets", "--scenario", write_scenario(tmp_path, doc))
    assert code == 0
    payload = report["payload"]
    assert payload["point"] == [0.0, 0.0] and "iterated_brackets" not in payload
    pairs = {(p["a"], p["b"]): p["coefficients"] for p in payload["pairs"]}
    assert pairs == {("X1", "X1"): [0.0, 0.0], ("X1", "Y"): [0.0, 1.0], ("Y", "X1"): [0.0, -1.0], ("Y", "Y"): [0.0, 0.0]}


def test_brackets_need_a_field(capsys, tmp_path):
    doc = {"schema": "tanlift-scenario-v1", "manifold": "R2", "fields": {}}
    code = main(["brackets", "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: brackets needs at least one field defined in fields\n"


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
        # 1/x1 is infinite at the initial point itself, where simulate names it.
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
    if drift == ["1/x1", "0"]:
        assert captured.err == f"numerical failure: field 'Y' is not finite at x = {base}\n"
    else:
        assert "numerical failure: non-finite state at t = " in captured.err
    assert "left the chart" not in captured.err
    assert "RuntimeWarning" not in captured.err


@pytest.mark.parametrize("command", ["controllability", "reachable", "bump-convergence"])
def test_singular_control_on_the_drift_trajectory_is_named(capsys, tmp_path, command):
    # X1 is infinite at the initial base x1 = 1, the first transport row.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run_shear_variant(
            capsys, tmp_path, ("fields", "X1"), ["1/(x1 - 1)", "0"], command
        )
    assert (code, out) == (3, "")
    assert err == "numerical failure: control field 'X1' is not finite at t = 0\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "scenario, X1, command, field",
    [
        ("r2_shear.json", "1/(x1 - 1)", "brackets", "[X1,Y]"),
        ("s2_vertical.json", "1/(x1 - 0.8)", "controllability", "X1"),
        ("s2_vertical.json", "1/(x1 - 0.8)", "reachable", "X1"),
        ("s2_vertical.json", "1/(x1 - 0.8)", "simulate", "X1"),
        ("s2_lifted.json", "1/(x1 - 0.8)", "simulate", "X1"),
    ],
)
def test_field_not_finite_at_the_base_point_is_named(capsys, tmp_path, scenario, X1, command, field):
    # X1 is infinite at the scenario's initial base, where these commands evaluate it.
    doc = json.loads((SCENARIOS / scenario).read_text())
    doc["fields"]["X1"] = [X1, "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    base = doc.get("lifted_system", doc.get("vertical_system"))["initial"]["base"]
    assert (code, captured.out) == (3, "")
    assert captured.err == f"numerical failure: field {field!r} is not finite at x = {base}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["simulate", "controllability", "reachable", "bump-convergence"])
def test_drift_not_finite_at_the_initial_base_is_named(capsys, tmp_path, command):
    # Y is infinite at the initial base x1 = 0.8, before the first RK4 step.
    doc = json.loads((SCENARIOS / "s2_lifted.json").read_text())
    doc["fields"]["Y"] = ["0", "1/(x1 - 0.8)"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "numerical failure: field 'Y' is not finite at x = [0.8, 0.3]\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["simulate", "controllability"])
def test_a_jacobian_constant_beyond_the_float_range_is_a_numerical_failure(capsys, tmp_path, command):
    # The Jacobian of N*x1*sin(N*x1) has N**2 = 10**400, which no float holds.
    N = 10**200
    doc = json.loads((SCENARIOS / "s2_lifted.json").read_text())
    doc["fields"]["Y"] = [f"{N}*x1*sin({N}*x1)", "1"]
    code = main([command, "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "numerical failure: Jacobian of field 'Y' has a constant beyond the float range\n"


def test_fiber_dynamics_not_finite_at_the_start_are_named(capsys, tmp_path):
    # -y1/x2 divides by the initial base coordinate x2 = 0.
    doc = json.loads((SCENARIOS / "s2_damping.json").read_text())
    doc["vertical_system"]["fiber_dynamics"] = ["-y1/x2", "-1*y2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--scenario", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "numerical failure: fiber dynamics are not finite at x = [1.5707963267948966, 0.0], y = [1.0, 1.0]\n"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("budget, code", [(1023, 3), (1024, 0)])
def test_step_budget_bounds_the_whole_transport_pass(capsys, budget, code):
    # 64 grid segments of 1/64 take an even 16 steps each: 1,024 in all.
    result = main(["reachable", "--scenario", str(SCENARIOS / "r2_shear.json"), "--max-steps", str(budget)])
    captured = capsys.readouterr()
    assert result == code
    if code:
        assert captured.err == f"numerical failure: horizon 1.0 needs 1024 steps of 0.001, budget is {budget}\n"


@pytest.mark.parametrize("command", ["reachable", "controllability", "bump-convergence"])
def test_a_grid_too_large_for_the_step_budget_fails_before_its_nodes_exist(capsys, command):
    # 10**21 nodes are more than numpy can allocate; 2 steps a segment are far over the budget.
    grid = 10**21
    result = main([command, "--scenario", str(SCENARIOS / "r2_shear.json"), "--grid", str(grid)])
    captured = capsys.readouterr()
    message = f"horizon 1.0 on {grid} grid segments needs at least {2 * grid} steps, budget is 1000000"
    assert (result, captured.out, captured.err) == (3, "", f"numerical failure: {message}\n")


@pytest.mark.parametrize("step", ["1e-300", "1e-310"])
def test_tiny_step_is_a_step_budget_failure_without_a_count(capsys, step):
    # 1 / 1e-300 steps is a 301-digit count and 1 / 1e-310 overflows to inf;
    # neither is formed, let alone printed.
    code = main(["simulate", "--scenario", str(SCENARIOS / "r2_shear.json"), "--step", step])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"numerical failure: horizon 1.0 needs more steps of {step} than the budget of 1000000\n"


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
        ("--seed", "-1"),
    ],
)
def test_bad_flag_is_input_error(capsys, flag, value):
    code = main(["bump-convergence", "--scenario", str(SCENARIOS / "r2_shear.json"), flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


@pytest.mark.parametrize(
    "flag, value, requirement",
    [
        ("--step", "abc", "a finite number > 0"),
        ("--max-steps", "1.5", "an integer >= 1"),
        ("--grid", "eight", "an integer >= 2"),
        ("--rank-tol", "tiny", "a number in (0, 1)"),
        ("--seed", "seven", "an integer >= 0"),
    ],
)
def test_a_non_numeric_flag_is_an_input_error(capsys, flag, value, requirement):
    code = main(["simulate", "--scenario", str(SCENARIOS / "r2_shear.json"), flag, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == f"tanlift: error: argument {flag}: must be {requirement}, got {value!r}"


def test_missing_scenario_file(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "/does/not/exist.json")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", "--scenario", "x.json"]) == 2


def test_only_package_and_linear_algebra_errors_are_numerical_failures(monkeypatch):
    # A non-finite report value is a package error; a stray ValueError is a bug, not exit 3.
    with pytest.raises(NumericalError, match="non-finite value nan"):
        dumps({"x": math.nan})

    def broken(run):
        raise ValueError("bug")

    monkeypatch.setitem(_COMMANDS, "brackets", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["brackets", "--scenario", str(SCENARIOS / "r2_shear.json")])


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
