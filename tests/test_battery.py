"""The identity battery against a per-pair reference, and its work counts."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from tanlift import ChartManifold, builtin_manifold, field_from_callable, field_from_expressions, load_scenario
from tanlift import lifts, manifold
from tanlift.battery import (
    IDENTITIES,
    _derived_function_lift,
    _test_function,
    linear_combination,
    run_identity_battery,
)
from tanlift.cli import main
from tanlift.lifts import (
    FunctionLift,
    LiftedVectorField,
    base_lie_bracket,
    complete_lift,
    directional_derivative,
    function_lift_eval,
    lie_bracket,
    vertical_lift,
)
from tanlift.manifold import central_differences, dprojection, numeric_gradient, sample_tangent_points

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def per_pair_battery(m, fields, samples, seed):
    """The battery written identity by identity, one ``lie_bracket`` call per bracket."""
    rng = np.random.default_rng(seed)
    points = sample_tangent_points(m, samples, rng)
    n = m.dim
    pairs = [(X, Y) for X in fields for Y in fields]
    res = dict.fromkeys([key for key, _, _ in IDENTITIES], 0.0)
    for X, Y in pairs:
        Xv, Yv, Xc, Yc = vertical_lift(X), vertical_lift(Y), complete_lift(X), complete_lift(Y)
        XY = base_lie_bracket(X, Y)
        for v in points:
            res["vv"] = max(res["vv"], np.max(np.abs(lie_bracket(Xv, Yv, v, method="numeric"))))
            cv = lie_bracket(Xc, Yv, v, method="numeric") - vertical_lift(XY).at(v)
            res["cv"] = max(res["cv"], np.max(np.abs(cv)))
            cc = lie_bracket(Xc, Yc, v, method="numeric") - complete_lift(XY).at(v)
            res["cc"] = max(res["cc"], np.max(np.abs(cc)))
    for X in fields:
        for v in points:
            gap = dprojection(v, complete_lift(X).at(v)) - X.at(v.base)
            res["projection"] = max(res["projection"], np.max(np.abs(gap)))
    for X, Y in pairs:
        a, b = rng.uniform(-2.0, 2.0, size=2)
        combo = linear_combination(a, X, b, Y)
        for v in points[:10]:
            for key, lift in (("linear_v", vertical_lift), ("linear_c", complete_lift)):
                gap = lift(combo).at(v) - (a * lift(X).at(v) + b * lift(Y).at(v))
                res[key] = max(res[key], np.max(np.abs(gap)))
    f, grad, hess = _test_function(m)
    fv = FunctionLift(manifold=m, base_fn=f, kind="vertical", gradient=grad)
    fc = FunctionLift(manifold=m, base_fn=f, kind="complete", gradient=grad)
    for X in fields:
        Xv, Xc = vertical_lift(X), complete_lift(X)
        Xf_v = _derived_function_lift(X, "vertical", f, grad, hess)
        Xf_c = _derived_function_lift(X, "complete", f, grad, hess)
        for v in points[:20]:
            res["derive_vv"] = max(res["derive_vv"], abs(directional_derivative(fv, Xv, v)))
            gap = directional_derivative(fv, Xc, v) - function_lift_eval(Xf_v, v)
            res["derive_cv"] = max(res["derive_cv"], abs(gap))
            gap = directional_derivative(fc, Xc, v) - function_lift_eval(Xf_c, v)
            res["derive_cc"] = max(res["derive_cc"], abs(gap))
            h, direction = 1e-5, X.at(v.base)
            fd = ((v.fiber + h * direction) - (v.fiber - h * direction)) / (2 * h)
            gap = np.concatenate([np.zeros(n), fd]) - Xv.at(v)
            res["fiber"] = max(res["fiber"], np.max(np.abs(gap)))
    return [
        {
            "identity": name,
            "max_residual": float(res[key]),
            "tolerance": tol,
            "pass": bool(res[key] <= tol),
        }
        for key, name, tol in IDENTITIES
    ]


@pytest.mark.parametrize("name", ["r2_shear", "s2_damping", "s2_lifted", "s2_vertical"])
def test_battery_equals_the_per_pair_brackets_on_shipped_fields(name):
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    fields = [scenario.fields[f] for f in scenario.lift_check_fields]
    samples = scenario.lift_check_samples
    expected = per_pair_battery(scenario.manifold, fields, samples, 42)
    assert run_identity_battery(scenario.manifold, fields, samples, 42) == expected


@pytest.mark.parametrize("chart", ["R2", "S2-spherical"])
def test_battery_equals_the_per_pair_brackets_with_powers_and_no_jacobian(chart):
    m = builtin_manifold(chart)
    fields = [
        field_from_expressions(m, ["cos(x2) + 0.5*sin(x1)", "x2*sin(x1)"], "Y"),
        field_from_expressions(m, ["pow(x1, 2) - 0.3", "0.2*pow(x2, 3)"], "P"),
        field_from_callable(m, lambda x: np.array([np.sin(x[1]), 1.0 + x[0] * x[1]]), name="H"),
    ]
    assert fields[2].jac is None
    expected = per_pair_battery(m, fields, 25, 3)
    assert run_identity_battery(m, fields, 25, 3) == expected


def test_the_test_function_has_a_term_in_every_coordinate():
    m3 = ChartManifold(dim=3, name="R3")
    f, grad, hess = _test_function(m3)
    for x in ([0.3, -0.7, 1.1], [-1.2, 0.4, -0.2]):
        x = np.array(x)
        g = grad(x)
        assert g[2] == np.cos(x[2]) * x[1] != 0.0
        assert np.allclose(g, numeric_gradient(f, x), rtol=0.0, atol=1e-9)
        assert np.allclose(hess(x), central_differences(grad, x), rtol=0.0, atol=1e-9)
        assert np.array_equal(hess(x), hess(x).T)
    # On a 2-D chart the function is sin(x1) x2 + cos(x2), as it always was.
    f2, grad2, _ = _test_function(builtin_manifold("R2"))
    x = np.array([0.3, -0.7])
    assert f2(x) == np.sin(x[0]) * x[1] + np.cos(x[1])
    assert np.array_equal(grad2(x), [np.cos(x[0]) * x[1], np.sin(x[0]) - np.sin(x[1])])


def test_the_test_function_compiles_once_per_dimension_on_an_unbounded_chart():
    functions = _test_function(builtin_manifold("R2"))
    assert _test_function(builtin_manifold("S2-spherical")) is functions
    gradient = functions[1].__self__
    assert gradient.manifold.dim == 2
    assert np.isinf(gradient.manifold.bounds).all()


def test_battery_passes_for_fields_that_depend_on_x3():
    m3 = ChartManifold(dim=3, name="R3")
    fields = [
        field_from_expressions(m3, ["sin(x3)", "x1*cos(x3)", "0.5*x2"], "A"),
        field_from_expressions(m3, ["x3*x2", "1", "cos(x1) - sin(x3)"], "B"),
        field_from_callable(m3, lambda x: np.array([np.cos(x[2]), x[0] * x[2], np.sin(x[1])]), name="H"),
    ]
    records = run_identity_battery(m3, fields, 20, 5)
    assert [r["identity"] for r in records] == [name for _, name, _ in IDENTITIES]
    assert all(r["pass"] for r in records), records
    assert records == per_pair_battery(m3, fields, 20, 5)


def test_lift_check_makes_one_stencil_per_lift_per_sample_point(monkeypatch):
    # s2_vertical: 3 fields x 2 lifts x 50 points = 300 stencils, each of
    # 1 + 4n = 9 lift evaluations; the exact brackets, linearity and
    # derivation checks add 660 more.
    stencils = []
    evaluations = []
    differences = manifold.central_differences
    at = LiftedVectorField.at

    def counting_differences(f, x, h=manifold.DEFAULT_DERIV_STEP):
        stencils.append(1)
        return differences(f, x, h)

    def counting_at(self, v):
        evaluations.append(1)
        return at(self, v)

    monkeypatch.setattr(lifts, "central_differences", counting_differences)
    monkeypatch.setattr(manifold, "central_differences", counting_differences)
    monkeypatch.setattr(LiftedVectorField, "at", counting_at)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["lift-check", "--scenario", str(SCENARIOS / "s2_vertical.json")])
    assert code == 0
    assert len(stencils) == 300
    assert len(evaluations) <= 3960
