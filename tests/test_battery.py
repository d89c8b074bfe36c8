"""The identity battery against a per-pair reference, and its work counts."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tanlift import ChartManifold, builtin_manifold, field_from_callable, field_from_expressions, load_scenario
from tanlift import ChartDomainError, NumericalError, battery, expressions, manifold
from tanlift.battery import IDENTITIES, _test_function, linear_combination, run_identity_battery
from tanlift.lifts import (
    FunctionLift,
    base_lie_bracket,
    complete_lift,
    directional_derivative,
    function_lift_eval,
    lie_bracket,
    vertical_lift,
)
from tanlift.manifold import central_differences, dprojection, numeric_gradient, sample_tangent_points

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _derived_function_lift(X, kind, f, grad, hess):
    """Lift of the derivative function (X f), with its analytic gradient."""

    def g(x):
        return float(grad(x) @ X.at(x))

    def g_grad(x):
        return hess(x) @ X.at(x) + X.jacobian_at(x).T @ grad(x)

    return FunctionLift(manifold=X.manifold, base_fn=g, kind=kind, gradient=g_grad)


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
    f, gradient = _test_function(m)
    grad, hess = gradient.value, gradient.jacobian_at
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
    f, gradient = _test_function(m3)
    grad, hess = gradient.value, gradient.jacobian_at
    for x in ([0.3, -0.7, 1.1], [-1.2, 0.4, -0.2]):
        x = np.array(x)
        g = grad(x)
        assert g[2] == np.cos(x[2]) * x[1] != 0.0
        assert np.allclose(g, numeric_gradient(f, x), rtol=0.0, atol=1e-9)
        assert np.allclose(hess(x), central_differences(grad, x), rtol=0.0, atol=1e-9)
        assert np.array_equal(hess(x), hess(x).T)
    # On a 2-D chart the function is sin(x1) x2 + cos(x2), as it always was.
    f2, gradient2 = _test_function(builtin_manifold("R2"))
    grad2 = gradient2.value
    x = np.array([0.3, -0.7])
    assert f2(x) == np.sin(x[0]) * x[1] + np.cos(x[1])
    assert np.array_equal(grad2(x), [np.cos(x[0]) * x[1], np.sin(x[0]) - np.sin(x[1])])


def test_the_test_function_compiles_once_per_dimension_on_an_unbounded_chart():
    functions = _test_function(builtin_manifold("R2"))
    assert _test_function(builtin_manifold("S2-spherical")) is functions
    gradient = functions[1]
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


def test_lift_check_work_does_not_grow_with_the_sample_count(monkeypatch):
    # Each check is one array pass over all sample points: on s2_vertical the
    # battery makes as many field evaluations, row passes and stencils at 50
    # samples as at 10.
    scenario = load_scenario(str(SCENARIOS / "s2_vertical.json"))
    fields = [scenario.fields[f] for f in scenario.lift_check_fields]
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("value", "flat_value_and_jacobian", "at_rows", "value_and_jacobian_rows"):
        counting(manifold.VectorField, name)
    counting(battery, "central_differences")
    counts = []
    for samples in (10, 50):
        calls.clear()
        run_identity_battery(scenario.manifold, fields, samples, 42)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert counts[0].count("central_differences") == 2 * len(fields)


R2_STRIP = {"bounds": ([0.0, -np.inf], [1.0, np.inf])}
SEED7_POINT0 = "sample point 0, (x, y) = [0.5003818664186679, 1.588855203878302, 0.551371380490387, -0.5495856200188163]"
SEED3_CV_AT_POINT6 = (
    "identity 'complete-vertical bracket is lifted base bracket' is not finite at sample point 6, "
    "(x, y) = [1.5668442817806287, 0.34065175956363225, -0.057380669636337256, 0.5465540192976328]"
)


def _hand_written(t, where):
    """A (func, jac) pair whose ``where`` part raises ValueError wherever x1 > t.

    On R2 at seed 3, sample point 6 has x1 = 1.5668... and point 16 is the
    first with x1 > 1.6.
    """

    def func(x):
        if where == "value" and x[0] > t:
            raise ValueError(f"H is undefined at x1 = {float(x[0])!r}")
        return np.array([np.sin(x[1]), 1.0 + x[0] * x[1]])

    def jac(x):
        if x[0] > t:
            raise ValueError(f"H has no Jacobian at x1 = {float(x[0])!r}")
        return np.array([[0.0, np.cos(x[1])], [x[1], x[0]]])

    return func, jac if where == "jacobian" else None


@pytest.mark.parametrize(
    "chart, exprs, samples, seed, error, message",
    [
        # Not finite at point 0: raised before the DiracDelta of [X,Y]'s Jacobian, which fires at point 0's cc check.
        (
            None,
            {"X": ["pow(0.4 - x1, 0.5)", "1"], "Y": ["x2", "pow(pow(x1, 2), 0.5)"]},
            10,
            7,
            NumericalError,
            f"lifts of field 'X' are not finite at {SEED7_POINT0}",
        ),
        # Not finite at later points only: the DiracDelta of point 0 comes first.
        (
            None,
            {"X": ["pow(1.9 - x1, 0.5)", "1"], "Y": ["x2", "pow(pow(x1, 2), 0.5)"]},
            50,
            3,
            NumericalError,
            "Jacobian of field '[X,Y]' has DiracDelta, which numpy cannot evaluate",
        ),
        # The sample box lies within 1e-6 of the lower bound: the x1 - h stencil point leaves the chart.
        (
            ([2e-7, -1.0], [8e-7, 1.0]),
            {"A": ["sin(x2)", "cos(x1)"], "B": ["x2", "1"]},
            10,
            5,
            ChartDomainError,
            "coordinates [-9.316998245752773e-06, 0.6158815794729875] outside the domain of chart 'strip'",
        ),
        # Only some stencils leave the chart; the first point that does names the coordinates.
        (
            ([2e-6, -1.0], [2e-5, 1.0]),
            {"A": ["sin(x2)", "cos(x1)"], "B": ["x2", "1"]},
            30,
            5,
            ChartDomainError,
            "coordinates [-7.029247357130186e-06, -0.23326223842896354] outside the domain of chart 'strip'",
        ),
        # Stencils stay inside, but the derivation point x - h A(x) leaves the chart.
        (
            ([1e-3, -1.0], [2e-3, 1.0]),
            {"A": ["200", "cos(x1)"], "B": ["x2", "1"]},
            30,
            5,
            ChartDomainError,
            "coordinates [-0.00019499707625461995, 0.6158715794892776] outside the domain of chart 'strip'",
        ),
        # The bracket exp(480*x1) overflows at sample point 6 only among the first points.
        (None, {"X": ["exp(240*x1)", "0"], "Y": ["0", "exp(240*x1)"]}, 10, 3, NumericalError, SEED3_CV_AT_POINT6),
        # A hand-written field raises at point 16, in the lift pass: the overflow at point 6 comes first.
        (
            None,
            {"X": ["exp(240*x1)", "0"], "Y": ["0", "exp(240*x1)"], "H": _hand_written(1.6, "value")},
            50,
            3,
            NumericalError,
            SEED3_CV_AT_POINT6,
        ),
        # Its Jacobian alone raises at point 16, in the complete lift's pass: the overflow still comes first.
        (
            None,
            {"X": ["exp(240*x1)", "0"], "Y": ["0", "exp(240*x1)"], "H": _hand_written(1.6, "jacobian")},
            50,
            3,
            NumericalError,
            SEED3_CV_AT_POINT6,
        ),
        # It raises at point 6 itself, in the lifts, before that point's brackets overflow.
        (
            None,
            {"X": ["exp(240*x1)", "0"], "Y": ["0", "exp(240*x1)"], "H": _hand_written(1.55, "jacobian")},
            50,
            3,
            ValueError,
            "H has no Jacobian at x1 = 1.5668442817806287",
        ),
        # With nothing failing before it, its own exception at point 16 is raised.
        (None, {"A": ["sin(x2)", "cos(x1)"], "H": _hand_written(1.6, "value")}, 50, 3, ValueError,
         "H is undefined at x1 = 1.6843187091317198"),
    ],
    ids=["non-finite-at-0-before-dirac", "dirac-before-later-non-finite", "stencil-leaves-at-once",
         "stencil-leaves-later", "derivation-leaves", "bracket-overflows", "hand-written-raises-later",
         "hand-written-jacobian-raises-later", "hand-written-raises-at-the-same-point", "hand-written-raises-first"],
)
def test_battery_raises_what_a_pass_point_by_point_raises_first(chart, exprs, samples, seed, error, message):
    # Texts recorded from the point-by-point battery this one replaced.
    if chart is None:
        m = builtin_manifold("R2")
    else:
        m = ChartManifold(dim=2, name="strip", sample_bounds=chart, **R2_STRIP)
    fields = [
        field_from_expressions(m, column, name) if isinstance(column, list) else field_from_callable(m, *column, name)
        for name, column in exprs.items()
    ]
    with pytest.raises(error) as caught:
        run_identity_battery(m, fields, samples, seed)
    assert str(caught.value) == message


def test_a_battery_over_no_sample_points_evaluates_no_field():
    # [X,Y]'s Jacobian has a DiracDelta, which no evaluation meets at zero points.
    m = builtin_manifold("R2")
    fields = [
        field_from_expressions(m, ["pow(1.9 - x1, 0.5)", "1"], "X"),
        field_from_expressions(m, ["x2", "pow(pow(x1, 2), 0.5)"], "Y"),
    ]
    records = run_identity_battery(m, fields, 0, 3)
    assert records == per_pair_battery(m, fields, 0, 3)
    assert all(r["max_residual"] == 0.0 and r["pass"] for r in records)


def test_a_derivation_point_outside_the_chart_keeps_its_coordinates_for_a_callable_field():
    m = ChartManifold(dim=2, name="strip", sample_bounds=([1e-3, -1.0], [2e-3, 1.0]), **R2_STRIP)
    A = field_from_callable(m, lambda x: np.array([200.0, np.cos(x[0])]), name="A")
    with pytest.raises(ChartDomainError) as caught:
        run_identity_battery(m, [A, field_from_expressions(m, ["x2", "1"], "B")], 30, 5)
    assert caught.value.coords.tolist() == [-0.00019499707625461995, 0.6158715794892776]


_trig = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).map(lambda c: f"{c[0]!r} + {c[1]!r}*sin(x1) + {c[2]!r}*cos(x2)")
_power = st.tuples(st.floats(-1.0, 1.0, allow_nan=False), st.integers(2, 3)).map(lambda c: f"{c[0]!r}*pow(x1, {c[1]}) + x2")


def _callable(m, with_jac, scale):
    func = lambda x: np.array([np.sin(scale * x[1]), 1.0 + scale * x[0] * x[1]])  # noqa: E731
    jac = (lambda x: np.array([[0.0, scale * np.cos(scale * x[1])], [scale * x[1], scale * x[0]]])) if with_jac else None
    return field_from_callable(m, func, jac, name="H")


@settings(deadline=None, max_examples=12, derandomize=True, phases=(Phase.explicit, Phase.generate))
@given(
    st.sampled_from(["R2", "S2-spherical"]),
    st.lists(st.sampled_from(["trig", "power", "callable", "callable-jac"]), min_size=2, max_size=3),
    st.lists(_trig, min_size=6, max_size=6),
    st.lists(_power, min_size=6, max_size=6),
    st.integers(1, 50),
    st.integers(0, 2**16),
)
def test_battery_equals_the_per_point_oracle_on_drawn_fields(chart, kinds, trig, power, samples, seed):
    m = builtin_manifold(chart)
    fields = []
    for k, kind in enumerate(kinds):
        if kind == "trig":
            fields.append(field_from_expressions(m, trig[2 * k : 2 * k + 2], f"T{k}"))
        elif kind == "power":
            fields.append(field_from_expressions(m, power[2 * k : 2 * k + 2], f"P{k}"))
        else:
            fields.append(_callable(m, kind == "callable-jac", 0.5 + k))
    assert run_identity_battery(m, fields, samples, seed) == per_pair_battery(m, fields, samples, seed)


def test_each_column_and_jacobian_entry_is_walked_for_powers_once(monkeypatch):
    walked = []
    power_free = expressions._power_free

    def counting(exprs):
        exprs = list(exprs)
        walked.extend(exprs)
        return power_free(exprs)

    monkeypatch.setattr(expressions, "_power_free", counting)
    m = builtin_manifold("R2")
    X = field_from_expressions(m, ["x1*sin(x1*x2)", "cos(x2) + 0.5"], "X")
    X.jacobian_at(np.array([0.3, -0.7]))
    assert len(walked) == len(set(walked)) == 2 + 4
    # The column has no power, but its Jacobian has x1**2: values take columns, the kernel does not.
    assert X.vectorized
    rows = np.array([[0.3, -0.7], [1.1, 0.4]])
    assert X.kernel(rows.T) is None
    values, jacobians = X.value_and_jacobian_rows(rows)
    for k, x in enumerate(rows):
        value, jac = X.value_and_jacobian(x.tolist())
        assert np.array_equal(values[k], value) and np.array_equal(jacobians[k], jac)
