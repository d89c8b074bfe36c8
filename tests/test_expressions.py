import numpy as np
import pytest
import sympy

from tanlift import (
    ExpressionError,
    base_lie_bracket,
    fiber_dynamics_from_expressions,
    field_from_expressions,
)
from tanlift.expressions import chart_symbols, parse_expression


def _value(src, **point):
    table = chart_symbols(len(point))
    expr = parse_expression(src, table)
    return float(expr.subs({table[k]: v for k, v in point.items()}))


def test_literals_and_arithmetic():
    assert _value("1 + 2*3", x1=0.0) == 7.0
    assert _value("(1 + 2)*3", x1=0.0) == 9.0
    assert _value("4/2 - 5", x1=0.0) == -3.0
    assert _value("2.5e2", x1=0.0) == 250.0


def test_unary_minus_and_precedence():
    assert _value("-x1*3", x1=2.0) == -6.0
    assert _value("--x1", x1=2.0) == 2.0
    assert _value("1 - -x1", x1=2.0) == 3.0


def test_functions():
    assert abs(_value("sin(x1)", x1=0.5) - np.sin(0.5)) < 1e-15
    assert abs(_value("cos(x1)*exp(x2)", x1=0.3, x2=0.2) - np.cos(0.3) * np.exp(0.2)) < 1e-15
    assert _value("pow(x1, 3)", x1=2.0) == 8.0


def test_parse_error_positions():
    table = chart_symbols(2)
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(", table)
    assert err.value.position == 4
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 + * 2", table)
    assert err.value.position == 5
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 @ 2", table)
    assert err.value.position == 3


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x3 + 1", chart_symbols(2))


def test_wrong_arity_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("sin(x1, x2)", chart_symbols(2))
    with pytest.raises(ExpressionError):
        parse_expression("pow(x1)", chart_symbols(2))


def test_unknown_function_is_unknown_variable():
    with pytest.raises(ExpressionError):
        parse_expression("tan(x1)", chart_symbols(2))


def test_field_evaluation_and_jacobian(r2):
    X = field_from_expressions(r2, ["x1*x2", "sin(x1)"], "X")
    x = np.array([0.4, -1.2])
    assert np.allclose(X.at(x), [0.4 * -1.2, np.sin(0.4)])
    J = X.jacobian_at(x)
    assert np.allclose(J, [[-1.2, 0.4], [np.cos(0.4), 0.0]], atol=1e-14)


def test_field_needs_one_expression_per_coordinate(r2):
    with pytest.raises(ValueError):
        field_from_expressions(r2, ["x1"], "X")


def test_fiber_dynamics_variables(r2):
    dyn = fiber_dynamics_from_expressions(r2, ["-1*y1 + u1", "x1*y2"], control_dim=1)
    x = np.array([2.0, 0.0])
    y = np.array([3.0, 4.0])
    out = dyn(x, y, np.array([0.5]))
    assert np.allclose(out, [-3.0 + 0.5, 8.0])
    out0 = dyn(x, y, None)
    assert np.allclose(out0, [-3.0, 8.0])


def test_field_compiles_once_and_its_jacobian_on_first_use(monkeypatch, s2):
    X = field_from_expressions(s2, ["cos(x2)", "sin(x1)"], "X")
    Y = field_from_expressions(s2, ["x1*x2", "exp(x2)"], "Y")
    calls = []
    lambdify = sympy.lambdify

    def counting_lambdify(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sympy, "lambdify", counting_lambdify)
    x = np.array([0.8, 0.3])
    B = base_lie_bracket(X, Y)
    B.at(x)
    assert len(calls) == 1
    B.jacobian_at(x)
    B.jacobian_at(x)
    assert len(calls) == 2
