import contextlib
import gc
import inspect
import linecache
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import Phase, given, reject, settings
from hypothesis import strategies as st

from tanlift import (
    ExpressionError,
    base_lie_bracket,
    builtin_manifold,
    fiber_dynamics_from_expressions,
    field_from_expressions,
    load_scenario,
)
from tanlift.expressions import _MAX_NESTING, chart_symbols, parse_expression

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


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


def _reciprocal_chain(calls):
    """``1/sin(x2 + x1/sin(...))`` with ``calls`` nested calls, about four tree levels each."""
    return "1/sin(x2 + x1/" * (calls - 1) + "sin(x2)" + ")" * (calls - 1)


def test_nesting_at_the_limit_compiles_with_its_jacobian(r2):
    X = field_from_expressions(r2, [_reciprocal_chain(_MAX_NESTING), "x1"], "X")
    value, jac = X.value_and_jacobian(np.array([0.3, 0.2]))
    assert np.isfinite(value).all() and np.isfinite(jac).all()


@pytest.mark.parametrize(
    "src, pos",
    [
        ("(" * 400 + "x1" + ")" * 400, _MAX_NESTING),
        ("-" * 1500 + "x1", _MAX_NESTING),
        ("sin(" * 150 + "x1" + ")" * 150, 4 * _MAX_NESTING),
        ("-(" * 13 + "x1" + ")" * 13, _MAX_NESTING),
        (_reciprocal_chain(_MAX_NESTING + 1), 14 * _MAX_NESTING),
    ],
)
def test_nesting_past_the_limit_is_a_parse_error(src, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src, chart_symbols(2))
    assert err.value.position == pos
    assert str(err.value) == f"expression nests deeper than {_MAX_NESTING} levels (at position {pos})"


@pytest.mark.parametrize(
    "src, pos",
    [
        # Computed exactly, 2**(3**27) would not finish.
        ("pow(2, pow(3, pow(3, 3)))", 0),
        ("pow(2, -pow(3, pow(3, 3)))", 0),
        ("pow(2, 1024)", 0),
        # sin of a Float this large would not finish.
        ("sin(exp(exp(pow(0.1, -1.5))))", 4),
        ("x1 + exp(1000.0)", 5),
        ("1e300*1e300", 5),
        ("1.7e308 + 1.7e308", 8),
        # 0 to a power whose real part sympy cannot sign: undefined.
        ("exp(pow(0, pow(-2, exp(1))))", 4),
    ],
)
def test_number_out_of_float_range_is_a_parse_error(src, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src, chart_symbols(2))
    assert str(err.value) == f"result is undefined or out of the float range (at position {pos})"


def test_exact_power_within_float_range_is_exact():
    assert parse_expression("pow(2, 1023)", chart_symbols(2)) == sympy.Integer(2) ** 1023
    assert parse_expression("pow(2, -1074)", chart_symbols(2)) == sympy.Rational(1, 2**1074)


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


def _compiles_as_plain_lambdify(build) -> int:
    """Run ``build()`` and check each function it compiles against plain lambdify.

    The source text of every function compiled during ``build()`` must
    equal that of ``sympy.lambdify(args, exprs, modules="numpy")`` on the
    same arguments.  Returns how many functions were compiled.
    """
    plain = sympy.lambdify
    compiled = []

    def recording(args, exprs, **kwargs):
        compiled.append((args, exprs, plain(args, exprs, **kwargs)))
        return compiled[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sympy, "lambdify", recording)
        build()
    for args, exprs, func in compiled:
        assert inspect.getsource(func) == inspect.getsource(plain(args, exprs, modules="numpy"))
    return len(compiled)


def _compile_kernels(fields):
    # Compiling the kernel is what counts here, not the numbers it returns:
    # a drawn pow(negative, fractional) can make Python's complex ** overflow.
    with np.errstate(all="ignore"):
        for X in fields:
            with contextlib.suppress(ArithmeticError):
                X.kernel(np.array([0.3, 0.7]))


def _grammar(variables, depth=8):
    """Coefficient expressions over ``variables``, nesting up to ``depth`` tree levels."""
    literals = st.sampled_from(["2", "0.5", "0.1", "0.10000000000000000000001", "1.000000000000000000000"])
    leaves = st.one_of(literals, st.sampled_from([*variables, "exp(1)"]))
    exponents = st.sampled_from(["-2", "-1", "0.5", "-1.5", "1/3", "3", *variables])
    tree = leaves
    for _ in range(depth):
        inner = tree
        # A leaf as often as a compound keeps most draws small enough that
        # a literal shows up both nested and as a whole Jacobian entry.
        tree = st.one_of(
            leaves,
            st.one_of(
                st.builds("sin({})".format, inner),
                st.builds("cos({})".format, inner),
                st.builds("exp({})".format, inner),
                st.builds("pow({}, {})".format, inner, st.one_of(exponents, inner)),
                st.builds("(-{})".format, inner),
                st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
                st.builds("({}*{} + {})".format, literals, st.sampled_from(variables), inner),
            ),
        )
    return tree


def _parsed(build):
    try:
        return build()
    except ExpressionError:  # a drawn division by zero or out-of-range constant
        reject()


_SOURCE_IDENTITY = settings(deadline=None, max_examples=40, phases=(Phase.explicit, Phase.reuse, Phase.generate))


@_SOURCE_IDENTITY
@given(st.lists(_grammar(["x1", "x2"]), min_size=2, max_size=2))
def test_drawn_field_and_kernel_compile_to_plain_lambdify_source(exprs):
    r2 = builtin_manifold("R2")

    def build():
        _compile_kernels([_parsed(lambda: field_from_expressions(r2, exprs, "X"))])

    assert _compiles_as_plain_lambdify(build) == 2


@_SOURCE_IDENTITY
@given(st.lists(_grammar(["x1", "x2", "y1", "y2", "u1"]), min_size=2, max_size=2))
def test_drawn_fiber_dynamics_compile_to_plain_lambdify_source(exprs):
    r2 = builtin_manifold("R2")

    def build():
        _parsed(lambda: fiber_dynamics_from_expressions(r2, exprs, control_dim=1))

    assert _compiles_as_plain_lambdify(build) == 1


def test_long_float_jacobian_compiles_to_plain_lambdify_source(r2):
    # The coefficient prints the nested 0.1 stripped; the Jacobian entry 0.1
    # is top-level and prints in full, so the memo must tell the two apart.
    def build():
        _compile_kernels([field_from_expressions(r2, ["0.10000000000000000000001*x1 + 0.1*x2", "x1"])])

    assert _compiles_as_plain_lambdify(build) == 2


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_fields_and_brackets_compile_to_plain_lambdify_source(path):
    def build():
        fields = list(load_scenario(path).fields.values())
        depth1 = [base_lie_bracket(A, B) for A in fields for B in fields if A is not B]
        depth2 = [base_lie_bracket(A, B) for A in fields for B in depth1]
        _compile_kernels(fields + depth1 + depth2)

    assert _compiles_as_plain_lambdify(build) > 0


def test_dropped_fields_release_their_generated_source(r2):
    # lambdify files each generated function in linecache until that function
    # is collected; the per-field printer's reference cycle must not keep it.
    X = field_from_expressions(r2, ["x2", "sin(x1)"], "X")
    gc.collect()
    before = len(linecache.cache)
    fields = [
        base_lie_bracket(X, field_from_expressions(r2, [f"{k}*x1*x2", "cos(x2)"], "Y"))
        for k in range(100)
    ]
    _compile_kernels(fields)
    assert len(linecache.cache) >= before + 200
    del fields
    gc.collect()
    assert len(linecache.cache) == before
