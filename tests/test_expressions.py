import contextlib
import gc
import inspect
import linecache
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import sympy
import sympy.printing.codeprinter
import sympy.printing.str
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.precedence import PRECEDENCE_FUNCTIONS
from sympy.printing.printer import Printer

from tanlift import (
    ChartManifold,
    ExpressionError,
    NumericalError,
    base_lie_bracket,
    builtin_manifold,
    fiber_dynamics_from_expressions,
    field_from_expressions,
    load_scenario,
)
from tanlift import expressions
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


@pytest.mark.parametrize(
    "src, message",
    [
        ("(x1 + 2", "expected ')' (at position 7)"),
        ("pow(x1, 2", "expected ')' (at position 9)"),
        ("x1 2", "unexpected '2' (at position 2)"),
        ("x1)", "unexpected ')' (at position 2)"),
    ],
)
def test_an_unclosed_parenthesis_or_a_trailing_token_is_a_parse_error(src, message):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src, chart_symbols(2))
    assert str(err.value) == message


def test_unary_plus_leaves_its_operand_as_it_is():
    assert parse_expression("+x1", chart_symbols(2)) == chart_symbols(2)["x1"]
    assert _value("-+x1 * +3", x1=2.0) == -6.0


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
        # Not constant, but it holds 10**400, which no float holds.
        ("x1*pow(10, 200)*pow(10, 200)", 15),
        ("x1/pow(2, -1074)", 2),
        # Not constant, but it holds the Float 1e400 or 1e320.
        ("x1*1e200*1e200", 8),
        ("x1/1e-320", 2),
        # sympy folds it to x1*exp(710), which no float holds.
        ("x1*exp(700)*exp(10)", 11),
    ],
)
def test_number_out_of_float_range_is_a_parse_error(src, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src, chart_symbols(2))
    assert str(err.value) == f"result is undefined or out of the float range (at position {pos})"


@pytest.mark.parametrize(
    "src, value, pos",
    [
        # A Float over a Float zero raises ZeroDivisionError inside sympy.
        ("x1 + 0.0/0.0", "nan", 8),
        ("-1.5/0.0*x2", "zoo", 4),
        ("2.0/(-0.0)", "zoo", 3),
        ("0/0.0", "nan", 1),
    ],
)
def test_division_by_zero_is_a_parse_error(src, value, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src, chart_symbols(2))
    assert str(err.value) == f"undefined value {value} (division by zero) (at position {pos})"


@pytest.mark.parametrize(
    "src, pos",
    [
        ("x1 + pow(-2, 0.5)", 5),
        ("pow(-8, 1/3)*x2", 0),
        ("x2*sin(pow(-1, 0.25) + 1)", 7),
        # The complex exponent is rejected before 0 is raised to it.
        ("exp(pow(0, pow(-2, exp(1))))", 11),
        # Not constant, but sympy writes it with (-1)**(1/3).
        ("pow(-exp(x1), 1/3)", 0),
        ("x2 + sin(x1)*pow(-exp(x1), 1/3)", 13),
        # Both parts are finite floats, though its modulus is past the float maximum.
        ("pow(-2, 1024.25)", 0),
    ],
)
def test_non_real_constant_is_a_parse_error(src, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src, chart_symbols(2))
    assert str(err.value) == f"result is not a real number (at position {pos})"


@pytest.mark.parametrize("src", ["pow(-2, 2)", "pow(-8, 3.0)", "pow(-2, -1)*x1", "pow(pow(-2, 2), 0.5)"])
def test_a_real_power_of_a_negative_constant_parses(src):
    assert parse_expression(src, chart_symbols(2)).is_real


@pytest.mark.parametrize("src", ["pow(-x1, 1/3)", "pow(-2, x2)", "x1*pow(10, 200)*pow(10, -200)"])
def test_a_power_that_is_not_constant_parses_with_its_constants_in_range(src):
    assert not parse_expression(src, chart_symbols(2)).is_number


def test_a_constant_beyond_the_float_range_formed_by_differentiation_is_a_numerical_error(r2):
    # The parsed field is in range, but d/dx1 of N*x1*sin(N*x1) has N**2 = 10**400.
    N = 10**200
    Y = field_from_expressions(r2, [f"{N}*x1*sin({N}*x1)", "1"], "Y")
    X = field_from_expressions(r2, ["1", "0"], "X")
    assert np.isfinite(Y.at([1.0, 0.5])).all()
    with pytest.raises(NumericalError, match=r"^Jacobian of field 'Y' has a constant beyond the float range$"):
        Y.jacobian_at([1.0, 0.5])
    # J_Y X - J_X Y, whose first entry has N**2 too.
    with pytest.raises(NumericalError, match=r"^field '\[X,Y\]' has a constant beyond the float range$"):
        base_lie_bracket(X, Y)


def test_a_float_constant_is_held_to_the_float_range_by_its_exponent(r2, monkeypatch):
    x1, x2 = chart_symbols(2).values()
    largest = sympy.Float(sys.float_info.max)
    assert expressions._unfit_constant([largest * x1, 1.5 * sympy.sin(1e-300 * x2)]) is None
    assert expressions._unfit_constant([x2, 2 * largest * x1]) == "beyond the float range"
    # d/dx1 of 1e308*x1**3 has 3.0e308, past the largest float.
    Y = field_from_expressions(r2, ["0", "1e308*pow(x1, 3)"], "Y")
    assert np.isfinite(Y.at([1.0, 0.5])).all()
    with pytest.raises(NumericalError, match=r"^Jacobian of field 'Y' has a constant beyond the float range$"):
        Y.jacobian_at([1.0, 0.5])
    # A Float the exponent screen passes is neither converted nor hashed;
    # the largest float, at the screen's edge, is converted once.
    entries = [0.5 * sympy.sin(x1) + 2.5 * x2 * sympy.cos(1.5 * x1), largest * x2]
    touched = []
    for name in ("__float__", "__hash__"):
        method = getattr(sympy.Float, name)
        counted = lambda self, name=name, method=method: touched.append(name) or method(self)  # noqa: E731
        monkeypatch.setattr(sympy.Float, name, counted)
    assert expressions._unfit_constant(entries) is None
    assert touched == ["__float__"]


_MAX_INT = int(sys.float_info.max)


@pytest.mark.parametrize(
    "src",
    ["1.7976931348623157e308*1", f"x1*{_MAX_INT}", f"{_MAX_INT}"],
    ids=["largest-float-times-one", "x1-times-the-largest-integer", "the-largest-integer"],
)
def test_a_constant_that_rounds_to_the_largest_float_parses_compiles_and_evaluates(r2, src):
    Y = field_from_expressions(r2, [src, "x2"], "Y")
    assert Y.at([1.0, 0.5]).tolist() == [sys.float_info.max, 0.5]
    assert np.isfinite(Y.jacobian_at([1.0, 0.5])).all()


# Halfway between the float maximum and 2**1024: p / q rounds to inf from here up.
_HALFWAY = 2**1024 - 2**970


@settings(deadline=None, max_examples=100, derandomize=True)
@given(q=st.integers(1, 2**64), offset=st.integers(-(2**975), 2**975), sign=st.sampled_from([1, -1]))
def test_a_rational_is_fit_exactly_when_python_rounds_it_to_a_float(q, offset, sign):
    p = sign * (_HALFWAY * q + offset)
    try:
        p / q
    except OverflowError:
        expected = "beyond the float range"
    else:
        expected = None
    assert expressions._unfit_constant([sympy.Rational(p, q)]) == expected


def test_a_non_real_constant_sympy_forms_is_a_parse_error_or_a_numerical_error(r2):
    # sympy writes pow(-exp(x1), 1/3) as (-1)**(1/3)*exp(x1/3), and
    # pow(-exp(y1), 0.5) as 1.0*I*exp(0.5*y1); the parser rejects both at the pow.
    with pytest.raises(ExpressionError, match=r"^result is not a real number \(at position 0\)$"):
        field_from_expressions(r2, ["x2", "pow(-exp(x1), 1/3)"], "Z")
    with pytest.raises(ExpressionError, match=r"^result is not a real number \(at position 0\)$"):
        fiber_dynamics_from_expressions(r2, ["pow(-exp(y1), 0.5)", "y2"], control_dim=0)
    # d/dx2 of pow(-2, x2) has log(-2), which sympy writes as log(2) + I*pi.
    Y = field_from_expressions(r2, ["0", "x1 + pow(-2, x2)"], "Y")
    X = field_from_expressions(r2, ["0", "1"], "X")
    with pytest.raises(NumericalError, match=r"^Jacobian of field 'Y' has a constant that is not real$"):
        Y.jacobian_at([1.0, 0.5])
    # J_Y X - J_X Y is the second column of J_Y.
    with pytest.raises(NumericalError, match=r"^field '\[X,Y\]' has a constant that is not real$"):
        base_lie_bracket(X, Y)


@pytest.mark.parametrize("factor", ["", "exp(1)*"], ids=["plain", "times-e"])
def test_the_constant_walk_of_a_parse_visits_each_node_it_forms_once(monkeypatch, factor):
    # A walk of each operator's whole result visits 4x as many nodes when
    # the number of terms doubles; one of only the nodes an operator forms, 2x.
    visits = []
    walk = expressions._unfit_node
    monkeypatch.setattr(expressions, "_unfit_node", lambda node, fit: visits.append(node) or walk(node, fit))

    def visited(terms):
        visits.clear()
        parse_expression(" + ".join(f"{factor}sin({k}*x1)" for k in range(2, terms + 2)), chart_symbols(1))
        return len(visits)

    assert visited(200) <= 2.2 * visited(100)


def test_the_compiled_caller_runs_power_free_entries_on_the_values_given_and_powers_on_numpy_scalars():
    x1, x2 = chart_symbols(2).values()
    power_free = expressions._compile(expressions._printer(), [x1, x2], [x1 * x2 - 1], "f")
    powered = expressions._compile(expressions._printer(), [x1, x2], [x1 / x2], "g")
    assert [type(v) for v in power_free([2.0, 3.0])] == [float]
    assert [type(v) for v in powered([2.0, 3.0])] == [np.float64]
    # On Python floats 1/0.0 raises ZeroDivisionError; on numpy scalars it is inf.
    with np.errstate(divide="ignore"):
        assert powered([1.0, 0.0]) == [np.inf]


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


def _grammar(variables, depth=8, literals=("2", "0.5", "0.1", "0.10000000000000000000001", "1.000000000000000000000")):
    """Coefficient expressions over ``variables`` and ``literals``, nesting up to ``depth`` tree levels."""
    literals = st.sampled_from(literals)
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
    # A drawn division by zero, or a constant out of the float range or not
    # real: sympy writes pow(-exp(x1), -0.4) with (-1)**(-0.4), which is complex.
    except (ExpressionError, NumericalError):
        reject()


_SOURCE_IDENTITY = settings(deadline=None, max_examples=40, phases=(Phase.explicit, Phase.reuse, Phase.generate))


@_SOURCE_IDENTITY
@given(st.lists(_grammar(["x1", "x2"]), min_size=2, max_size=2))
def test_drawn_field_and_kernel_compile_to_plain_lambdify_source(exprs):
    r2 = builtin_manifold("R2")

    def build():
        X = _parsed(lambda: field_from_expressions(r2, exprs, "X"))
        _parsed(lambda: _compile_kernels([X]))

    assert _compiles_as_plain_lambdify(build) == 2


@_SOURCE_IDENTITY
@given(st.lists(_grammar(["x1", "x2", "y1", "y2", "u1"]), min_size=2, max_size=2))
def test_drawn_fiber_dynamics_compile_to_plain_lambdify_source(exprs):
    r2 = builtin_manifold("R2")

    def build():
        _parsed(lambda: fiber_dynamics_from_expressions(r2, exprs, control_dim=1))

    assert _compiles_as_plain_lambdify(build) == 1


# Within a few ulps of the float maximum, as Floats and as Integers.
# 1.7976931348623158e308 and the last Integer are past it but round to
# it; the next Integer up would round to inf.
_NEAR_MAX = [
    repr(sys.float_info.max),
    repr(math.nextafter(sys.float_info.max, 0.0)),
    "1.7976931348623158e308",
    str(_MAX_INT),
    str(_MAX_INT - 2**971),
    str(_MAX_INT + 2**969 - 1),
]


@settings(deadline=None, max_examples=60, derandomize=True, phases=(Phase.explicit, Phase.generate))
@given(st.lists(_grammar(["x1", "x2"], depth=4, literals=("2", "0.5", *_NEAR_MAX)), min_size=2, max_size=2))
def test_a_field_whose_entries_parse_passes_the_compile_gate(exprs):
    # The parser and the compile gate hold constants to one rule.
    table = chart_symbols(2)
    try:
        for src in exprs:
            parse_expression(src, table)
    except ExpressionError:
        return
    field_from_expressions(builtin_manifold("R2"), exprs, "X")


def test_long_float_jacobian_compiles_to_plain_lambdify_source(r2):
    # The coefficient prints the nested 0.1 stripped; the Jacobian entry 0.1
    # is top-level and prints in full, so the memo must tell the two apart.
    def build():
        _compile_kernels([field_from_expressions(r2, ["0.10000000000000000000001*x1 + 0.1*x2", "x1"])])

    assert _compiles_as_plain_lambdify(build) == 2


# Cases of each rule the source printer follows: the sum a number opens,
# a Rational or negative coefficient, a product with a denominator of two
# factors, two terms alike but for a NumberSymbol coefficient, a long Float
# at the top and nested, and the Abs (no Add or Mul) sympy writes for
# pow(pow(x1, 2), 0.5).
@pytest.mark.parametrize(
    "exprs",
    [
        ["1 - 2.5*x1", "x2"],
        ["(1/2)*x1", "-x1/2"],
        ["1/(x1*sin(x1))", "pow(x1, -1)"],
        ["exp(1)*x1 + x1", "x1 + exp(1)*x1*x2"],
        ["1.000000000000000000000", "1.000000000000000000000*x1 + sin(1.000000000000000000000*x2)"],
        ["pow(pow(x1, 2), 0.5)", "x2"],
    ],
)
def test_a_printing_case_compiles_to_plain_lambdify_source(r2, exprs):
    def build():
        _compile_kernels([field_from_expressions(r2, exprs, "X")])

    assert _compiles_as_plain_lambdify(build) == 2


def test_sums_whose_generators_sort_keys_do_not_compare_compile_to_plain_lambdify_source(r2):
    # The sort keys of x2 + k.5 and 1.0*x2 + sin(k*x1) are neither equal nor
    # one less (1 against 1.0), so the order of each sum's terms is the order
    # in which sympy's set of generators yields them, which moves with the
    # hash seed.  A printer that collects the generators otherwise printed 3
    # to 8 of these twelve sums in another order under each of ten seeds.
    def build():
        exprs = [f"x1*(x2 + {k}.5) + x1*pow(1.0*x2 + sin({k}*x1), 2)" for k in range(1, 13)]
        _compile_kernels([field_from_expressions(r2, [src, "x2"], "X") for src in exprs])

    assert _compiles_as_plain_lambdify(build) == 24


def test_a_bracket_holding_a_nan_compiles_to_plain_lambdify_source(r2):
    # The Jacobian of pow(0, x1) holds log(0) = zoo, and 0*zoo in J_Y X is nan.
    def build():
        X = field_from_expressions(r2, ["0", "x2"], "X")
        Y = field_from_expressions(r2, ["pow(0, x1)", "x1"], "Y")
        B = base_lie_bracket(X, Y)
        assert any(entry.has(sympy.nan) for entry in B.sym[0])
        _compile_kernels([X, Y, B])

    assert _compiles_as_plain_lambdify(build) == 6


def _chart_and_two_fields():
    """A chart dimension, 2 or 3, and the coefficients of two fields over its variables."""

    def fields(dim):
        variables = [f"x{i + 1}" for i in range(dim)]
        return st.tuples(st.just(dim), st.lists(_grammar(variables, depth=4), min_size=2 * dim, max_size=2 * dim))

    return st.sampled_from([2, 3]).flatmap(fields)


_JACOBIAN_CASES = [
    (2, ["pow(pow(x1, 2), 0.5)", "x2", "x2", "sin(x1)"]),  # Abs: left to sympy's diff
    (2, ["pow(x1, x2)", "x1", "cos(x2)", "x1*x2"]),  # a log from the exponent
    (2, ["exp(1)*x1", "x2", "x2", "exp(x1)"]),
    (3, ["x2*x3", "sin(x1)", "pow(x3, -1.5)", "x2", "exp(x1)*cos(x3)", "x1*x2*x3"]),
]


def _field_and_bracket(case):
    """The first drawn field, the second, and their ``base_lie_bracket``."""
    dim, exprs = case
    chart = ChartManifold(dim=dim, name=f"R{dim}")
    X = _parsed(lambda: field_from_expressions(chart, exprs[:dim], "X"))
    Y = _parsed(lambda: field_from_expressions(chart, exprs[dim:], "Y"))
    try:
        return X, Y, base_lie_bracket(X, Y)
    except NumericalError:  # a drawn constant beyond the float range
        reject()


def _with_examples(test):
    for case in _JACOBIAN_CASES:
        test = example(case)(test)
    return test


@_SOURCE_IDENTITY
@_with_examples
@given(_chart_and_two_fields())
def test_a_field_and_its_bracket_carry_sympys_own_jacobian(case):
    # Catches, among others, the Mul rule written as Mul._eval_derivative's
    # reduce over the factors instead of the Leibniz terms of
    # Mul._eval_derivative_n_times: the same derivative, a different tree.
    for F in _field_and_bracket(case):
        column, args, jacobian = F.sym
        assert sympy.srepr(sympy.Matrix(jacobian())) == sympy.srepr(sympy.Matrix(column).jacobian(args))


def _sympys_bracket_column(X, Y):
    """J_Y X - J_X Y by sympy's own matrix product, from the operands' payloads."""
    col_x, _, jac_x = X.sym
    col_y, _, jac_y = Y.sym
    return sympy.Matrix(jac_y()) * sympy.Matrix(col_x) - sympy.Matrix(jac_x()) * sympy.Matrix(col_y)


@settings(deadline=None, max_examples=40, derandomize=True, phases=(Phase.explicit, Phase.generate))
# Entries 0, 0.0 and 0.0*x1 + x2 decide which products a column keeps.
@example((2, ["0", "x2", "2*x1", "x1*x2"]))
@example((2, ["0.0", "x2", "2*x1", "0.0*x1 + x2"]))
@example((2, ["0.0*x1 + x2", "0.0", "x1*x2", "0"]))
# 0 times the nan in the Jacobian of pow(0, x1) is nan in sympy's product.
@example((2, ["0", "x2", "pow(0, x1)", "x1"]))
# -(-x2**0.0) is 1 in sympy's product, which negates by * -1.
@example((2, ["x1", "1", "-pow(x2, 0.0)", "-1.0"]))
@_with_examples
@given(_chart_and_two_fields())
def test_a_bracket_column_is_sympys_own_matrix_product(case):
    # Depths 1-3: [X, Y], [X, [X, Y]] and [X, [X, [X, Y]]].
    X, operand, B = _field_and_bracket(case)
    for depth in (1, 2, 3):
        assert sympy.srepr(sympy.Matrix(B.sym[0])) == sympy.srepr(_sympys_bracket_column(X, operand)), depth
        if depth < 3:
            try:
                operand, B = B, base_lie_bracket(X, B)
            except NumericalError:  # a constant beyond the float range or not real
                return


def _compiled_kernel(F):
    """The function ``F.kernel`` compiles on its first call."""
    plain = sympy.lambdify
    compiled = []

    def recording(*args, **kwargs):
        compiled.append(plain(*args, **kwargs))
        return compiled[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sympy, "lambdify", recording)
        # Evaluating it may fail, e.g. on the DiracDelta numpy has no name for.
        with np.errstate(all="ignore"), contextlib.suppress(ArithmeticError, NameError):
            F.kernel(np.linspace(0.3, 0.7, F.manifold.dim))
    (kernel,) = compiled
    return kernel


@_SOURCE_IDENTITY
@_with_examples
@given(_chart_and_two_fields())
def test_a_field_and_its_bracket_compile_sympys_own_jacobian(case):
    # The kernel against plain lambdify of sympy's own Jacobian, not of the
    # entries the kernel was handed as _compiles_as_plain_lambdify checks.
    X, _, B = _field_and_bracket(case)
    for F in (X, B):
        column, args, _ = F.sym
        try:
            kernel = _compiled_kernel(F)
        except NumericalError:  # a constant beyond the float range in the Jacobian
            reject()
        expected = sympy.lambdify(args, list(column) + list(sympy.Matrix(column).jacobian(args)), modules="numpy")
        assert inspect.getsource(kernel) == inspect.getsource(expected)


@_SOURCE_IDENTITY
@_with_examples
@given(_chart_and_two_fields())
def test_drawn_fields_and_their_brackets_to_depth_3_compile_to_plain_lambdify_source(case):
    # [X, Y], [X, [X, Y]] and [X, [X, [X, Y]]] compile their columns; X, Y
    # and [X, Y] their kernels too, as _compile_kernels does on R2.
    def build():
        X, operand, B = _field_and_bracket(case)
        with np.errstate(all="ignore"):
            for F in (X, operand, B):
                with contextlib.suppress(ArithmeticError, NameError, NumericalError):
                    F.kernel(np.linspace(0.3, 0.7, F.manifold.dim))
        with contextlib.suppress(NumericalError):  # a constant beyond the float range or not real
            for _ in range(2):
                B = base_lie_bracket(X, B)

    assert _compiles_as_plain_lambdify(build) >= 3


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_fields_and_brackets_compile_to_plain_lambdify_source(path):
    def build():
        fields = list(load_scenario(path).fields.values())
        depth1 = [base_lie_bracket(A, B) for A in fields for B in fields if A is not B]
        depth2 = [base_lie_bracket(A, B) for A in fields for B in depth1]
        _compile_kernels(fields + depth1 + depth2)

    assert _compiles_as_plain_lambdify(build) > 0


def _sympys_sum_and_product_printing_raises(monkeypatch):
    """Make the steps of sympy's own Add and Mul printers raise, where the printers look them up."""

    def fallback(*args, **kwargs):
        raise AssertionError("a sum or product went to sympy's printer")

    # StrPrinter._print_Add orders terms by Printer._as_ordered_terms, that
    # is Expr.as_ordered_terms; CodePrinter._print_Mul forms the positive
    # product by the _keep_coeff it imports from sympy.core.mul.  sympy's
    # own sort_key of a sum calls Expr.as_ordered_terms; that is not printing.
    monkeypatch.setattr(Printer, "_as_ordered_terms", fallback)
    monkeypatch.setattr(sympy.printing.codeprinter, "_keep_coeff", fallback)
    monkeypatch.setattr(sympy.printing.str, "_keep_coeff", fallback)
    monkeypatch.setitem(PRECEDENCE_FUNCTIONS, "Mul", fallback)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_fields_kernels_and_brackets_print_without_sympys_sum_and_product_printers(path, monkeypatch):
    compiled = []
    compile_once = expressions._compile

    def direct(*args):
        with pytest.MonkeyPatch.context() as patch:
            _sympys_sum_and_product_printing_raises(patch)
            compiled.append(compile_once(*args))
        return compiled[-1]

    monkeypatch.setattr(expressions, "_compile", direct)
    fields = list(load_scenario(path).fields.values())
    depth1 = [base_lie_bracket(A, B) for A in fields for B in fields if A is not B]
    depth2 = [base_lie_bracket(A, B) for A in fields for B in depth1]
    with np.errstate(all="ignore"):
        for F in fields + depth1 + depth2:
            with contextlib.suppress(ArithmeticError):
                F.kernel(np.linspace(0.3, 0.7, F.manifold.dim))
    # Each field and bracket compiles twice; a scenario may hold fiber dynamics too.
    assert len(compiled) >= 2 * len(fields + depth1 + depth2)


def test_the_sympy_printer_steps_made_to_raise_are_the_ones_its_printer_takes(monkeypatch):
    # The check above would pass vacuously if sympy printed without them.
    x1, x2 = chart_symbols(2).values()
    _sympys_sum_and_product_printing_raises(monkeypatch)
    plain = NumPyPrinter()
    for expr in (x1 + x2, -2 * x1 * x2):
        with pytest.raises(AssertionError, match="sympy's printer"):
            plain.doprint(expr)
    assert expressions._printer().doprint(x1 - 2 * x1 * x2) == "-2*x1*x2 + x1"


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


def test_a_field_releases_its_printer_once_its_kernel_is_compiled(r2, monkeypatch):
    # The memoized printer holds every printed sub-tree; only the kernel's
    # compile still needs it after the coefficients are compiled.
    printers = []
    make = expressions._printer
    monkeypatch.setattr(expressions, "_printer", lambda: printers.append(make()) or printers[-1])
    X = field_from_expressions(r2, ["x2*sin(x1)", "cos(x1*x2)"], "X")
    printer = weakref.ref(printers.pop())
    gc.collect()
    assert printer() is not None
    X.kernel(np.array([0.3, 0.7]))
    gc.collect()
    assert printer() is None
    # The compiled kernel still serves every later Jacobian.
    expected = [[0.7 * np.cos(0.3), np.sin(0.3)], [-0.7 * np.sin(0.21), -0.3 * np.sin(0.21)]]
    assert np.allclose(X.jacobian_at(np.array([0.3, 0.7])), expected, rtol=1e-15)
