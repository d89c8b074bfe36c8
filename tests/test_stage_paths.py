"""The per-stage fast paths of RK4: the chart check on Python floats and power-free kernels on floats.

Each path must give what the general path gives, bit for bit, and every
stage must still go through ``ChartManifold.check_floats`` once.  Each
stage's derivative reaches the RK4 state as a list of Python floats.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tanlift import (
    ChartDomainError,
    ChartManifold,
    ControlSignal,
    LiftedSystem,
    NumericalError,
    base_lie_bracket,
    builtin_manifold,
    fiber_dynamics_from_expressions,
    field_from_callable,
    field_from_expressions,
    flow,
    simulate_lifted_ode,
)
from tanlift import flows
from tanlift.expressions import chart_symbols, parse_expression
from tanlift.flows import DEFAULT_CONFIG, flow_segments
from tanlift.manifold import numeric_jacobian

CHARTS = {
    "R2": builtin_manifold("R2"),
    "S2-spherical": builtin_manifold("S2-spherical"),
    "mixed3": ChartManifold(dim=3, name="mixed3", bounds=([-1.0, -np.inf, 0.0], [2.5, 1.0, np.inf])),
}


def _edges(chart):
    """Each finite bound, its float neighbours, signed zeros and the non-finite values."""
    bounds = {b for side in chart.bounds for b in side.tolist() if np.isfinite(b)}
    near = {np.nextafter(b, d) for b in bounds for d in (-np.inf, np.inf)}
    return sorted(bounds | near | {0.0, -0.0, 1.0}) + [np.nan, np.inf, -np.inf]


@st.composite
def _coordinates(draw):
    """A chart and raw coordinates for it, in each form ``check`` accepts."""
    name = draw(st.sampled_from(sorted(CHARTS)))
    chart = CHARTS[name]
    value = st.sampled_from(_edges(chart)) | st.floats(-3.0, 3.0) | st.floats(allow_nan=True, allow_infinity=True)
    values = draw(st.lists(value, min_size=chart.dim, max_size=chart.dim))
    form = draw(st.sampled_from(["float64", "strided", "read-only", "list", "ints", "float32", "row"]))
    if form == "float64":
        return chart, np.array(values)
    if form == "strided":
        return chart, np.repeat(values, 2)[::2]
    if form == "read-only":
        arr = np.array(values)
        arr.setflags(write=False)
        return chart, arr
    if form == "list":
        return chart, values
    if form == "ints":
        return chart, [int(v) if np.isfinite(v) else v for v in values]
    with np.errstate(over="ignore"):
        return chart, (np.array(values, dtype=np.float32) if form == "float32" else np.array([values]))


def _outcome(call):
    try:
        return "accepted", call()
    except ChartDomainError as err:
        return str(err), err.coords


@settings(max_examples=600, deadline=None)
@given(_coordinates())
def test_check_accepts_and_rejects_as_in_domain_with_the_same_message(drawn):
    chart, coords = drawn
    arr = np.asarray(coords, dtype=float).reshape(-1)
    status, out = _outcome(lambda: chart.check(coords))
    if chart.in_domain(arr):
        assert status == "accepted"
    else:
        assert status == f"coordinates {arr.tolist()} outside the domain of chart '{chart.name}'"
    assert out.dtype == np.float64 and out.shape == (chart.dim,)
    if type(coords) is np.ndarray and coords.dtype == np.float64 and coords.shape == (chart.dim,):
        # A writable, read-only or strided float64 vector is returned, or carried by the error, as it is.
        assert out is coords
    assert np.array_equal(out, arr, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(arr))


@settings(max_examples=300, deadline=None)
@given(_coordinates())
def test_check_floats_is_the_domain_test_of_check(drawn):
    """On a stage point's Python floats, ``check_floats`` accepts and rejects as ``check`` does."""
    chart, coords = drawn
    values = np.asarray(coords, dtype=float).reshape(-1).tolist()
    status, out = _outcome(lambda: chart.check(values))
    if status == "accepted":
        assert chart.check_floats(values) is None
    else:
        with pytest.raises(ChartDomainError) as caught:
            chart.check_floats(values)
        assert str(caught.value) == status
        assert np.array_equal(caught.value.coords, out, equal_nan=True)
        assert np.array_equal(np.signbit(caught.value.coords), np.signbit(out))


# Terms whose kernels have no power: a product names two distinct
# coordinates, so neither it nor its derivatives square a factor.
_TERMS = st.sampled_from(
    [
        "{c}*sin(x{a})",
        "{c}*cos(x{b})",
        "{c}*exp({c}*x{a})",
        "{c}*x{a}*x{b}",
        "sin(x{a})*cos(x{b})",
        "{c}*sin(x{a}*x{b} + {c})",
        "exp(sin(x{a}))*x{b}",
        "{c}*x{a}*sin(x{b})*cos(x{a})",
    ]
)


@st.composite
def _power_free_field(draw):
    def term():
        a = draw(st.sampled_from([1, 2]))
        pattern = draw(_TERMS)
        return pattern.format(c=f"{draw(st.floats(-2.0, 2.0)):.4f}", a=a, b=3 - a)

    return [" + ".join(term() for _ in range(draw(st.integers(1, 3)))) for _ in range(2)]


def _kernel_has_powers(X) -> bool:
    column, _, jacobian = X.sym
    return sympy.Matrix(column).has(sympy.Pow) or sympy.Matrix(jacobian()).has(sympy.Pow)


@settings(max_examples=40, deadline=None)
@given(
    exprs=st.lists(_power_free_field(), min_size=2, max_size=2),
    points=st.lists(st.tuples(st.floats(-400.0, 400.0), st.floats(-3.0, 3.0)), min_size=1, max_size=5),
)
def test_power_free_kernels_give_the_same_bits_on_floats_as_on_numpy_scalars(exprs, points):
    """A power-free kernel runs on Python floats; brackets, often with powers, run either way.

    The reference is plain ``lambdify`` of the same entries called on numpy
    scalars.  Points reach |x1| = 400, where exp overflows to inf and inf
    times 0 is NaN on either side.
    """
    r2 = builtin_manifold("R2")
    fields = [field_from_expressions(r2, src, f"X{i}") for i, src in enumerate(exprs)]
    assert not any(map(_kernel_has_powers, fields))
    fields.append(base_lie_bracket(*fields))
    for X in fields:
        column, args, jacobian = X.sym
        reference = sympy.lambdify(args, list(column) + list(sympy.Matrix(jacobian())), modules="numpy")
        for point in points:
            x = np.array(point)
            with np.errstate(all="ignore"):
                assert np.array_equal(
                    np.array(X.kernel(x), dtype=float), np.array(reference(*x), dtype=float), equal_nan=True
                )


# Fiber dynamics terms over x, y and u without a power, as above.
_DYNAMICS_TERMS = st.sampled_from(
    [
        "{c}*y{a}",
        "{c}*x{a}*y{b}",
        "sin(x{a})*y{b}",
        "{c}*u1*cos(x{b})",
        "exp({c}*y{a})",
        "{c}*y{a}*y{b} - u1",
        "cos(y{a} + {c})*x{b}",
    ]
)
# Each makes the dynamics powered: on Python floats a large y1**2 raises
# OverflowError, y2/x1 at x1 = 0 ZeroDivisionError, and (-3.0)**-1.5 is complex.
_POWERS = [None, "pow(y1, 2)", "y2/x1", "pow(x2, -1.5)"]
_DYNAMICS_VALUES = st.sampled_from([0.0, -3.0, 1e200, -1e200]) | st.floats(-3.0, 3.0)


@st.composite
def _power_free_dynamics(draw):
    def term():
        a = draw(st.sampled_from([1, 2]))
        pattern = draw(_DYNAMICS_TERMS)
        return pattern.format(c=f"{draw(st.floats(-2.0, 2.0)):.4f}", a=a, b=3 - a)

    return [" + ".join(term() for _ in range(draw(st.integers(1, 3)))) for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(
    exprs=_power_free_dynamics(),
    power=st.sampled_from(_POWERS),
    points=st.lists(st.lists(_DYNAMICS_VALUES, min_size=5, max_size=5), min_size=1, max_size=5),
)
def test_compiled_fiber_dynamics_give_the_same_bits_through_the_gate_as_on_numpy_scalars(exprs, power, points):
    """Power-free dynamics run on Python floats, powered ones on numpy scalars, each as plain ``lambdify`` on numpy scalars.

    A powered term joins the first entry; had it run on Python floats, a
    point with y1 = 1e200 or x1 = 0 would raise instead of giving inf.
    """
    if power is not None:
        exprs = [f"{exprs[0]} + {power}", exprs[1]]
    r2 = builtin_manifold("R2")
    dynamics = fiber_dynamics_from_expressions(r2, exprs, control_dim=1)
    table = {**chart_symbols(2, "x"), **chart_symbols(2, "y"), **chart_symbols(1, "u")}
    parsed = [parse_expression(src, table) for src in exprs]
    assert any(expr.has(sympy.Pow) for expr in parsed) == (power is not None)
    reference = sympy.lambdify(list(table.values()), parsed, modules="numpy")
    for point in points:
        x, y, u = np.array(point[:2]), np.array(point[2:4]), np.array(point[4:])
        with np.errstate(all="ignore"):
            expected = np.array(reference(*x, *y, *u), dtype=float)
            assert np.array_equal(dynamics(x, y, u), expected, equal_nan=True)


def test_a_jacobian_power_of_a_power_free_column_keeps_numpy_scalars(r2):
    # d/dx2 of x1*sin(x1*x2) is x1**2*cos(x1*x2): on Python floats 1e200**2
    # raises OverflowError, on numpy scalars it is inf.
    Y = field_from_expressions(r2, ["x1*sin(x1*x2)", "1"], "Y")
    assert Y.vectorized
    with pytest.raises(NumericalError, match=r"^Jacobian of field 'Y' is not finite at x = \[1e\+200, 1\.0\]$"):
        Y.jacobian_at([1e200, 1.0])
    with pytest.raises(NumericalError, match=r"^non-finite state at t = "):
        flow(Y, r2.point([1e200, 1.0]), 0.01)


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``ChartManifold.check_floats`` calls and RK4 steps."""
    counts = {"check": 0, "step": 0}
    check_floats, rk4_step = ChartManifold.check_floats, flows._rk4_step

    def counted_check(self, *args):
        counts["check"] += 1
        return check_floats(self, *args)

    def counted_step(*args):
        counts["step"] += 1
        return rk4_step(*args)

    monkeypatch.setattr(ChartManifold, "check_floats", counted_check)
    monkeypatch.setattr(flows, "_rk4_step", counted_step)
    return counts


@pytest.mark.parametrize("name", ["R2", "S2-spherical"])
def test_every_rk4_stage_of_a_moving_base_calls_check_once(counted, name):
    """One ``check_floats`` call per RK4 stage of the base, over segments of unequal step counts.

    A stage that tested the box inline would hide from a counter of these
    calls.  A flow takes the base pass and then its J pass, whose stages
    are not tested; ``base_pass`` takes the base pass only.
    """
    chart = builtin_manifold(name)
    Y = field_from_expressions(chart, ["0.3 + 0.2*sin(x2)", "0.4*cos(x1)*x2"], "Y")
    X = field_from_expressions(chart, ["1", "x1*x2"], "X")
    x0 = chart.point([0.8, 0.3])
    system = LiftedSystem(chart, Y, (X,))
    u = ControlSignal(horizon=0.05, values=[[0.4], [-0.6]])
    steps = DEFAULT_CONFIG.steps_for
    for run, boundaries, passes in (
        (lambda b: flow_segments(Y, x0, b, DEFAULT_CONFIG.plan(b)), [0.0, 0.013, 0.05], 2),
        (lambda b: system.base_pass(x0, b, DEFAULT_CONFIG.plan(b), u), [0.0, 0.025, 0.05], 1),
    ):
        n_steps = steps(boundaries[1] - boundaries[0]) + steps(boundaries[2] - boundaries[1])
        counted.update(check=0, step=0)
        run(np.array(boundaries))
        assert counted == {"check": 4 * n_steps, "step": passes * n_steps}


def _hand(x):
    return np.array([np.cos(x[1]) * x[0], -0.3 * np.sin(x[0])])


def _hand_jac(x):
    # Built transposed: the entries must still come out row by row.
    return np.array([[np.cos(x[1]), -0.3 * np.cos(x[0])], [-np.sin(x[1]) * x[0], 0.0]]).T


_STAGE_FIELDS = {
    "power-free": ["0.4*sin(x1) - 1.5*cos(x2)", "-cos(x1)*sin(x2) + 0.2*x1*x2"],
    # Powers in the column and in the Jacobian: the kernel runs on numpy scalars.
    "powered": ["x1*sin(x1*x2)", "1/x1"],
    # r2_shear's drift: its kernel returns literal integer zeros.
    "integer zeros": ["0", "x1"],
    "hand with jac": _hand_jac,
    "hand": None,
}


def _stage_field(chart, kind):
    spec = _STAGE_FIELDS[kind]
    if kind.startswith("hand"):
        return field_from_callable(chart, _hand, spec, "Y")
    return field_from_expressions(chart, spec, "Y")


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.fixture
def derivatives(monkeypatch):
    """Every derivative a right-hand side returns to ``_rk4_step``."""
    seen, rk4_step = [], flows._rk4_step

    def recorded_step(f, t, z, h):
        def rhs(t, z):
            seen.append(f(t, z))
            return seen[-1]

        return rk4_step(rhs, t, z, h)

    monkeypatch.setattr(flows, "_rk4_step", recorded_step)
    return seen


@pytest.mark.parametrize("kind", sorted(_STAGE_FIELDS))
def test_stage_derivatives_reach_the_rk4_state_as_python_floats(derivatives, kind):
    """The drift record and its linear passes hand ``_rk4_step`` lists of exact floats.

    A numpy scalar in the state keeps the values but makes every RK4
    operation a numpy one.  ``flat_value_and_jacobian`` gives the bits of
    the kernel's entries made an array, or of ``func`` and ``jac`` (or
    central differences), and ``value_and_jacobian`` the same bits.
    """
    r2 = builtin_manifold("R2")
    Y = _stage_field(r2, kind)
    x = [0.8, -0.3]
    flat = Y.flat_value_and_jacobian(x)
    assert [type(v) for v in flat] == [float] * 6
    if Y.kernel is not None:
        want = np.array(Y.kernel(x), dtype=float)
    else:
        coords = np.array(x)
        jac = numeric_jacobian(Y, coords) if Y.jac is None else _hand_jac(coords)
        want = np.concatenate([_hand(coords), jac.ravel()])
    assert _bits(flat) == _bits(want)
    value, jac = Y.value_and_jacobian(x)
    assert jac.flags.c_contiguous and _bits(flat) == _bits(np.concatenate([value, jac.ravel()]))

    system = LiftedSystem(r2, Y, (field_from_expressions(r2, ["1", "x1*x2"], "X"),))
    v0 = r2.tangent_point(x, [0.4, -1.3])
    flow(Y, v0.base, 0.05)
    simulate_lifted_ode(system, v0, ControlSignal(horizon=0.05, values=[[0.4], [-0.6]]))
    simulate_lifted_ode(system, v0, None, horizon=0.05)
    # Three passes of 50 steps, each a drift record and a linear pass.
    assert len(derivatives) == 3 * 2 * 4 * 50
    assert {type(k) for k in derivatives} == {list}
    assert {type(v) for k in derivatives for v in k} == {float}
