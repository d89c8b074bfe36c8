"""The per-stage fast paths of RK4: the chart check on Python floats and power-free kernels on floats.

Each path must give what the general path gives, bit for bit, and every
stage must still go through ``ChartManifold.check`` once.
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
    field_from_expressions,
    flow,
)
from tanlift import flows
from tanlift.flows import DEFAULT_CONFIG, joint_flow

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
    assert np.array_equal(out, arr, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(arr))


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
    return column.has(sympy.Pow) or jacobian().has(sympy.Pow)


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
        reference = sympy.lambdify(args, list(column) + list(jacobian()), modules="numpy")
        for point in points:
            x = np.array(point)
            with np.errstate(all="ignore"):
                assert np.array_equal(
                    np.array(X.kernel(x), dtype=float), np.array(reference(*x), dtype=float), equal_nan=True
                )


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
    """Counts of ``ChartManifold.check`` calls and RK4 steps."""
    counts = {"check": 0, "step": 0}
    check, rk4_step = ChartManifold.check, flows._rk4_step

    def counted_check(self, coords):
        counts["check"] += 1
        return check(self, coords)

    def counted_step(*args):
        counts["step"] += 1
        return rk4_step(*args)

    monkeypatch.setattr(ChartManifold, "check", counted_check)
    monkeypatch.setattr(flows, "_rk4_step", counted_step)
    return counts


@pytest.mark.parametrize("name", ["R2", "S2-spherical"])
def test_every_rk4_stage_of_a_moving_base_calls_check_once(counted, name):
    """One ``check`` call per RK4 stage, over segments of unequal step counts.

    The tracer's ``manifold.domain_checks`` counts these calls, so a stage
    that tested the box inline would hide from it.
    """
    chart = builtin_manifold(name)
    Y = field_from_expressions(chart, ["0.3 + 0.2*sin(x2)", "0.4*cos(x1)*x2"], "Y")
    X = field_from_expressions(chart, ["1", "x1*x2"], "X")
    x0 = chart.point([0.8, 0.3])
    system = LiftedSystem(chart, Y, (X,))
    u = ControlSignal(horizon=0.05, values=[[0.4], [-0.6]])
    steps = DEFAULT_CONFIG.steps_for
    for run, boundaries in (
        (lambda b: joint_flow(Y, x0, b, DEFAULT_CONFIG, steps), [0.0, 0.013, 0.05]),
        (lambda b: system.base_pass(x0, b, steps, u), [0.0, 0.025, 0.05]),
    ):
        n_steps = steps(boundaries[1] - boundaries[0]) + steps(boundaries[2] - boundaries[1])
        counted.update(check=0, step=0)
        run(np.array(boundaries))
        assert counted == {"check": 4 * n_steps, "step": n_steps}
