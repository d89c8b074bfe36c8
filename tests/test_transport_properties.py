"""Property tests of the transport pass on random bounded trigonometric systems.

The compiled fast path (one value-and-Jacobian kernel per RHS call and
one batched evaluation of each control over the step states) must give
exactly what the same fields give through their plain ``func``/``jac``
row by row.  On top of it, the discretized transport operator must be
linear in the control, and the closed-form endpoint must agree with
direct integration of the lifted ODE.

Each example compiles fresh sympy fields, so shrinking a failure would take
minutes; the failing example is reported as generated instead.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tanlift import (
    ControlSignal,
    LiftedSystem,
    apply_LT,
    build_transport_grid,
    builtin_manifold,
    endpoint_closed_form,
    field_from_callable,
    field_from_expressions,
    simulate_lifted_ode,
)

CHARTS = {name: builtin_manifold(name) for name in ("R2", "S2-spherical")}

coefficient = st.floats(-1.0, 1.0, allow_nan=False)
field_coefficients = st.lists(st.tuples(coefficient, coefficient, coefficient), min_size=2, max_size=2)
unit = st.floats(0.0, 1.0, allow_nan=False)
controls = st.lists(field_coefficients, min_size=1, max_size=2)
no_shrink = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))


def _field(manifold, coeffs, name):
    exprs = [f"{a!r} + {b!r}*sin(x1) + {c!r}*cos(x2)" for a, b, c in coeffs]
    return field_from_expressions(manifold, exprs, name)


def _system(chart, drift, control_coeffs, constant_control):
    manifold = CHARTS[chart]
    fields = [_field(manifold, c, f"X{i + 1}") for i, c in enumerate(control_coeffs)]
    if constant_control:
        fields[0] = field_from_expressions(manifold, ["1", "0"], "X1")
    return LiftedSystem(manifold, _field(manifold, drift, "Y"), tuple(fields))


def _start(chart, s, t, fiber):
    # On the sphere the drift moves the polar angle by at most 3 per unit
    # time, so a start within 1 of the equator stays in the chart to T = 0.3.
    if chart == "R2":
        coords = [4.0 * s - 2.0, 4.0 * t - 2.0]
    else:
        coords = [1.0 + (np.pi - 2.0) * s, 2.0 * np.pi * t - np.pi]
    return CHARTS[chart].tangent_point(coords, fiber)


def _hand_built(field):
    return field_from_callable(field.manifold, field.func, field.jac, field.name)


def _control(seed, T, channels):
    rng = np.random.default_rng(seed)
    return ControlSignal(horizon=T, values=rng.uniform(-1.0, 1.0, (4, channels)))


@settings(no_shrink, max_examples=25)
@given(
    st.sampled_from(sorted(CHARTS)),
    field_coefficients,
    controls,
    st.booleans(),
    unit,
    unit,
    st.floats(0.05, 0.3),
    st.integers(0, 2**16),
)
def test_fast_path_equals_row_by_row_fields(chart, drift, control_coeffs, constant_control, s, t, T, seed):
    sys = _system(chart, drift, control_coeffs, constant_control)
    plain = LiftedSystem(sys.manifold, _hand_built(sys.drift), tuple(map(_hand_built, sys.controls)))
    v0 = _start(chart, s, t, [0.3, -0.4])
    fast, slow = (build_transport_grid(S, v0.base, T, 8) for S in (sys, plain))
    for name in ("times", "transported", "columns", "integrals"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    assert np.array_equal(fast.jacobians, slow.jacobians)
    u = _control(seed, T, sys.control_dim)
    ends = [endpoint_closed_form(S, v0, u).as_vector() for S in (sys, plain)]
    assert np.array_equal(*ends)


def test_fast_path_keeps_powers_row_by_row():
    # numpy rounds x**k on an array differently from x**k on one number for
    # some inputs, so a field with powers is evaluated row by row.
    r2 = CHARTS["R2"]
    Y = field_from_expressions(r2, ["0.4*sin(x2)", "x1*x1 - 0.3"], "Y")
    X1 = field_from_expressions(r2, ["pow(x2, 3)", "1/(2 + x1*x1)"], "X1")
    X2 = field_from_expressions(r2, ["1", "0"], "X2")
    sys = LiftedSystem(r2, Y, (X1, X2))
    plain = LiftedSystem(r2, _hand_built(Y), (_hand_built(X1), _hand_built(X2)))
    assert not X1.vectorized and X2.vectorized
    for start in ([0.3, -0.7], [1.1, 0.4], [-0.9, 1.3]):
        x0 = r2.point(start)
        fast, slow = (build_transport_grid(S, x0, 0.5, 8) for S in (sys, plain))
        assert np.array_equal(fast.transported, slow.transported)
        assert np.array_equal(fast.integrals, slow.integrals)


@settings(no_shrink, max_examples=20)
@given(
    st.sampled_from(sorted(CHARTS)),
    field_coefficients,
    controls,
    unit,
    unit,
    st.floats(0.05, 0.3),
    st.integers(0, 2**16),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
def test_apply_LT_is_linear_in_the_control(chart, drift, control_coeffs, s, t, T, seed, a, b):
    sys = _system(chart, drift, control_coeffs, False)
    grid = build_transport_grid(sys, _start(chart, s, t, [0.0, 0.0]).base, T, 8)
    u1 = _control(seed, T, sys.control_dim)
    u2 = _control(seed + 1, T, sys.control_dim)
    combo = ControlSignal(horizon=T, values=a * u1.values + b * u2.values)
    lhs = apply_LT(grid, combo)
    rhs = a * apply_LT(grid, u1) + b * apply_LT(grid, u2)
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(no_shrink, max_examples=20)
@given(
    st.sampled_from(sorted(CHARTS)),
    field_coefficients,
    controls,
    unit,
    unit,
    st.floats(0.05, 0.3),
    st.integers(0, 2**16),
)
def test_closed_form_endpoint_matches_lifted_ode(chart, drift, control_coeffs, s, t, T, seed):
    sys = _system(chart, drift, control_coeffs, False)
    v0 = _start(chart, s, t, [0.5, -0.25])
    u = _control(seed, T, sys.control_dim)
    closed = endpoint_closed_form(sys, v0, u)
    ode = simulate_lifted_ode(sys, v0, u).final
    assert np.max(np.abs(closed.base.coords - ode.base.coords)) <= 1e-7
    assert np.max(np.abs(closed.fiber - ode.fiber)) <= 1e-7
