"""The list-of-floats RK4 state against a copy of the ndarray RK4 it replaced.

``ndarray_rk4_segments`` below is the integrator as it was when every
state was a numpy array: each stage point and each update is an array
expression.  The right-hand sides it integrates are written here from the
paper's bundle velocities, on array states: the joint flow of a drift with
its differential, Y^c + sum_i u_i Xi^v for a lifted system, X0^v + sum_i
u_i Xi^v for an affine vertical one and (0, f(x, y, u)) for a general one.
The library's passes must give the same arrays bit for bit (the sign of
zero included), or raise the same error with the same message and time.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanlift import (
    ChartManifold,
    ControlSignal,
    DomainExitError,
    GeneralVerticalSystem,
    IntegratorConfig,
    LiftedSystem,
    NumericalError,
    VerticalAffineSystem,
    builtin_manifold,
    fiber_dynamics_from_expressions,
    field_from_callable,
    field_from_expressions,
    simulate_lifted_ode,
    simulate_vertical_ode,
)
from tanlift.controls import segment_boundaries
from tanlift.errors import ChartDomainError
from tanlift.flows import check_trajectory, flow_segments


def ndarray_rk4_step(f, t, z, h):
    k1 = f(t, z)
    k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = f(t + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ndarray_integrate_fixed(f, z0, t0, t1, n_steps):
    times = np.linspace(t0, t1, n_steps + 1)
    states = np.empty((n_steps + 1, z0.size))
    states[0] = z0
    h = (t1 - t0) / n_steps if n_steps else 0.0
    for k in range(n_steps):
        try:
            states[k + 1] = ndarray_rk4_step(f, times[k], states[k], h)
        except ChartDomainError as err:
            if err.coords is not None and not np.isfinite(err.coords).all():
                raise NumericalError(f"non-finite state at t = {times[k]:.6g}") from err
            raise DomainExitError(
                f"trajectory left the chart domain near t = {times[k]:.6g}: {err}",
                coords=err.coords,
                time=float(times[k]),
            ) from err
    return times, states


def ndarray_rk4_segments(rhs_for, z0, boundaries, steps):
    times = [np.asarray(boundaries[:1], dtype=float)]
    rows = [z0[None, :]]
    offsets = [0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(boundaries) - 1):
            n_steps = steps(boundaries[k + 1] - boundaries[k])
            seg_times, seg_rows = ndarray_integrate_fixed(rhs_for(k), z0, boundaries[k], boundaries[k + 1], n_steps)
            times.append(seg_times[1:])
            rows.append(seg_rows[1:])
            offsets.append(offsets[-1] + n_steps)
            z0 = seg_rows[-1]
    return np.concatenate(times), np.concatenate(rows, axis=0), offsets


def ndarray_joint_flow(Y, x0, boundaries, steps):
    n = x0.manifold.dim
    Y.at(x0)

    def rhs(t, z):
        value, jac = Y.value_and_jacobian(Y.manifold.check(z[:n]))
        return np.concatenate([value, (jac @ z[n:].reshape(n, n)).ravel()])

    z0 = np.concatenate([x0.coords, np.eye(n).ravel()])
    times, rows, _ = ndarray_rk4_segments(lambda k: rhs, z0, boundaries, steps)
    check_trajectory(x0.manifold, times, rows[:, :n], rows[:, n:])
    return times, rows[:, :n], rows[:, n:].reshape(-1, n, n)


def planned_flow(Y, x0, boundaries, cfg):
    """``flow_segments`` as the library's callers run it: Y at x0, then the plan, then the pass."""
    Y.at(x0)
    return flow_segments(Y, x0, boundaries, cfg.plan(boundaries))


def bundle_velocity(sys, u_k):
    """The bundle velocity z -> dz/dt of a system under one input, on array states."""
    n = sys.manifold.dim
    if isinstance(sys, GeneralVerticalSystem):
        return lambda t, z: np.concatenate([np.zeros(n), np.asarray(sys.dynamics(z[:n], z[n:], u_k), dtype=float)])

    def velocity(t, z):
        if isinstance(sys, LiftedSystem):
            x = sys.manifold.check(z[:n])
            base, jac = sys.drift.value_and_jacobian(x)
            fiber = jac @ z[n:]
        else:
            x, base = z[:n], np.zeros(n)
            fiber = np.array(sys.drift.value(x))
        for ui, X in zip(() if u_k is None else u_k, sys.controls):
            fiber = fiber + ui * X.value(x)
        return np.concatenate([base, fiber])

    return velocity


def ndarray_bundle_rk4(sys, v0, u, cfg, horizon):
    """(times, bases, fibers) of the ndarray RK4 on the bundle state (x, y), one input per segment."""
    boundaries = segment_boundaries(u, horizon, sys.control_dim)
    sys._check_start(v0, u)
    n = sys.manifold.dim
    rhs_for = lambda k: bundle_velocity(sys, None if u is None else u.values[k])  # noqa: E731
    times, rows, _ = ndarray_rk4_segments(rhs_for, v0.as_vector(), boundaries, cfg.steps_for)
    check_trajectory(sys.manifold, times, rows[:, :n], rows[:, n:])
    return times, rows[:, :n], rows[:, n:]


def outcome(run):
    """The arrays a pass returns, or the type, message and time of what it raises."""
    try:
        result = run()
    except (NumericalError, DomainExitError) as err:
        return type(err), str(err), getattr(err, "time", None)
    if not isinstance(result, tuple):
        result = (result.times, result.bases, result.fibers)
    return tuple(np.asarray(a) for a in result)


def assert_same(got, want):
    assert [type(a) for a in got] == [type(b) for b in want], (got, want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            # array_equal takes -0.0 == +0.0; the sign bits must agree too.
            assert a.shape == b.shape and a.dtype == b.dtype, (a, b)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), (a, b)
        else:
            assert a == b


CHARTS = {
    "R2": builtin_manifold("R2"),
    "S2-spherical": builtin_manifold("S2-spherical"),
    "box3": ChartManifold(dim=3, name="box3", bounds=([-1.5, -np.inf, -0.5], [2.5, 1.5, np.inf])),
}
# Starting coordinates per chart, all inside it; each list has signed zeros
# where the chart allows them.
STARTS = {
    "R2": [[-0.0, 0.0, 0.25, 0.7, -1.1], [-0.0, 0.0, 0.4, -2.0]],
    "S2-spherical": [[0.8, 1.9, 0.02], [-0.0, 0.0, 0.4, -2.0]],
    "box3": [[-0.0, 0.0, 1.2, -1.4], [-0.0, 0.0, 1.4, -0.9], [-0.0, 0.0, -0.4, 3.0]],
}

# Coefficient templates over coordinates a and b (distinct when the chart
# has two or more).  Power-free ones run their kernel on Python floats;
# a power or a division keeps numpy scalars.  Strong constants carry a
# trajectory out of a bounded chart, 6*x**2 blows up within the horizon
# from x = 1.2, and 1/(x - 0.25) is singular at some starts and on some
# trajectories.
POWER_FREE = ["0", "1", "-6", "sin(x{b})", "-sin(x{a})", "0.5*sin(x{a}) - 1.25*cos(x{b})",
              "-sin(x{a})*sin(x{b})", "exp(sin(x{b}))", "0.3*x{a}*x{b}"]
POWERED = ["pow(x{b}, 2)", "pow(x{a}, 3) - x{b}", "0.3*pow(x{b}, 2)*cos(x{a})", "1/(x{a} + 4)", "1/(x{a} - 0.25)",
           "6*pow(x{a}, 2)"]
ZEROS = [-0.0, 0.0]


@functools.cache
def compiled(chart, exprs, name):
    return field_from_expressions(CHARTS[chart], list(exprs), name)


def hand(x):
    n = len(x)
    return np.array([np.sin(x[(i + 1) % n]) - 0.4 * x[i] * x[(i + 1) % n] for i in range(n)])


def hand_jac(x):
    # Built transposed: the layout of a Jacobian must not change a bit.
    n = len(x)
    jac = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        jac[i, i] += -0.4 * x[j]
        jac[i, j] += np.cos(x[j]) - 0.4 * x[i]
    return np.array(jac.T.tolist()).T


@functools.cache
def hand_built(chart, name, jac):
    """A ``field_from_callable`` field, with an analytic Jacobian or central differences."""
    return field_from_callable(CHARTS[chart], hand, hand_jac if jac else None, name)


@functools.cache
def damping(chart, channels):
    n = CHARTS[chart].dim
    exprs = [f"-(0.5 + 0.3*sin(x{i}))*y{i}" + (f" + u{i}" if i <= channels else "") for i in range(1, n + 1)]
    return fiber_dynamics_from_expressions(CHARTS[chart], exprs, channels)


@st.composite
def fields(draw, chart, name):
    kind = draw(st.sampled_from(["power-free", "powered", "hand", "hand with jac"]))
    if kind.startswith("hand"):
        return hand_built(chart, name, kind == "hand with jac")
    pool = POWER_FREE if kind == "power-free" else POWER_FREE + POWERED
    n = CHARTS[chart].dim
    exprs = []
    for _ in range(n):
        a = draw(st.integers(1, n))
        b = draw(st.sampled_from([i for i in range(1, n + 1) if i != a] or [a]))
        exprs.append(draw(st.sampled_from(pool)).format(a=a, b=b))
    return compiled(chart, tuple(exprs), name)


@st.composite
def cases(draw):
    chart = draw(st.sampled_from(sorted(CHARTS)))
    manifold = CHARTS[chart]
    starts = STARTS[chart]
    base = [draw(st.sampled_from(starts[i % len(starts)])) for i in range(manifold.dim)]
    fiber = [draw(st.sampled_from(ZEROS + [0.3, -1.5])) for _ in range(manifold.dim)]
    drift = draw(fields(chart, "Y"))
    controls = tuple(draw(fields(chart, f"X{i + 1}")) for i in range(draw(st.integers(1, 2))))
    horizon = draw(st.sampled_from([0.05, 0.13, 0.3, 0.5]))
    segments = draw(st.integers(0, 3))
    u = None
    if segments:
        values = draw(
            st.lists(st.sampled_from(ZEROS + [1.0, -0.7, 2.5]), min_size=segments * len(controls),
                     max_size=segments * len(controls))
        )
        u = ControlSignal(horizon=horizon, values=np.reshape(values, (segments, len(controls))))
    v0 = manifold.tangent_point(base, fiber)
    return manifold, drift, controls, v0, u, horizon, draw(st.sampled_from([0.01, 1 / 64]))


def _failing_case(drift, control, base, horizon):
    """A case on R2 whose passes raise: one control, one input of 1.0, step 1/64."""
    r2 = CHARTS["R2"]
    u = ControlSignal.constant([1.0], horizon=horizon)
    X = compiled("R2", control, "X1")
    return r2, compiled("R2", drift, "Y"), (X,), r2.tangent_point(base, [0.3, -0.0]), u, horizon, 1 / 64


@settings(max_examples=120, deadline=None)
@given(cases(), st.sampled_from([1.0, -1.0]))
# The drift is not finite at the start.
@example(_failing_case(("1/(x1 - 0.25)", "0"), ("1", "0"), [0.25, 0.0], 0.3), 1.0)
# x1' = 6 x1**2 from 1.2 blows up at t = 1/7.2; RK4 reaches inf at t = 0.165 in the moving bases.
@example(_failing_case(("6*pow(x1, 2)", "sin(x2)"), ("1", "0"), [1.2, -0.0], 0.3), 1.0)
# The drift carries x1 from 0 to 0.25 at t = 0.125, where the control is infinite.
@example(_failing_case(("2", "0"), ("1/(x1 - 0.25)", "0"), [0.0, 0.0], 0.5), 1.0)
def test_list_state_passes_are_the_ndarray_rk4_bit_for_bit(case, sign):
    manifold, drift, controls, v0, u, horizon, step = case
    cfg = IntegratorConfig(step=step)
    # The flow runs over the control's boundaries, backwards too.
    boundaries = sign * segment_boundaries(u, horizon, len(controls))
    assert_same(
        outcome(lambda: planned_flow(drift, v0.base, boundaries, cfg)),
        outcome(lambda: ndarray_joint_flow(drift, v0.base, boundaries, cfg.steps_for)),
    )
    general = GeneralVerticalSystem(manifold, damping(manifold.name, len(controls)), len(controls))
    runs = [
        (simulate_lifted_ode, LiftedSystem(manifold, drift, controls)),
        (simulate_vertical_ode, VerticalAffineSystem(manifold, drift, controls)),
        (simulate_vertical_ode, general),
    ]
    for simulate, sys in runs:
        assert_same(
            outcome(lambda: simulate(sys, v0, u, cfg, horizon=horizon)),
            outcome(lambda: ndarray_bundle_rk4(sys, v0, u, cfg, horizon)),
        )
