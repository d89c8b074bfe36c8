"""The drift record and its linear passes against the joint (x, vec J) pass they replaced.

``joint_flow`` below is the library's former flow pass: one RK4 pass over
the concatenated state (x, vec J), whose right-hand side checks the base
block against the chart and returns Y(x) followed by J_Y(x) J.  ``flow``
and ``build_transport_grid`` now take the drift record and then a J pass
over its stages, and must give the same arrays bit for bit (the sign of
zero included), or raise the same error with the same message and time.
The lifted simulator reads the same record and must still be RK4 of the
whole bundle.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanlift import (
    ChartManifold,
    ControlSignal,
    DomainExitError,
    IntegratorConfig,
    LiftedSystem,
    NumericalError,
    build_transport_grid,
    builtin_manifold,
    field_from_callable,
    field_from_expressions,
    flow,
    simulate_lifted_ode,
)
from tanlift import lifted
from tanlift.flows import FlowResult, check_trajectory, drift_record, linear_rhs, rk4_segments

from test_simulate_passes import bundle_rk4


def joint_flow(Y, x0, boundaries, counts):
    """Base flow of Y joined with dJ/dt = J_Y(x) J, J(0) = I, in one RK4 pass."""
    n = x0.manifold.dim

    def rhs(t, z):
        value, jac = Y.value_and_jacobian(Y.manifold.check(z[:n]))
        return value.tolist() + (jac @ np.array(z[n:]).reshape(n, n)).ravel().tolist()

    z0 = np.concatenate([x0.coords, np.eye(n).ravel()])
    times, rows = rk4_segments(lambda k: rhs, z0, boundaries, counts)
    states, jacobians = rows[:, :n], rows[:, n:]
    check_trajectory(x0.manifold, times, states, jacobians)
    return times, states, jacobians.reshape(-1, n, n)


def joint_flow_of(Y, x0, T, cfg):
    """``flow`` as it ran on the joint pass: Y at x0, then the plan, then the pass."""
    Y.at(x0)
    return FlowResult(x0.manifold, *joint_flow(Y, x0, [0.0, T], cfg.plan([0.0, T])))


def outcome(run, names=None):
    """The named arrays of a result (a tuple as it is), or the type, message and time of what it raises."""
    try:
        result = run()
    except (NumericalError, DomainExitError) as err:
        return type(err), str(err), getattr(err, "time", None)
    return result if names is None else tuple(np.asarray(getattr(result, name)) for name in names)


def assert_same(got, want):
    assert [type(a) for a in got] == [type(b) for b in want], (got, want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            # array_equal takes -0.0 == +0.0; the sign bits must agree too.
            assert a.shape == b.shape and a.dtype == b.dtype, (a, b)
            assert np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b)), (a, b)
        else:
            assert a == b


FLOW = ("times", "states", "jacobians")
GRID = FLOW + ("transported", "columns", "integrals")
TRAJECTORY = ("times", "bases", "fibers")

CHARTS = {
    "R2": builtin_manifold("R2"),
    "S2-spherical": builtin_manifold("S2-spherical"),
    "slab3": ChartManifold(dim=3, name="slab3", bounds=([-1.0, -np.inf, -0.5], [2.0, 1.5, np.inf])),
}
# Starting coordinates per chart, all inside it, with signed zeros where
# the chart allows them.
STARTS = {
    "R2": [[-0.0, 0.0, 0.3, -1.2], [-0.0, 0.0, 0.6, -1.7]],
    "S2-spherical": [[0.7, 2.1, 0.03], [-0.0, 0.0, 0.5, -2.2]],
    "slab3": [[-0.0, 0.0, 1.3, -0.8], [-0.0, 0.0, 1.2, -0.7], [-0.0, 0.0, -0.3, 2.5]],
}
# Coefficient templates over coordinates a and b.  Power-free kernels run
# on Python floats.  x*sin(x*y) has a power only in its Jacobian, and the
# divisions keep numpy scalars; 1/(x - 0.3) is singular on some starts and
# trajectories, and the strong constants carry a trajectory out of a
# bounded chart.
POWER_FREE = ["0", "1", "-5", "cos(x{b})", "-sin(x{a})", "0.4*sin(x{a}) - 1.5*cos(x{b})",
              "-cos(x{a})*sin(x{b})", "exp(cos(x{b}))", "0.2*x{a}*x{b}"]
POWERED = ["x{a}*sin(x{a}*x{b})", "1/(x{a} + 5)", "0.5/(x{b} - 0.3)", "pow(x{a}, 2) - x{b}", "7*pow(x{a}, 2)"]


@functools.cache
def compiled(chart, exprs, name):
    return field_from_expressions(CHARTS[chart], list(exprs), name)


def hand(x):
    n = len(x)
    return np.array([np.cos(x[(i + 1) % n]) * x[i] - 0.3 * np.sin(x[i]) for i in range(n)])


def hand_jac(x):
    # Built transposed: the layout of a Jacobian must not change a bit.
    n = len(x)
    jac = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        jac[i, i] += np.cos(x[j]) - 0.3 * np.cos(x[i])
        jac[i, j] += -np.sin(x[j]) * x[i]
    return np.array(jac.T.tolist()).T


@functools.cache
def hand_built(chart, name, jac):
    """A ``field_from_callable`` field, with an analytic Jacobian or central differences."""
    return field_from_callable(CHARTS[chart], hand, hand_jac if jac else None, name)


@st.composite
def fields(draw, chart, name):
    kind = draw(st.sampled_from(["power-free", "powered", "hand", "hand with jac"]))
    if kind.startswith("hand"):
        return hand_built(chart, name, kind == "hand with jac")
    n = CHARTS[chart].dim
    exprs = []
    for i in range(n):
        # A powered field has a power or a division in its first entry.
        pool = POWERED if kind == "powered" and i == 0 else POWER_FREE + POWERED * (kind == "powered")
        a = draw(st.integers(1, n))
        b = draw(st.sampled_from([j for j in range(1, n + 1) if j != a]))
        exprs.append(draw(st.sampled_from(pool)).format(a=a, b=b))
    return compiled(chart, tuple(exprs), name)


@st.composite
def cases(draw):
    chart = draw(st.sampled_from(sorted(CHARTS)))
    manifold = CHARTS[chart]
    starts = STARTS[chart]
    base = [draw(st.sampled_from(starts[i % len(starts)])) for i in range(manifold.dim)]
    fiber = [draw(st.sampled_from([-0.0, 0.0, 0.4, -1.3])) for _ in range(manifold.dim)]
    drift = draw(fields(chart, "Y"))
    controls = tuple(draw(fields(chart, f"X{i + 1}")) for i in range(draw(st.integers(1, 2))))
    horizon = draw(st.sampled_from([0.05, 0.12, 0.3, 0.6]))
    segments = draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -0.6, 2.5]), min_size=segments * len(controls),
                           max_size=segments * len(controls)))
    u = ControlSignal(horizon=horizon, values=np.reshape(values, (segments, len(controls))))
    v0 = manifold.tangent_point(base, fiber)
    return manifold, drift, controls, v0, u, horizon, draw(st.integers(2, 4)), draw(st.sampled_from([0.01, 1 / 64]))


def _r2_case(drift, base, horizon):
    """A case on R2 whose drift fails: one control d/dx1 under an input of 1.0, step 1/64."""
    r2 = CHARTS["R2"]
    u = ControlSignal.constant([1.0], horizon=horizon)
    controls = (compiled("R2", ("1", "0"), "X1"),)
    return r2, compiled("R2", drift, "Y"), controls, r2.tangent_point(base, [0.3, -0.0]), u, horizon, 3, 1 / 64


def grid_on_the_joint_pass(system, x0, horizon, N, cfg):
    """``build_transport_grid`` with the joint pass as its flow pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lifted, "flow_segments", joint_flow)
        patch.setattr(lifted, "_transport_memo", None)
        return build_transport_grid(system, x0, horizon, N, cfg)


@settings(max_examples=150, deadline=None)
@given(cases(), st.sampled_from([1.0, -1.0]))
# x1' = 7 x1**2 from 1.3 blows up at t = 0.11: a stage goes non-finite.
@example(_r2_case(("7*pow(x1, 2)", "cos(x2)"), [1.3, -0.0], 0.3), 1.0)
# The drift is not finite at the start.
@example(_r2_case(("0.5/(x1 - 0.3)", "0"), [0.3, 0.0], 0.3), 1.0)
def test_flow_and_transport_grid_are_the_joint_pass_bit_for_bit(case, sign):
    manifold, drift, controls, v0, u, horizon, N, step = case
    cfg = IntegratorConfig(step=step)
    assert_same(
        outcome(lambda: flow(drift, v0.base, sign * horizon, cfg), FLOW),
        outcome(lambda: joint_flow_of(drift, v0.base, sign * horizon, cfg), FLOW),
    )
    # A new system object for each pass, so that no side reads the other's memo.
    system = lambda: LiftedSystem(manifold, drift, controls)  # noqa: E731
    lifted._transport_memo = None
    assert_same(
        outcome(lambda: build_transport_grid(system(), v0.base, horizon, N, cfg), GRID),
        outcome(lambda: grid_on_the_joint_pass(system(), v0.base, horizon, N, cfg), GRID),
    )
    sys = system()
    assert_same(
        outcome(lambda: simulate_lifted_ode(sys, v0, u, cfg), TRAJECTORY),
        outcome(lambda: bundle_rk4(sys, v0, u, cfg)),
    )


def test_a_stage_leaving_the_chart_raises_the_joint_pass_error():
    # x1' = 1 carries 0.8 past pi - 0.01 at t = 2.33.
    s2 = CHARTS["S2-spherical"]
    Y = compiled("S2-spherical", ("1", "sin(x1)"), "Y")
    x0 = s2.point([0.8, 0.3])
    got = outcome(lambda: flow(Y, x0, 3.0), FLOW)
    assert got == outcome(lambda: joint_flow_of(Y, x0, 3.0, IntegratorConfig()), FLOW)
    kind, message, time = got
    assert kind is DomainExitError and 2.3 < time < 2.34
    assert message.startswith(f"trajectory left the chart domain near t = {time:.6g}: coordinates [")
    assert message.endswith("outside the domain of chart 'S2-spherical'")


def test_a_non_finite_stage_raises_the_joint_pass_error():
    # x1' = 7 x1**2 from 1.3 blows up at t = 0.11; a stage point reaches inf.
    r2 = CHARTS["R2"]
    Y = compiled("R2", ("7*pow(x1, 2)", "cos(x2)"), "Y")
    x0 = r2.point([1.3, 0.0])
    cfg = IntegratorConfig(step=1 / 64)
    got = outcome(lambda: flow(Y, x0, 0.3, cfg), FLOW)
    assert got == outcome(lambda: joint_flow_of(Y, x0, 0.3, cfg), FLOW)
    kind, message, _ = got
    assert kind is NumericalError and message.startswith("non-finite state at t = ")
    assert 0.0 < float(message.rsplit(" ", 1)[1]) < 0.3


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_a_linear_stage_is_the_matmul_of_the_joint_pass(n, seed, scale):
    """The stage product, matrix or vector, and the added terms have the bits of ``@`` and list sums."""
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((n, n)) * scale
    Z, y = rng.standard_normal((n, n)), rng.standard_normal(n)
    terms = rng.standard_normal((2, n)).tolist()
    assert linear_rhs([jac], (n, n))(0.0, Z.ravel().tolist()) == (jac @ Z).ravel().tolist()
    want = (jac @ y).tolist()
    for term in terms:
        want = [a + b for a, b in zip(want, term)]
    assert linear_rhs([jac], (n,), [terms])(0.0, y.tolist()) == want


@pytest.mark.parametrize("chart, start", [("R2", [0.3, -1.2]), ("S2-spherical", [0.7, 0.5]), ("slab3", [1.2, 1.2, -0.3])])
def test_the_record_holds_each_stage_once(chart, start):
    """Four stages a step, the first at the step's node, each with the drift Jacobian at its point."""
    n = len(start)
    Y = compiled(chart, tuple(f"0.4*sin(x{i % n + 1}) - 1.5*cos(x{(i + 1) % n + 1})" for i in range(n)), "Y")
    x0 = CHARTS[chart].point(start)
    boundaries = np.array([0.0, 0.013, 0.05])
    counts = IntegratorConfig().plan(boundaries)
    times, states, points, jacobians = drift_record(Y, x0, boundaries, counts)
    assert points.shape == (4 * counts.sum(), n) and jacobians.shape == (4 * counts.sum(), n, n)
    assert np.array_equal(points[::4], states[:-1])
    for x, jac in zip(points, jacobians):
        assert np.array_equal(jac, Y.jacobian_at(x))
