import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanlift import (
    ChartManifold,
    ControlSignal,
    DomainExitError,
    IntegratorConfig,
    LiftedSystem,
    NumericalError,
    StepBudgetError,
    VerticalAffineSystem,
    base_lie_bracket,
    build_transport_grid,
    builtin_manifold,
    constant_field,
    endpoint_closed_form,
    field_from_callable,
    field_from_expressions,
    flow,
    flow_differential,
    reachable_vertical,
    simulate_lifted_ode,
    simulate_vertical_ode,
    steer_lifted,
    steer_vertical,
    transported_derivatives,
    transported_field,
)
from tanlift import flows
from tanlift.flows import check_trajectory, pullback_vector, rk4_segments

from conftest import random_smooth_field


def test_flow_of_rotation_on_sphere(s2):
    Y = constant_field(s2, [0.0, 1.0], "Y")
    x0 = s2.point([0.8, 0.3])
    res = flow(Y, x0, 2.5)
    assert np.max(np.abs(res.final_coords - [0.8, 2.8])) < 1e-10


def test_flow_of_shear(r2, shear_fields):
    Y, _ = shear_fields
    res = flow(Y, r2.point([2.0, -1.0]), 1.5)
    assert np.max(np.abs(res.final_coords - [2.0, -1.0 + 1.5 * 2.0])) < 1e-10


def test_flow_zero_horizon(r2, shear_fields):
    Y, _ = shear_fields
    res = flow(Y, r2.point([2.0, -1.0]), 0.0)
    assert res.states.shape == (1, 2)
    assert np.array_equal(res.final_coords, [2.0, -1.0])


def test_flow_backwards(r2, shear_fields):
    Y, _ = shear_fields
    res = flow(Y, r2.point([2.0, -1.0]), -1.0)
    assert np.max(np.abs(res.final_coords - [2.0, -3.0])) < 1e-10


def test_flow_group_law(r2, rng):
    Y = random_smooth_field(r2, rng)
    x0 = r2.point([0.2, -0.4])
    for _ in range(5):
        s, t = rng.uniform(0.0, 1.0, size=2)
        once = flow(Y, x0, s + t).final_coords
        mid = flow(Y, x0, s).final_point
        twice = flow(Y, mid, t).final_coords
        assert np.max(np.abs(once - twice)) <= 1e-8


def _base_fields(manifold):
    return [
        field_from_expressions(manifold, ["0.3*cos(x2)", "sin(x1) - 0.2*x2"], "T"),
        field_from_expressions(manifold, ["0.2*pow(x2, 2) - 0.1", "0.5*pow(x1, 3)"], "P"),
        field_from_callable(
            manifold,
            lambda x: np.array([0.2 * np.sin(x[1]), 1.0 - 0.3 * x[0] * x[1]]),
            jac=lambda x: np.array(
                [[0.0, 0.2 * np.cos(x[1])], [-0.3 * x[1], -0.3 * x[0]]]
            ),
            name="H",
        ),
    ]


@pytest.mark.parametrize("chart", ["R2", "S2-spherical"])
def test_flow_states_are_the_plain_base_rk4(chart):
    # The joint pass carries the differential along without changing a
    # bit of the base states: the reference integrates Y alone.
    manifold = builtin_manifold(chart)
    x0 = manifold.point([0.9, 0.4])
    cfg = IntegratorConfig(step=1e-2)
    for Y in _base_fields(manifold):
        for T in (0.7, -0.4):
            _, states = rk4_segments(lambda k: lambda t, x: Y.at(x), x0.coords, [0.0, T], cfg.plan([0.0, T]))
            res = flow(Y, x0, T, cfg)
            assert res.jacobians.shape == (len(res.times), 2, 2)
            assert np.array_equal(res.states, states), (chart, Y.name, T)


def test_flow_domain_exit_reports_time(s2):
    Y = constant_field(s2, [1.0, 0.0], "Y")
    with pytest.raises(DomainExitError) as err:
        flow(Y, s2.point([0.8, 0.0]), 5.0)
    assert err.value.time is not None
    assert 2.0 < err.value.time < 2.5


def test_integrate_segments_shares_boundary_rows(r2, shear_fields):
    Y, _ = shear_fields
    boundaries = np.array([0.0, 0.25, 1.0])
    times, rows = rk4_segments(lambda k: lambda t, x: Y.at(x), np.array([2.0, -1.0]), boundaries, np.array([4, 4]))
    assert rows.shape == (9, 2) and times.shape == (9,)
    assert np.array_equal(times[[0, 4, 8]], boundaries)
    assert np.max(np.abs(rows[-1] - [2.0, 1.0])) < 1e-12


def test_integrate_segments_checks_final_row(s2):
    # A right-hand side that never evaluates a field leaves the final row
    # as the only one checked against the chart.
    drift = lambda t, x: np.array([1.0, 0.0])
    times, rows = rk4_segments(lambda k: drift, np.array([0.8, 0.0]), [0.0, 5.0], np.array([1]))
    with pytest.raises(DomainExitError) as err:
        check_trajectory(s2, times, rows, rows[:, 2:])
    assert err.value.time == 5.0


def test_integrate_segments_names_non_finite_time(r2):
    blow_up = lambda t, z: [c * c for c in z]
    times, rows = rk4_segments(lambda k: blow_up, np.ones(2), [0.0, 0.5, 2.0], np.array([100, 100]))
    with pytest.raises(NumericalError, match=r"non-finite state at t = 1\.0"):
        check_trajectory(r2, times, rows, rows[:, 2:])


@pytest.mark.parametrize("entries", [3, 1])
def test_a_derivative_of_another_length_than_the_state_is_rejected(entries):
    rhs = lambda t, z: [1.0] * entries
    with pytest.raises(ValueError, match=rf"^right-hand side has length {entries}, state has length 2$"):
        rk4_segments(lambda k: rhs, np.zeros(2), [0.0, 1.0], np.array([4]))


def test_flow_step_budget(r2, shear_fields):
    Y, _ = shear_fields
    with pytest.raises(StepBudgetError):
        flow(Y, r2.point([1.0, 0.0]), 10.0, IntegratorConfig(step=1e-3, max_steps=100))


def _budget_calls(r2, shear_fields):
    """Each call with its step total at horizon 0.05: 8 segments of 0.00625 take 7 steps each, or 8 when even."""
    Y, X1 = shear_fields
    system = LiftedSystem(r2, Y, (X1,))
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    u = ControlSignal(horizon=0.05, values=np.linspace(-1.0, 1.0, 8)[:, None])
    return {
        "flow": (50, lambda cfg: flow(Y, v0.base, 0.05, cfg)),
        "build_transport_grid": (64, lambda cfg: build_transport_grid(system, v0.base, 0.05, 8, cfg)),
        "simulate_lifted_ode": (56, lambda cfg: simulate_lifted_ode(system, v0, u, cfg)),
        "endpoint_closed_form": (64, lambda cfg: endpoint_closed_form(system, v0, u, cfg)),
    }


@pytest.mark.parametrize("name", ["flow", "build_transport_grid", "simulate_lifted_ode", "endpoint_closed_form"])
def test_step_budget_bounds_the_whole_pass(r2, shear_fields, name):
    # Every segment fits a budget of 10; the pass as a whole does not.
    _, call = _budget_calls(r2, shear_fields)[name]
    with pytest.raises(StepBudgetError, match=r"^horizon 0\.05 needs more steps of 0\.001 than the budget of 10$"):
        call(IntegratorConfig(max_steps=10))


@pytest.mark.parametrize("name", ["build_transport_grid", "simulate_lifted_ode", "endpoint_closed_form"])
def test_step_budget_names_the_total_of_the_segments(r2, shear_fields, name):
    # 0.05 / 0.001 = 50 steps fit a budget of 50; the segments, each rounded up, do not.
    total, call = _budget_calls(r2, shear_fields)[name]
    for budget in (50, total - 1):
        with pytest.raises(StepBudgetError, match=rf"^horizon 0\.05 needs {total} steps of 0\.001, budget is {budget}$"):
            call(IntegratorConfig(max_steps=budget))


@pytest.mark.parametrize("name", ["flow", "build_transport_grid", "simulate_lifted_ode", "endpoint_closed_form"])
def test_a_drift_not_finite_at_the_start_is_named_before_the_budget(r2, shear_fields, name):
    # Over the budget of 10 by the span quotient, and by the total of the segments.
    Y = field_from_expressions(r2, ["1/(x1 - 1)", "x1"], "Y")
    _, call = _budget_calls(r2, (Y, shear_fields[1]))[name]
    with pytest.raises(NumericalError, match=r"^field 'Y' is not finite at x = \[1\.0, 0\.0\]$"):
        call(IntegratorConfig(max_steps=10))


_R2 = builtin_manifold("R2")
_PLAN_SYSTEM = LiftedSystem(
    _R2,
    field_from_expressions(_R2, ["0.3 + 0.2*sin(x2)", "0.4*cos(x1)*x2"], "Y"),
    (field_from_expressions(_R2, ["1", "x1*x2"], "X1"),),
)


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.sampled_from([0.05, 0.13, 0.3, 0.5]) | st.floats(1e-4, 0.5),
    segments=st.integers(1, 4),
    sign=st.sampled_from([1.0, -1.0]),
    step=st.sampled_from([0.01, 1 / 64, 0.003]),
)
def test_every_pass_takes_the_steps_of_its_plan(horizon, segments, sign, step):
    cfg = IntegratorConfig(step=step)
    u = ControlSignal(horizon=horizon, values=np.linspace(-1.0, 1.0, segments)[:, None])
    boundaries = sign * u.boundaries
    counts = cfg.plan(boundaries)
    assert counts.tolist() == [cfg.steps_for(b - a) for a, b in zip(boundaries[:-1], boundaries[1:])]
    assert cfg.plan(boundaries, even=True).tolist() == [max(2, c) + max(2, c) % 2 for c in counts.tolist()]

    system = _PLAN_SYSTEM
    # A new system object each time: the transport memo would skip a repeated pass.
    fresh = LiftedSystem(system.manifold, system.drift, system.controls)
    vertical = VerticalAffineSystem(system.manifold, system.drift, system.controls)
    v0 = system.manifold.tangent_point([0.8, 0.3], [0.2, -0.1])
    grid = np.linspace(0.0, horizon, segments + 2)
    simulated = cfg.plan(u.boundaries).sum()
    # A flow and a transport pass take a base pass and a J pass, a lifted
    # simulation a base pass and a fiber pass; a vertical one only the fiber pass.
    runs = {
        "flow": (lambda: flow(system.drift, v0.base, sign * horizon, cfg), 2 * cfg.plan([0.0, sign * horizon]).sum()),
        "build_transport_grid": (
            lambda: build_transport_grid(fresh, v0.base, horizon, segments + 1, cfg),
            2 * cfg.plan(grid, even=True).sum(),
        ),
        "simulate_lifted_ode": (lambda: simulate_lifted_ode(system, v0, u, cfg), 2 * simulated),
        "simulate_vertical_ode": (lambda: simulate_vertical_ode(vertical, v0, u, cfg), simulated),
    }
    rk4_step, steps = flows._rk4_step, [0]

    def counted_step(*args):
        steps[0] += 1
        return rk4_step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "_rk4_step", counted_step)
        for name, (run, total) in runs.items():
            steps[0] = 0
            run()
            assert steps[0] == total, name


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
def test_step_must_be_positive_and_finite(step):
    with pytest.raises(ValueError, match=rf"^step must be positive and finite, got {step}$"):
        IntegratorConfig(step=step)


@pytest.mark.parametrize("name", ["flow", "build_transport_grid", "simulate_lifted_ode", "endpoint_closed_form"])
def test_step_budget_equal_to_the_total_runs(r2, shear_fields, name):
    total, call = _budget_calls(r2, shear_fields)[name]
    assert call(IntegratorConfig(max_steps=total)) is not None


def test_flow_differential_shear(r2, shear_fields):
    Y, _ = shear_fields
    for t in (0.5, 1.0, 2.0):
        J = flow_differential(Y, r2.point([0.7, 0.7]), t)
        assert np.max(np.abs(J - [[1.0, 0.0], [t, 1.0]])) < 1e-9


def test_flow_differential_zero_horizon(r2, shear_fields):
    Y, _ = shear_fields
    assert np.array_equal(flow_differential(Y, r2.point([1.0, 1.0]), 0.0), np.eye(2))


def test_flow_differential_constant_field_is_identity(s2):
    # Constant coefficients make the variational equation trivial.
    Y = constant_field(s2, [0.0, 1.0], "Y")
    for T in (0.5, 3.0):
        J = flow_differential(Y, s2.point([0.8, 0.3]), T)
        assert np.max(np.abs(J - np.eye(2))) < 1e-12


def test_jacobians_stored_at_every_node(r2, shear_fields):
    Y, _ = shear_fields
    res = flow(Y, r2.point([1.0, 0.0]), 1.0)
    assert res.jacobians.shape == (len(res.times), 2, 2)
    assert np.array_equal(res.jacobians[0], np.eye(2))
    for k in (100, 500, 1000):
        t = res.times[k]
        assert np.max(np.abs(res.jacobians[k] - [[1.0, 0.0], [t, 1.0]])) < 1e-9


def test_jacobian_chain_rule(r2, rng):
    Y = random_smooth_field(r2, rng)
    x0 = r2.point([0.1, 0.3])
    T, t = 1.0, 0.4
    full = flow_differential(Y, x0, T)
    first = flow(Y, x0, t)
    second = flow_differential(Y, first.final_point, T - t)
    assert np.max(np.abs(full - second @ first.endpoint_jacobian)) <= 1e-7


def test_transported_field_shear(r2, shear_fields):
    Y, X1 = shear_fields
    x0 = r2.point([1.0, 0.0])
    for t in (0.25, 0.5, 1.0):
        z = transported_field(Y, X1, x0, t)
        assert np.max(np.abs(z - [1.0, -t])) < 1e-8


def test_transported_field_at_zero(r2, shear_fields, rng):
    Y, X1 = shear_fields
    x0 = r2.point([1.7, -0.3])
    assert np.array_equal(transported_field(Y, X1, x0, 0.0), X1.at(x0))


def test_transported_field_commuting_case(s2, s2_fields):
    _, X1, _ = s2_fields
    Y = constant_field(s2, [0.0, 1.0], "Y")
    x0 = s2.point([0.8, 0.3])
    for t in (0.3, 1.0, 2.0):
        assert np.max(np.abs(transported_field(Y, X1, x0, t) - X1.at(x0))) < 1e-10


def test_transport_consistency_identity(r2, rng):
    # dphi_T applied to the pullback at t equals the differential of the
    # remaining flow applied to the field at the intermediate point.
    Y = random_smooth_field(r2, rng)
    X = random_smooth_field(r2, rng)
    x0 = r2.point([0.2, 0.1])
    T, t = 1.0, 0.35
    J_T = flow_differential(Y, x0, T)
    z_t = transported_field(Y, X, x0, t)
    mid = flow(Y, x0, t).final_point
    rhs = flow_differential(Y, mid, T - t) @ X.at(mid)
    assert np.max(np.abs(J_T @ z_t - rhs)) <= 1e-7


def test_flow_differential_invertible(r2, s2, shear_fields, s2_fields, rng):
    cases = [
        (shear_fields[0], r2.point([1.0, 0.0]), 2.0),
        (constant_field(s2, [0.0, 1.0]), s2.point([0.8, 0.3]), 1.0),
        (random_smooth_field(r2, rng), r2.point([0.3, -0.2]), 1.0),
    ]
    for Y, x0, T in cases:
        J = flow_differential(Y, x0, T)
        assert np.linalg.svd(J, compute_uv=False)[-1] > 1e-10


def test_transported_derivatives_shear(r2, shear_fields):
    # Oracle by hand: [Y, X1] = -d/dx2, so the signed k=1 entry is (0, 1).
    Y, X1 = shear_fields
    out = transported_derivatives(Y, X1, r2.point([1.0, 0.0]), 1)
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(out[1], [0.0, 1.0], atol=1e-14)


def test_transported_derivatives_commuting(s2, s2_fields):
    _, X1, _ = s2_fields
    Y = constant_field(s2, [0.0, 1.0], "Y")
    out = transported_derivatives(Y, X1, s2.point([0.8, 0.3]), 3)
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-14)
    for entry in out[1:]:
        assert np.max(np.abs(entry)) < 1e-12


def test_transported_derivatives_entry_zero(r2, shear_fields, rng):
    Y, X1 = shear_fields
    x0 = r2.point([0.4, 1.2])
    out = transported_derivatives(Y, X1, x0, 0)
    assert len(out) == 1
    assert np.array_equal(out[0], X1.at(x0))


def test_transport_curve_derivative_is_bracket(r2, shear_fields):
    # The time derivative of the pullback curve at 0 is the bracket
    # [Y, X] itself: for the shear the curve is (1, -t), derivative
    # (0, -1) = [Y, X](x0).  The signed k=1 entry of
    # transported_derivatives is therefore its negative.
    Y, X1 = shear_fields
    x0 = r2.point([1.0, 0.0])
    dt = 1e-4
    fd = (transported_field(Y, X1, x0, dt) - transported_field(Y, X1, x0, -dt)) / (2 * dt)
    bracket = base_lie_bracket(Y, X1).at(x0)
    assert np.max(np.abs(fd - bracket)) <= 1e-4
    signed = transported_derivatives(Y, X1, x0, 1)[1]
    assert np.max(np.abs(fd + signed)) <= 1e-4


def test_transported_derivatives_depth_guard(r2):
    from tanlift import field_from_callable

    Y = field_from_callable(r2, lambda x: np.array([0.0, x[0]]))
    X = field_from_callable(r2, lambda x: np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        transported_derivatives(Y, X, r2.point([1.0, 0.0]), 7)


def test_pullback_vector_solves_a_stack_like_each_matrix():
    rng = np.random.default_rng(5)
    J = rng.uniform(-1.0, 1.0, (6, 1, 3, 3)) + 3.0 * np.eye(3)
    F = rng.uniform(-1.0, 1.0, (6, 2, 3, 1))
    stacked = pullback_vector(J, F)
    for k in range(6):
        for i in range(2):
            assert np.array_equal(stacked[k, i], pullback_vector(J[k, 0], F[k, i]))
    J[3, 0] = 0.0
    with pytest.raises(NumericalError, match=r"^flow differential is numerically singular \(cond = inf\)$"):
        pullback_vector(J, F)


def test_chart_checks_per_rk4_step(monkeypatch, s2, s2_fields):
    """Each RK4 stage of a moving base tests the chart once, and nothing else on these paths does.

    ``check`` is built on ``check_floats``, so counting the latter counts
    both.  A flow and a transport pass integrate the base (50 or 56 steps,
    one test per stage) and then the J pass; the lifted simulation
    integrates the base and then the fiber.  Neither second pass is
    tested.  A vertical base does not move, so only its fiber is
    integrated and nothing is tested beyond the initial point.
    """
    X0, X1, X2 = s2_fields
    lifted = LiftedSystem(s2, X0, (X1, X2))
    vertical = VerticalAffineSystem(s2, X0, (X1, X2))
    x0 = s2.point([0.8, 0.3])
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal.constant([0.4, -0.6], horizon=0.05)
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
    runs = {
        "flow": lambda: flow(X0, x0, 0.05),
        "simulate_lifted_ode": lambda: simulate_lifted_ode(lifted, v0, u),
        "simulate_vertical_ode": lambda: simulate_vertical_ode(vertical, v0, u),
        # 4 segments of 0.0125, each in an even 14 steps.
        "build_transport_grid": lambda: build_transport_grid(lifted, x0, 0.05, 4),
    }
    measured = {}
    for name, run in runs.items():
        counts.update(check=0, step=0)
        run()
        measured[name] = (counts["check"], counts["step"])
    assert measured == {
        "flow": (200, 100),
        "simulate_lifted_ode": (200, 100),
        "simulate_vertical_ode": (0, 50),
        "build_transport_grid": (224, 112),
    }


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_non_finite_horizons_are_rejected(s2, T):
    Y = constant_field(s2, [0.0, 1.0], "Y")
    X = constant_field(s2, [1.0, 0.0], "X1")
    lifted = LiftedSystem(s2, Y, (X,))
    vertical = VerticalAffineSystem(s2, Y, (X,))
    x0 = s2.point([0.8, 0.3])
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    calls = [
        lambda: IntegratorConfig().steps_for(T),
        lambda: flow(Y, x0, T),
        lambda: simulate_lifted_ode(lifted, v0, None, horizon=T),
        lambda: build_transport_grid(lifted, x0, T, 4),
        lambda: steer_lifted(lifted, v0, v0, T),
        lambda: reachable_vertical(vertical, v0, T),
        lambda: steer_vertical(vertical, v0, [0.0, 0.0], T),
        lambda: ControlSignal(horizon=T, values=[[1.0]]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=rf"horizon.*{T}"):
                call()
