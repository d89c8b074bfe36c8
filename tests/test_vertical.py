import math

import numpy as np
import pytest

from tanlift import (
    ControlSignal,
    GeneralVerticalSystem,
    IntegratorConfig,
    UnreachableTargetError,
    VerticalAffineSystem,
    constant_field,
    field_from_expressions,
    fiber_controllable_vertical,
    reachable_vertical,
    simulate_vertical_ode,
    solve_vertical_closed_form,
    steer_vertical,
)


@pytest.fixture
def s2_system(s2, s2_fields):
    X0, X1, X2 = s2_fields
    return VerticalAffineSystem(manifold=s2, drift=X0, controls=(X1, X2))


def _rk4_fiber_oracle(rhs, y0, T, steps=2000):
    """Independent fixed-step RK4 on the fiber block alone."""
    y = np.asarray(y0, dtype=float)
    h = T / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def test_closed_form_no_dynamics(r2):
    sys = VerticalAffineSystem(r2, constant_field(r2, [0.0, 0.0]), (constant_field(r2, [1.0, 0.0]),))
    v0 = r2.tangent_point([0.5, 0.5], [1.0, 2.0])
    u = ControlSignal.zero(1, horizon=2.0)
    for t in (0.0, 0.7, 2.0):
        out = solve_vertical_closed_form(sys, v0, u, t)
        assert np.array_equal(out.fiber, v0.fiber)
        assert np.array_equal(out.base.coords, v0.base.coords)


def test_closed_form_s2_example(s2, s2_system):
    # Fiber velocity is (cos phi0 + u1, sin theta0 + u2), constant in time.
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal.constant([0.7, -0.3], horizon=1.5)
    for t in (0.4, 1.5):
        out = solve_vertical_closed_form(s2_system, v0, u, t)
        expected = v0.fiber + t * np.array([math.cos(0.3) + 0.7, math.sin(0.8) - 0.3])
        assert np.max(np.abs(out.fiber - expected)) < 1e-12


def test_closed_form_matches_independent_rk4(r2):
    # Oracle: RK4 on the lifted fiber ODE dy/dt = u1(t) X1(x0).
    sys = VerticalAffineSystem(r2, constant_field(r2, [0.0, 0.0]), (constant_field(r2, [1.0, 0.0]),))
    v0 = r2.tangent_point([0.0, 0.0], [0.3, 0.4])
    u = ControlSignal.constant([1.0], horizon=1.0)
    oracle = _rk4_fiber_oracle(lambda t, y: np.array([1.0, 0.0]), v0.fiber, 1.0)
    out = solve_vertical_closed_form(sys, v0, u, 1.0)
    assert np.max(np.abs(out.fiber - oracle)) < 1e-12
    assert np.max(np.abs(out.fiber - (v0.fiber + [1.0, 0.0]))) < 1e-12


def test_closed_form_time_window_enforced(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.0, 0.0])
    u = ControlSignal.constant([0.0, 0.0], horizon=1.0)
    with pytest.raises(ValueError):
        solve_vertical_closed_form(s2_system, v0, u, 1.5)
    with pytest.raises(ValueError):
        solve_vertical_closed_form(s2_system, v0, u, -0.1)


def test_closed_form_piecewise_integrals(r2):
    sys = VerticalAffineSystem(r2, constant_field(r2, [0.0, 0.0]), (constant_field(r2, [1.0, 0.0]),))
    v0 = r2.tangent_point([0.0, 0.0], [0.0, 0.0])
    u = ControlSignal(horizon=1.0, values=np.array([[1.0], [-1.0], [2.0], [0.0]]))
    out = solve_vertical_closed_form(sys, v0, u, 0.625)
    # integral: 0.25*1 - 0.25*1 + 0.125*2 = 0.25
    assert np.max(np.abs(out.fiber - [0.25, 0.0])) < 1e-15


def test_ode_matches_closed_form(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal(horizon=1.0, values=np.array([[0.7, -0.3], [-0.2, 0.5]]))
    traj = simulate_vertical_ode(s2_system, v0, u)
    closed = solve_vertical_closed_form(s2_system, v0, u, 1.0)
    assert np.max(np.abs(traj.final.fiber - closed.fiber)) <= 1e-9


def test_ode_base_exactly_constant(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal.constant([0.7, -0.3], horizon=1.0)
    traj = simulate_vertical_ode(s2_system, v0, u)
    assert np.all(traj.bases == traj.bases[0])


def test_ode_pure_drift_translates_fiber(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.0, 0.0])
    u = ControlSignal.zero(2, horizon=1.0)
    traj = simulate_vertical_ode(s2_system, v0, u)
    expected = v0.fiber + np.array([math.cos(0.3), math.sin(0.8)])
    assert np.max(np.abs(traj.final.fiber - expected)) <= 1e-9


def test_general_vertical_damping(s2):
    sys = GeneralVerticalSystem(s2, lambda x, y, u: -1.0 * y, control_dim=0)
    v0 = s2.tangent_point([math.pi / 2, 0.0], [1.0, 1.0])
    traj = simulate_vertical_ode(sys, v0, None, IntegratorConfig(step=1e-3), horizon=1.0)
    assert abs(traj.final.fiber[0] - math.exp(-1.0)) <= 1e-8
    assert abs(traj.final.fiber[1] / traj.fibers[0][1] - math.exp(-1.0)) <= 1e-8
    assert np.all(traj.bases == traj.bases[0])


@pytest.mark.parametrize("dynamics", [lambda x, y, u: -1.0, lambda x, y, u: np.concatenate([y, y])])
def test_general_vertical_dynamics_of_the_wrong_shape_are_rejected(s2, dynamics):
    # One value per fiber coordinate: a scalar or a longer vector is not a fiber velocity.
    sys = GeneralVerticalSystem(s2, dynamics, control_dim=0)
    v0 = s2.tangent_point([0.6, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^fiber dynamics must return 2 values, got shape \((4,)?\)$"):
        simulate_vertical_ode(sys, v0, None, horizon=0.1)


def test_general_vertical_theta_dependent(s2):
    # dy1/dt = -y1 + u1, dy2/dt = -sin(theta) y2 + u2, no control here.
    def dyn(x, y, u):
        return np.array([-y[0], -math.sin(x[0]) * y[1]])

    sys = GeneralVerticalSystem(s2, dyn, control_dim=0)
    theta0 = 0.6
    v0 = s2.tangent_point([theta0, 0.0], [2.0, 2.0])
    traj = simulate_vertical_ode(sys, v0, None, horizon=1.0)
    assert abs(traj.final.fiber[0] - 2.0 * math.exp(-1.0)) <= 1e-8
    assert abs(traj.final.fiber[1] - 2.0 * math.exp(-math.sin(theta0))) <= 1e-8


def test_reachable_full_rank(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    rset = reachable_vertical(s2_system, v0, 1.0)
    assert rset.basis.rank == 2
    expected_anchor = v0.fiber + np.array([math.cos(0.3), math.sin(0.8)])
    assert np.max(np.abs(rset.anchor.fiber - expected_anchor)) < 1e-12
    assert np.array_equal(rset.anchor.base.coords, v0.base.coords)


def test_reachable_rank_deficient(s2, s2_fields):
    X0, X1, _ = s2_fields
    sys = VerticalAffineSystem(s2, X0, (X1,))
    rset = reachable_vertical(sys, s2.tangent_point([0.8, 0.3], [0.0, 0.0]), 1.0)
    assert rset.basis.rank == 1


def test_reachable_collinear_controls(s2, s2_fields):
    X0, X1, _ = s2_fields
    double = field_from_expressions(s2, ["2", "0"], "2X1")
    sys = VerticalAffineSystem(s2, X0, (X1, double))
    rset = reachable_vertical(sys, s2.tangent_point([0.8, 0.3], [0.0, 0.0]), 1.0)
    assert rset.basis.rank == 1


def test_rank_test_consistency(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.0, 0.0])
    report = fiber_controllable_vertical(s2_system, v0.base)
    rset = reachable_vertical(s2_system, v0, 1.0)
    assert report.controllable == (rset.basis.rank == s2.dim)


def test_rank_test_point_dependent_fields(s2):
    # Oracle: the 2x2 determinant of the control matrix at (pi/2, 0).
    c1 = field_from_expressions(s2, ["cos(x2)", "0"], "C1")
    c2 = field_from_expressions(s2, ["0", "sin(x1)"], "C2")
    sys = VerticalAffineSystem(s2, constant_field(s2, [0.0, 0.0]), (c1, c2))
    x = s2.point([math.pi / 2, 0.0])
    det = np.linalg.det(np.column_stack([c1.at(x), c2.at(x)]))
    assert abs(det - 1.0) < 1e-12
    assert fiber_controllable_vertical(sys, x).controllable


def test_single_control_not_controllable(s2, s2_fields):
    X0, X1, _ = s2_fields
    sys = VerticalAffineSystem(s2, X0, (X1,))
    report = fiber_controllable_vertical(sys, s2.point([0.8, 0.3]))
    assert not report.controllable
    assert report.basis.rank == 1


def test_steer_drift_only_target_gives_zero_control(s2, s2_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    T = 1.3
    target = v0.fiber + T * s2_system.drift.at(v0.base)
    signal = steer_vertical(s2_system, v0, target, T)
    assert np.max(np.abs(signal.values)) < 1e-12


def test_steer_round_trips_random_targets(s2, s2_system, rng):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    T = 1.0
    for _ in range(20):
        target = rng.uniform(-3, 3, size=2)
        signal = steer_vertical(s2_system, v0, target, T)
        reached = solve_vertical_closed_form(s2_system, v0, signal, T)
        assert np.max(np.abs(reached.fiber - target)) <= 1e-10


def test_steer_minimum_norm_with_redundant_controls(s2, s2_fields, rng):
    X0, X1, X2 = s2_fields
    extra = field_from_expressions(s2, ["1", "1"], "X3")
    sys = VerticalAffineSystem(s2, X0, (X1, X2, extra))
    v0 = s2.tangent_point([0.8, 0.3], [0.0, 0.0])
    target = rng.uniform(-1, 1, size=2)
    signal = steer_vertical(sys, v0, target, 1.0)
    reached = solve_vertical_closed_form(sys, v0, signal, 1.0)
    assert np.max(np.abs(reached.fiber - target)) <= 1e-10


def test_steer_unreachable_off_span(r2):
    sys = VerticalAffineSystem(r2, constant_field(r2, [0.0, 0.0]), (constant_field(r2, [1.0, 0.0]),))
    v0 = r2.tangent_point([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(UnreachableTargetError):
        steer_vertical(sys, v0, [0.0, 1.0], 1.0)


def test_reachable_membership_of_random_endpoints(s2, s2_system, rng):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    T = 1.0
    rset = reachable_vertical(s2_system, v0, T)
    for _ in range(100):
        u = ControlSignal(horizon=T, values=rng.uniform(-2, 2, size=(4, 2)))
        end = solve_vertical_closed_form(s2_system, v0, u, T)
        residual = rset.basis.residual_of(end.fiber - rset.anchor.fiber)
        assert residual <= 1e-10


def test_projection_of_reachable_set_is_initial_base(s2, s2_system, rng):
    # Fiberwise only: every trajectory and every reachable anchor stays
    # over the initial base point, so no other fiber can be entered.
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    rset = reachable_vertical(s2_system, v0, 2.0)
    assert np.array_equal(rset.anchor.base.coords, v0.base.coords)
    for _ in range(10):
        u = ControlSignal(horizon=1.0, values=rng.uniform(-5, 5, size=(3, 2)))
        end = solve_vertical_closed_form(s2_system, v0, u, 1.0)
        assert np.array_equal(end.base.coords, v0.base.coords)
        traj = simulate_vertical_ode(s2_system, v0, u)
        assert np.all(traj.bases == v0.base.coords)


def test_system_validates_control_count(s2, s2_fields):
    X0, _, _ = s2_fields
    with pytest.raises(ValueError):
        VerticalAffineSystem(s2, X0, ())
