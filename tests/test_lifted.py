import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from tanlift import (
    AlignmentError,
    ControlSignal,
    DomainExitError,
    IntegratorConfig,
    LiftedSystem,
    NumericalError,
    StepBudgetError,
    TangentPoint,
    TargetBaseError,
    UnreachableTargetError,
    ad_criterion,
    apply_LT,
    base_lie_bracket,
    build_transport_grid,
    builtin_manifold,
    constant_field,
    endpoint_closed_form,
    fiber_controllability_report,
    field_from_callable,
    field_from_expressions,
    flow_differential,
    simulate_lifted_ode,
    steer_lifted,
    transported_derivatives,
    transported_field,
)
from tanlift import flows, lifted

from conftest import random_smooth_field


@pytest.fixture
def shear_system(r2, shear_fields):
    Y, X1 = shear_fields
    return LiftedSystem(manifold=r2, drift=Y, controls=(X1,))


@pytest.fixture
def commuting_system(s2, s2_fields):
    _, X1, X2 = s2_fields
    Y = constant_field(s2, [0.0, 1.0], "Y")
    return LiftedSystem(manifold=s2, drift=Y, controls=(X1, X2))


def _rk4_oracle(rhs, z0, T, steps=4000):
    """Independent fixed-step RK4, separate from the package integrator."""
    z = np.asarray(z0, dtype=float)
    h = T / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, z)
        k2 = rhs(t + h / 2, z + h / 2 * k1)
        k3 = rhs(t + h / 2, z + h / 2 * k2)
        k4 = rhs(t + h, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return z


def _shear_rhs(u_value):
    # dx=0 is wrong for the base here: the shear base moves as dy = x.
    def rhs(t, z):
        x, y, vx, vy = z
        return np.array([0.0, x, u_value, vx])

    return rhs


def test_endpoint_commuting_example(s2, commuting_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal(horizon=1.0, values=np.array([[0.4, -0.6], [0.1, 0.2]]))
    end = endpoint_closed_form(commuting_system, v0, u)
    integrals = u.integral(1.0)
    assert np.max(np.abs(end.base.coords - [0.8, 1.3])) < 1e-10
    assert np.max(np.abs(end.fiber - (v0.fiber + integrals))) < 1e-9


def test_endpoint_zero_control_is_flow_differential_transport(r2, shear_system):
    v0 = r2.tangent_point([1.0, 0.0], [0.3, 0.7])
    end = endpoint_closed_form(shear_system, v0, None, horizon=1.0)
    J = flow_differential(shear_system.drift, v0.base, 1.0)
    assert np.max(np.abs(end.fiber - J @ v0.fiber)) < 1e-9


def test_endpoint_shear_against_independent_oracle(r2, shear_system):
    # Oracle: brute-force RK4 on (dx, dy, dvx, dvy) = (0, x, u, vx).
    T = 1.0
    u = ControlSignal.constant([1.0], horizon=T)
    for fiber0, expected in (([0.0, 1.0], [1.0, 1.5]), ([0.0, 0.0], [1.0, 0.5])):
        v0 = r2.tangent_point([1.0, 0.0], fiber0)
        oracle = _rk4_oracle(_shear_rhs(1.0), [1.0, 0.0, *fiber0], T)
        assert np.max(np.abs(oracle[2:] - expected)) < 1e-12
        end = endpoint_closed_form(shear_system, v0, u)
        assert np.max(np.abs(end.fiber - oracle[2:])) <= 1e-7
        assert np.max(np.abs(end.fiber - expected)) <= 1e-7


def test_ode_matches_closed_form_on_both_examples(r2, s2, shear_system, commuting_system):
    cases = [
        (shear_system, r2.tangent_point([1.0, 0.0], [0.0, 1.0]), np.array([[1.0]])),
        (
            commuting_system,
            s2.tangent_point([0.8, 0.3], [0.2, -0.1]),
            np.array([[0.4, -0.6], [0.1, 0.2]]),
        ),
    ]
    for sys, v0, values in cases:
        u = ControlSignal(horizon=1.0, values=values)
        closed = endpoint_closed_form(sys, v0, u)
        ode = simulate_lifted_ode(sys, v0, u).final
        assert np.max(np.abs(closed.fiber - ode.fiber)) <= 1e-7
        assert np.max(np.abs(closed.base.coords - ode.base.coords)) <= 1e-7


def test_ode_constant_drift_keeps_fiber_without_control(s2, commuting_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    traj = simulate_lifted_ode(commuting_system, v0, None, horizon=1.0)
    assert np.max(np.abs(traj.final.fiber - v0.fiber)) < 1e-12


def test_base_trajectory_independent_of_control(r2, shear_system, rng):
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    u1 = ControlSignal(horizon=1.0, values=rng.uniform(-2, 2, (4, 1)))
    u2 = ControlSignal(horizon=1.0, values=rng.uniform(-2, 2, (4, 1)))
    t1 = simulate_lifted_ode(shear_system, v0, u1)
    t2 = simulate_lifted_ode(shear_system, v0, u2)
    assert np.max(np.abs(t1.bases - t2.bases)) <= 1e-12


def test_endpoint_agrees_with_ode_on_random_systems(r2, rng):
    from tanlift import IntegratorConfig

    cfg = IntegratorConfig(step=5e-3)
    for _ in range(20):
        Y = random_smooth_field(r2, rng, "Y")
        X1 = random_smooth_field(r2, rng, "X1")
        sys = LiftedSystem(r2, Y, (X1,))
        v0 = r2.tangent_point(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        u = ControlSignal(horizon=1.0, values=rng.uniform(-1, 1, (4, 1)))
        closed = endpoint_closed_form(sys, v0, u, cfg)
        ode = simulate_lifted_ode(sys, v0, u, cfg).final
        scale = 1.0 + np.linalg.norm(ode.fiber)
        assert np.max(np.abs(closed.fiber - ode.fiber)) <= 1e-6 * scale


def test_transport_grid_shear_nodes(r2, shear_system):
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), 1.0, 8)
    for k, t in enumerate(grid.times):
        assert np.max(np.abs(grid.transported[k, 0] - [1.0, -t])) < 1e-9


def test_transport_grid_commuting_columns(s2, commuting_system):
    x0 = s2.point([0.8, 0.3])
    grid = build_transport_grid(commuting_system, x0, 1.0, 8)
    J_T = grid.endpoint_jacobian
    for i, X in enumerate(commuting_system.controls):
        expected = J_T @ X.at(x0)
        for k in range(len(grid.times)):
            assert np.max(np.abs(grid.columns[k, i] - expected)) < 1e-10


@pytest.mark.parametrize("chart", ["r2", "s2"])
def test_transport_columns_are_the_per_vector_push_forward(request, rng, chart):
    manifold = request.getfixturevalue(chart)
    Y, X1, X2 = (random_smooth_field(manifold, rng, name) for name in ("Y", "X1", "X2"))
    sys = LiftedSystem(manifold, Y, (X1, X2))
    low, high = manifold.sample_box()
    for _ in range(5):
        # The middle half of the sampling box keeps a T = 0.2 flow inside the chart.
        x0 = manifold.point(low + (high - low) * rng.uniform(0.25, 0.75, 2))
        grid = build_transport_grid(sys, x0, 0.2, 6)
        J_T = grid.endpoint_jacobian
        expected = np.array([[J_T @ w for w in row] for row in grid.transported])
        assert np.array_equal(grid.columns, expected)


def test_transport_grid_start_node_is_field_value(r2, shear_system):
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), 1.0, 2)
    assert np.max(np.abs(grid.transported[0, 0] - [1.0, 0.0])) < 1e-12


def test_transport_grid_requires_segments_and_horizon(r2, shear_system):
    with pytest.raises(ValueError):
        build_transport_grid(shear_system, r2.point([1.0, 0.0]), 1.0, 1)
    with pytest.raises(ValueError):
        build_transport_grid(shear_system, r2.point([1.0, 0.0]), 0.0, 4)


def test_transport_grid_columns_match_transported_field(r2, shear_system):
    # Consistency of the grid with the one-off transport computation.
    x0 = r2.point([1.0, 0.0])
    T = 1.0
    grid = build_transport_grid(shear_system, x0, T, 8)
    J_T = flow_differential(shear_system.drift, x0, T)
    for k, t in enumerate(grid.times):
        z = transported_field(shear_system.drift, shear_system.controls[0], x0, t)
        assert np.max(np.abs(grid.columns[k, 0] - J_T @ z)) <= 1e-7


def test_transport_chain_rule_identity_on_both_examples(r2, s2, shear_system, commuting_system):
    cases = [
        (shear_system, r2.point([1.0, 0.0])),
        (commuting_system, s2.point([0.8, 0.3])),
    ]
    T = 1.0
    for sys, x0 in cases:
        grid = build_transport_grid(sys, x0, T, 8)
        worst = 0.0
        for k, t in enumerate(grid.times):
            mid = grid.point(k)
            remaining = flow_differential(sys.drift, mid, T - t)
            for i, X in enumerate(sys.controls):
                rhs = remaining @ X.at(mid)
                worst = max(worst, np.max(np.abs(grid.columns[k, i] - rhs)))
        assert worst <= 1e-7


def test_singular_flow_differential_is_numerical_error(r2):
    # x1' = -1000 x1 contracts by about 0.375 per RK4 step of about 1e-3, so J_t
    # underflows to diag(0, 1) well before T = 1.
    Y = field_from_expressions(r2, ["-1000*x1", "0"], "Y")
    X1 = field_from_expressions(r2, ["1", "0"], "X1")
    sys = LiftedSystem(r2, Y, (X1,))
    with pytest.raises(NumericalError, match=r"^flow differential is numerically singular \(cond = inf\)$"):
        build_transport_grid(sys, r2.point([1.0, 0.0]), 1.0, 8)


def test_apply_LT_zero_control(r2, shear_system):
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), 1.0, 16)
    out = apply_LT(grid, ControlSignal.zero(1, horizon=1.0, segments=4))
    assert np.max(np.abs(out)) == 0.0


def test_apply_LT_is_linear(r2, shear_system, rng):
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), 1.0, 16)
    u1 = ControlSignal(horizon=1.0, values=rng.normal(size=(8, 1)))
    u2 = ControlSignal(horizon=1.0, values=rng.normal(size=(8, 1)))
    a, b = 0.3, -1.7
    combo = ControlSignal(horizon=1.0, values=a * u1.values + b * u2.values)
    lhs = apply_LT(grid, combo)
    rhs = a * apply_LT(grid, u1) + b * apply_LT(grid, u2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_apply_LT_matches_endpoint_quadrature(r2, shear_system, rng):
    # L_T(u) is the control-dependent part of the endpoint fiber.
    v0 = r2.tangent_point([1.0, 0.0], [0.4, -0.2])
    T = 1.0
    u = ControlSignal(horizon=T, values=rng.uniform(-1, 1, (8, 1)))
    grid = build_transport_grid(shear_system, v0.base, T, 64)
    lt = apply_LT(grid, u)
    end = endpoint_closed_form(shear_system, v0, u)
    J_T = grid.endpoint_jacobian
    assert np.max(np.abs(end.fiber - (J_T @ v0.fiber + lt))) <= 1e-7


def test_apply_LT_bump_converges_to_column(r2, shear_system):
    T = 1.0
    N = 64
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), T, N)
    reference = grid.columns[N // 2, 0]
    errors = []
    eps_list = [T / 8, T / 16, T / 32]
    for eps in eps_list:
        segments = int(round(T / eps))
        bump = ControlSignal.bump(T, segments, segments // 2, 0, 1)
        errors.append(np.linalg.norm(apply_LT(grid, bump) - reference))
    assert errors[0] > errors[1] > errors[2]
    order = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    assert order >= 0.9


def test_apply_LT_control_refining_grid(r2, shear_system):
    # Finer control than the grid integrates against the interpolated columns.
    T = 1.0
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), T, 8)
    coarse = ControlSignal.constant([1.0], horizon=T, segments=8)
    fine = ControlSignal.constant([1.0], horizon=T, segments=32)
    out_c = apply_LT(grid, coarse)
    out_f = apply_LT(grid, fine)
    assert np.max(np.abs(out_c - out_f)) <= 1e-9


def test_apply_LT_odd_spans_are_linear_and_their_error_falls(s2, s2_fields):
    # An odd span > 1 is composite Simpson plus one trapezoid tail.  The
    # sphere drift bends the columns, so the tail is not exact; its error
    # against the closed form must still fall as the span grows.
    X0, X1, X2 = s2_fields
    system = LiftedSystem(s2, X0, (X1, X2))
    v0 = s2.tangent_point([0.8, 0.3], [0.0, 0.0])
    u = ControlSignal(horizon=1.0, values=np.array([[0.7, -0.4], [0.2, 1.1]]))
    w = ControlSignal(horizon=1.0, values=np.array([[-0.3, 0.5], [1.2, 0.1]]))
    reference = endpoint_closed_form(system, v0, u).fiber
    errors = []
    for span in (3, 5, 7):
        grid = build_transport_grid(system, v0.base, 1.0, 2 * span)
        errors.append(np.max(np.abs(apply_LT(grid, u) - reference)))
        combo = ControlSignal(horizon=1.0, values=0.3 * u.values - 1.7 * w.values)
        assert np.allclose(apply_LT(grid, combo), 0.3 * apply_LT(grid, u) - 1.7 * apply_LT(grid, w), atol=1e-14)
    assert errors[0] > errors[1] > errors[2] and errors[0] <= 1e-3


def test_apply_LT_alignment_errors(r2, shear_system):
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), 1.0, 64)
    with pytest.raises(AlignmentError):
        apply_LT(grid, ControlSignal.constant([1.0], horizon=1.0, segments=7))
    with pytest.raises(AlignmentError):
        apply_LT(grid, ControlSignal.constant([1.0], horizon=2.0, segments=64))


def _transport_span(sys, x0, T, N):
    v0 = TangentPoint(x0, np.zeros(sys.manifold.dim))
    return fiber_controllability_report(sys, v0, T, N=N).s_t_basis


def test_S_T_span_shear_full_rank(r2, shear_system):
    for T in (0.1, 1.0, 5.0):
        basis = _transport_span(shear_system, r2.point([1.0, 0.0]), T, N=8)
        assert basis.rank == 2


def test_S_T_span_commuting_full_rank(s2, commuting_system):
    basis = _transport_span(commuting_system, s2.point([0.8, 0.3]), 1.0, N=8)
    assert basis.rank == 2


def test_S_T_span_single_invariant_direction(s2, s2_fields):
    _, X1, _ = s2_fields
    Y = constant_field(s2, [0.0, 1.0], "Y")
    sys = LiftedSystem(s2, Y, (X1,))
    basis = _transport_span(sys, s2.point([0.8, 0.3]), 1.0, N=8)
    assert basis.rank == 1


def test_S_T_span_needs_enough_nodes(r2, shear_system):
    # Too few segments to resolve full rank: the report samples dim of them.
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 0.0])
    report = fiber_controllability_report(shear_system, v0, 1.0, N=1)
    assert report.grid_segments == 2
    assert report.s_t_basis.rank == 2


def test_S_T_rank_monotone_in_horizon(r2, rng):
    Y = random_smooth_field(r2, rng, "Y")
    X1 = random_smooth_field(r2, rng, "X1")
    sys = LiftedSystem(r2, Y, (X1,))
    x0 = r2.point([0.1, 0.2])
    ranks = [_transport_span(sys, x0, T, N=8).rank for T in (0.25, 0.5, 1.0)]
    assert ranks == sorted(ranks)


def test_ad_criterion_shear(r2, shear_system):
    result = ad_criterion(shear_system, r2.point([1.0, 0.0]))
    assert result.satisfied
    assert result.depth == 1
    # Generators at depth <= 1 are (1, 0) and [Y, X1] = (0, -1).
    assert np.allclose(result.basis.vectors[:2], [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)


def test_ad_criterion_commuting_at_depth_zero(s2, commuting_system):
    result = ad_criterion(commuting_system, s2.point([0.8, 0.3]))
    assert result.satisfied
    assert result.depth == 0
    assert result.k_used == 0


def test_ad_criterion_degenerate_control_equals_drift(s2):
    # [Y, Y] = 0 is a proof only for a symbolic field; numeric brackets run to k_max.
    symbolic = field_from_expressions(s2, ["0", "1"], "Y")
    numeric = constant_field(s2, [0.0, 1.0], "Y")
    for Y, saturated, k_used in ((symbolic, True, 1), (numeric, False, 4)):
        result = ad_criterion(LiftedSystem(s2, Y, (Y,)), s2.point([0.8, 0.3]))
        assert not result.satisfied
        assert result.basis.rank == 1
        assert (result.saturated, result.k_used) == (saturated, k_used)


@pytest.mark.parametrize("power", [3, 5])
def test_ad_criterion_runs_past_a_rank_stall(r2, power):
    # The rank stays 1 up to depth power - 1; ad_Y^power X = (0, power!) fills it.
    Y = field_from_expressions(r2, ["1", "0"], "Y")
    X = field_from_expressions(r2, ["1", f"pow(x1, {power})"], "X1")
    result = ad_criterion(LiftedSystem(r2, Y, (X,)), r2.point([0.0, 0.0]), 8)
    assert result.satisfied
    assert not result.saturated
    assert result.depth == result.k_used == power


def test_ad_criterion_commuting_pair_saturates_at_depth_one(r2):
    Y = field_from_expressions(r2, ["1", "0"], "Y")
    X = field_from_expressions(r2, ["exp(x2)", "0"], "X1")
    result = ad_criterion(LiftedSystem(r2, Y, (X,)), r2.point([0.0, 0.0]), 8)
    assert not result.satisfied
    assert result.saturated
    assert (result.basis.rank, result.k_used) == (1, 1)


@pytest.mark.parametrize("zero", ["0", "0.0"])
def test_ad_criterion_zero_control_saturates_at_depth_zero(r2, zero):
    # sympy's Float(0.0) == 0 is False, but 0.0 is a structural zero as 0 is.
    Y = field_from_expressions(r2, ["0", "x1"], "Y")
    X = field_from_expressions(r2, [zero, zero], "X1")
    result = ad_criterion(LiftedSystem(r2, Y, (X,)), r2.point([1.0, 0.0]))
    assert result.saturated
    assert (result.basis.rank, result.depth, result.k_used) == (0, 0, 0)


def test_ad_criterion_depth_guard(r2, shear_system):
    # The same rule as transported_derivatives: depth > 6 needs symbolic fields.
    Y = field_from_callable(r2, lambda x: np.array([0.0, x[0]]), name="Y")
    X = field_from_callable(r2, lambda x: np.array([1.0, 0.0]), name="X1")
    x0 = r2.point([1.0, 0.0])
    message = r"^bracket depth > 6 needs fields with symbolic coefficients$"
    with pytest.raises(ValueError, match=message):
        ad_criterion(LiftedSystem(r2, Y, (X,)), x0, 7)
    with pytest.raises(ValueError, match=message):
        transported_derivatives(Y, X, x0, 7)
    assert ad_criterion(shear_system, x0, 7).satisfied


def test_controllability_report_shear(r2, shear_system):
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    for T in (0.1, 1.0, 5.0):
        report = fiber_controllability_report(shear_system, v0, T, N=16)
        assert report.verdict_transport
        assert report.caveat is None
    ad = ad_criterion(shear_system, v0.base)
    assert ad.satisfied
    assert ad.depth == 1


def test_controllability_report_commuting(s2, commuting_system):
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    report = fiber_controllability_report(commuting_system, v0, 1.0, N=16)
    assert report.verdict_transport
    ad = ad_criterion(commuting_system, v0.base)
    assert ad.satisfied
    assert ad.depth == 0
    assert np.max(np.abs(report.anchor.base.coords - [0.8, 1.3])) < 1e-10
    assert np.max(np.abs(report.anchor.fiber - v0.fiber)) < 1e-10


def test_controllability_report_degenerate(s2):
    Y = constant_field(s2, [0.0, 1.0], "Y")
    sys = LiftedSystem(s2, Y, (Y,))
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    report = fiber_controllability_report(sys, v0, 1.0, N=16)
    assert not report.verdict_transport
    assert not ad_criterion(sys, v0.base).satisfied
    assert report.caveat is not None and "grid-sampled" in report.caveat


def test_report_image_rank_matches_transport_rank(r2, s2, shear_system, commuting_system, rng):
    systems = [
        (shear_system, r2.tangent_point([1.0, 0.0], [0.0, 1.0])),
        (commuting_system, s2.tangent_point([0.8, 0.3], [0.2, -0.1])),
    ]
    Y = random_smooth_field(r2, rng, "Y")
    X1 = random_smooth_field(r2, rng, "X1")
    systems.append(
        (LiftedSystem(r2, Y, (X1,)), r2.tangent_point([0.0, 0.0], [1.0, 0.0]))
    )
    for sys, v0 in systems:
        report = fiber_controllability_report(sys, v0, 1.0, N=16)
        assert report.image_basis.rank == report.s_t_basis.rank


def test_ad_criterion_implies_transport_verdict(r2, s2, shear_system, commuting_system):
    cases = [
        (shear_system, r2.tangent_point([1.0, 0.0], [0.0, 1.0])),
        (commuting_system, s2.tangent_point([0.8, 0.3], [0.2, -0.1])),
    ]
    for sys, v0 in cases:
        for T in (0.5, 1.0, 2.0):
            report = fiber_controllability_report(sys, v0, T, N=16)
            if ad_criterion(sys, v0.base).satisfied:
                assert report.verdict_transport


def test_transport_curve_derivative_cross_check(r2, shear_system):
    # d/dt of the pullback curve at 0 equals the bracket [Y, X1](x0).
    Y, X1 = shear_system.drift, shear_system.controls[0]
    x0 = r2.point([1.0, 0.0])
    dt = 1e-4
    fd = (transported_field(Y, X1, x0, dt) - transported_field(Y, X1, x0, -dt)) / (2 * dt)
    assert np.max(np.abs(fd - base_lie_bracket(Y, X1).at(x0))) <= 1e-4


def test_steer_round_trip(r2, shear_system):
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    T = 1.0
    u_known = ControlSignal(horizon=T, values=np.array([[0.7], [-0.4], [1.2], [0.1]]))
    known_end = endpoint_closed_form(shear_system, v0, u_known)
    recovered = steer_lifted(shear_system, v0, known_end, T, N=8)
    reached = endpoint_closed_form(shear_system, v0, recovered)
    assert np.max(np.abs(reached.fiber - known_end.fiber)) <= 1e-7
    assert np.max(np.abs(reached.base.coords - known_end.base.coords)) <= 1e-7


def test_steer_rejects_wrong_base(r2, shear_system):
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    bad_target = r2.tangent_point([2.0, 2.0], [0.0, 0.0])
    with pytest.raises(TargetBaseError, match="fixed by the drift"):
        steer_lifted(shear_system, v0, bad_target, 1.0, N=8)


@pytest.mark.parametrize(
    "T, N, message",
    [(1.0, 0, "at least 1 grid segment"), (1.0, -2, "at least 1 grid segment"), (-1.0, 8, "horizon")],
)
def test_steer_rejects_empty_grid_or_horizon(r2, shear_system, T, N, message):
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    target = r2.tangent_point([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match=message):
        steer_lifted(shear_system, v0, target, T, N=N)


@pytest.mark.parametrize("call", ["build_transport_grid", "steer_lifted"])
def test_a_grid_over_the_step_budget_is_rejected_before_its_nodes_exist(r2, shear_system, call):
    # 10**21 + 1 nodes are more than numpy can allocate.
    N = 10**21
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    calls = {
        "build_transport_grid": lambda: build_transport_grid(shear_system, v0.base, 1.0, N),
        "steer_lifted": lambda: steer_lifted(shear_system, v0, v0, 1.0, N=N),
    }
    message = rf"^horizon 1\.0 on {N} grid segments needs at least {2 * N} steps, budget is 1000000$"
    with pytest.raises(StepBudgetError, match=message):
        calls[call]()


def test_steer_zero_defect_gives_zero_control(r2, shear_system):
    v0 = r2.tangent_point([1.0, 0.0], [0.3, -0.5])
    end = endpoint_closed_form(shear_system, v0, None, horizon=1.0)
    signal = steer_lifted(shear_system, v0, end, 1.0, N=8)
    assert np.max(np.abs(signal.values)) <= 1e-9


def test_steer_unreachable_direction(s2):
    # With the control invariant along the drift, only one direction moves.
    Y = constant_field(s2, [0.0, 1.0], "Y")
    X1 = constant_field(s2, [1.0, 0.0], "X1")
    sys = LiftedSystem(s2, Y, (X1,))
    v0 = s2.tangent_point([0.8, 0.3], [0.0, 0.0])
    target = s2.tangent_point([0.8, 1.3], [0.0, 1.0])
    with pytest.raises(UnreachableTargetError):
        steer_lifted(sys, v0, target, 1.0, N=8)


@pytest.fixture
def count_passes(monkeypatch):
    """The number of ``integrate_fixed`` calls so far: one per segment of each RK4 pass.

    A transport pass is two RK4 passes, the drift record and its J pass.
    """
    calls = []
    integrate = flows.integrate_fixed

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(flows, "integrate_fixed", counting)
    return lambda: len(calls)


def test_grid_then_steering_runs_one_transport_pass(r2, shear_system, count_passes):
    v0 = r2.tangent_point([1.0, 0.0], [0.0, 1.0])
    grid = build_transport_grid(shear_system, v0.base, 0.3, 8)
    target = r2.tangent_point(grid.final_coords, [0.2, 0.5])
    assert count_passes() == 16
    steer = steer_lifted(shear_system, v0, target, 0.3, N=8)
    endpoint_closed_form(shear_system, v0, steer)
    assert count_passes() == 16
    assert build_transport_grid(shear_system, r2.point([1.0, 0.0]), 0.3, 8) is grid


def test_shared_pass_gives_the_bits_of_a_fresh_one(s2, s2_fields):
    X0, X1, X2 = s2_fields
    system = LiftedSystem(s2, X0, (X1, X2))
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal(horizon=0.2, values=np.array([[0.4, -0.6], [0.1, 0.2], [-1.0, 0.5]]))

    def run(fresh):
        out = []
        for call in (
            lambda: build_transport_grid(system, v0.base, 0.2, 6),
            lambda: endpoint_closed_form(system, v0, u),
            lambda: steer_lifted(system, v0, out[1], 0.2, N=6),
            lambda: endpoint_closed_form(system, v0, out[2]),
        ):
            if fresh:
                lifted._transport_memo = None
            out.append(call())
        grid, end, steer, reached = out
        return [grid.times, grid.states, grid.jacobians, grid.transported, grid.columns, grid.integrals,
                end.base.coords, end.fiber, steer.values, reached.base.coords, reached.fiber]

    shared, fresh = run(fresh=False), run(fresh=True)
    for a, b in zip(shared, fresh):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_a_drift_from_a_chart_with_other_bounds_is_rejected(r2, s2):
    # An S2 system with a drift built on R2: the transport pass would check
    # the drift's flow against R2 and give a verdict from points off the
    # sphere chart, while the simulator leaves that chart at t = 0.064.
    exprs = ["0.5*cos(5*x2)", "1"]
    X1 = field_from_expressions(s2, ["0", "1"], "X1")
    with pytest.raises(ValueError, match=r"^field Y is defined on chart 'R2' with other bounds$"):
        LiftedSystem(s2, field_from_expressions(r2, exprs, "Y"), (X1,))
    # On a chart with the same bounds (a new S2 object) both analyses see the exit.
    system = LiftedSystem(s2, field_from_expressions(builtin_manifold("S2-spherical"), exprs, "Y"), (X1,))
    v0 = s2.tangent_point([3.1, 0.0], [0.0, 0.0])
    with pytest.raises(DomainExitError, match="left the chart domain near t = 0.06"):
        simulate_lifted_ode(system, v0, None, horizon=1.2)
    with pytest.raises(DomainExitError, match="left the chart domain near t = 0.06"):
        fiber_controllability_report(system, v0, 1.2)


def test_transport_pass_misses_on_any_changed_input(r2, shear_fields, count_passes):
    Y, X1 = shear_fields
    system = LiftedSystem(r2, Y, (X1,))
    x0 = r2.point([1.0, 0.0])
    changed = {
        "same inputs": lambda: build_transport_grid(system, r2.point([1.0, 0.0]), 0.3, 4),
        "system object": lambda: build_transport_grid(LiftedSystem(r2, Y, (X1,)), x0, 0.3, 4),
        "base point": lambda: build_transport_grid(system, r2.point([1.0, 1e-12]), 0.3, 4),
        "sign of a zero": lambda: build_transport_grid(system, r2.point([1.0, -0.0]), 0.3, 4),
        "manifold object": lambda: build_transport_grid(system, builtin_manifold("R2").point([1.0, 0.0]), 0.3, 4),
        "horizon": lambda: build_transport_grid(system, x0, 0.31, 4),
        "grid segments": lambda: build_transport_grid(system, x0, 0.3, 6),
        "step": lambda: build_transport_grid(system, x0, 0.3, 4, IntegratorConfig(step=2e-3)),
        "step budget": lambda: build_transport_grid(system, x0, 0.3, 4, IntegratorConfig(max_steps=10**5)),
    }
    passes = {}
    for name, call in changed.items():
        lifted._transport_memo = None
        build_transport_grid(system, x0, 0.3, 4)
        before = count_passes()
        call()
        passes[name] = count_passes() - before
    assert passes == {name: 0 if name == "same inputs" else 2 * (6 if name == "grid segments" else 4) for name in changed}


def test_transport_grid_arrays_are_read_only(r2, shear_system):
    grid = build_transport_grid(shear_system, r2.point([1.0, 0.0]), 0.3, 4)
    for name in ("times", "states", "jacobians", "transported", "columns", "integrals"):
        array = getattr(grid, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    # Node points own their coordinates, so changing one leaves the grid alone.
    for point in (grid.final_point, grid.point(0)):
        point.coords[0] = 5.0
    assert grid.states[0, 0] == grid.states[-1, 0] == 1.0


def test_a_failed_transport_pass_is_not_kept(s2, count_passes):
    # The drift carries x1 from 0.8 past the chart edge pi - 0.01 near t = 2.33.
    system = LiftedSystem(s2, constant_field(s2, [1.0, 0.0], "Y"), (constant_field(s2, [0.0, 1.0], "X1"),))
    x0 = s2.point([0.8, 0.3])
    messages = []
    for _ in range(2):
        before = count_passes()
        with pytest.raises(DomainExitError) as err:
            build_transport_grid(system, x0, 5.0, 4)
        messages.append(str(err.value))
        assert count_passes() > before
    assert messages[0] == messages[1] and "left the chart domain" in messages[0]


def test_transport_memo_releases_evicted_systems(r2, shear_fields):
    Y, X1 = shear_fields
    x0 = r2.point([1.0, 0.0])
    systems = [LiftedSystem(r2, Y, (X1,)) for _ in range(2)]
    first = weakref.ref(systems[0])
    for system in systems:
        build_transport_grid(system, x0, 0.1, 2)
    del systems, system
    gc.collect()
    assert first() is None


def test_threads_sharing_the_memo_get_their_own_grids(r2, shear_fields):
    # Six threads ask for three keys in turn over the one-grid memo, with
    # a short switch interval, so lookups, passes and replacements
    # interleave; every grid must still be its key's grid.
    Y, X1 = shear_fields
    systems = [LiftedSystem(r2, Y, (X1,)) for _ in range(3)]
    x0 = r2.point([1.0, 0.0])
    expected = []
    for system in systems:
        lifted._transport_memo = None
        expected.append(build_transport_grid(system, x0, 0.02 * (len(expected) + 1), 2).integrals)
    failures = []

    def worker(offset):
        for k in range(30):
            i = (k + offset) % 3
            grid = build_transport_grid(systems[i], x0, 0.02 * (i + 1), 2)
            if not np.array_equal(grid.integrals, expected[i]):
                failures.append((offset, k))

    threads = [threading.Thread(target=worker, args=(offset % 3,)) for offset in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
