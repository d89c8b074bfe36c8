import numpy as np
import pytest

from tanlift import (
    DomainExitError,
    IntegratorConfig,
    NumericalError,
    StepBudgetError,
    base_lie_bracket,
    constant_field,
    flow,
    flow_differential,
    flow_with_jacobians,
    transported_derivatives,
    transported_field,
)
from tanlift.flows import integrate_segments, pullback_vector

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


def test_flow_domain_exit_reports_time(s2):
    Y = constant_field(s2, [1.0, 0.0], "Y")
    with pytest.raises(DomainExitError) as err:
        flow(Y, s2.point([0.8, 0.0]), 5.0)
    assert err.value.time is not None
    assert 2.0 < err.value.time < 2.5


def test_integrate_segments_shares_boundary_rows(r2, shear_fields):
    Y, _ = shear_fields
    boundaries = np.array([0.0, 0.25, 1.0])
    times, rows, offsets = integrate_segments(
        lambda k: lambda t, x: Y.at(x), np.array([2.0, -1.0]), boundaries, lambda span: 4, r2
    )
    assert offsets == [0, 4, 8]
    assert rows.shape == (9, 2) and times.shape == (9,)
    assert np.array_equal(times[offsets], boundaries)
    assert np.max(np.abs(rows[-1] - [2.0, 1.0])) < 1e-12


def test_integrate_segments_checks_final_row(s2):
    # A right-hand side that never evaluates a field leaves the final row
    # as the only one the driver checks against the chart.
    drift = lambda t, x: np.array([1.0, 0.0])
    with pytest.raises(DomainExitError) as err:
        integrate_segments(lambda k: drift, np.array([0.8, 0.0]), [0.0, 5.0], lambda span: 1, s2)
    assert err.value.time == 5.0


def test_integrate_segments_names_non_finite_time(r2):
    blow_up = lambda t, z: z * z
    with pytest.raises(NumericalError, match=r"non-finite state at t = 1\.0"):
        integrate_segments(lambda k: blow_up, np.ones(2), [0.0, 0.5, 2.0], lambda span: 100, r2)


def test_flow_step_budget(r2, shear_fields):
    Y, _ = shear_fields
    with pytest.raises(StepBudgetError):
        flow(Y, r2.point([1.0, 0.0]), 10.0, IntegratorConfig(step=1e-3, max_steps=100))


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
    res = flow_with_jacobians(Y, r2.point([1.0, 0.0]), 1.0)
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
    first = flow_with_jacobians(Y, x0, t)
    second = flow_differential(Y, first.final_point, T - t)
    assert np.max(np.abs(full - second @ first.final_jacobian)) <= 1e-7


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
