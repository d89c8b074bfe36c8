"""The ValueError, and its message, by which each library entry point rejects a bad argument."""

import math

import numpy as np
import pytest

from tanlift import (
    ChartManifold,
    ControlSignal,
    FunctionLift,
    IntegratorConfig,
    LiftedSystem,
    LiftedVectorField,
    VectorField,
    VerticalAffineSystem,
    ad_criterion,
    apply_LT,
    base_lie_bracket,
    build_transport_grid,
    builtin_manifold,
    field_from_expressions,
    is_vertical,
    lie_bracket,
    solve_vertical_closed_form,
    span_basis,
    transported_derivatives,
    vertical_lift,
)
from tanlift.battery import run_identity_battery
from tanlift.controls import segment_boundaries
from tanlift.manifold import central_differences

R2 = builtin_manifold("R2")
X = field_from_expressions(R2, ["x2", "sin(x1)"], "X")
U = ControlSignal(horizon=1.0, values=[[1.0]])
U2 = ControlSignal(horizon=1.0, values=[[1.0, 2.0]])
LIFTED = LiftedSystem(R2, X, [X])
ORIGIN = R2.point([0.0, 0.0])

CASES = {
    "control-without-segments": (lambda: ControlSignal(1.0, np.zeros((0, 1))), "control needs at least one segment"),
    "control-not-finite": (lambda: ControlSignal(1.0, [[math.nan]]), "control values must be finite"),
    "control-horizon": (lambda: ControlSignal(0.0, [[1.0]]), "control horizon must be positive and finite, got 0.0"),
    "integral-past-horizon": (lambda: U.integral(1.5), "time 1.5 outside [0, 1.0]"),
    "boundaries-of-nothing": (lambda: segment_boundaries(None, None, 1), "need a control signal or an explicit horizon"),
    "boundaries-infinite": (
        lambda: segment_boundaries(None, math.inf, 1),
        "control horizon must be positive and finite, got inf",
    ),
    "boundaries-other-horizon": (
        lambda: segment_boundaries(U, 2.0, 1),
        "horizon 2.0 differs from the control horizon 1.0",
    ),
    "boundaries-channels": (lambda: segment_boundaries(U, None, 2), "control has 1 channels, system expects 2"),
    "lifted-at-length": (lambda: vertical_lift(X).at([0.0, 0.0, 0.0]), "expected a vector of length 4, got shape (3,)"),
    "lifted-coefficients": (
        lambda: LiftedVectorField(R2, lambda w: np.zeros(3), name="F").at(np.zeros(4)),
        "F coefficients have length 3, expected 4",
    ),
    "bracket-method": (
        lambda: lie_bracket(vertical_lift(X), vertical_lift(X), R2.tangent_point([0.0, 0.0], [1.0, 0.0]), "exact"),
        "unknown bracket method 'exact'",
    ),
    "bracket-charts": (
        lambda: base_lie_bracket(X, field_from_expressions(ChartManifold(dim=3, name="R3"), ["1", "0", "0"], "Z")),
        "bracket operands live on charts of different dimension",
    ),
    "vertical-without-samples": (lambda: is_vertical(vertical_lift(X), []), "need at least one sample point"),
    "function-lift-kind": (lambda: FunctionLift(R2, np.sum, kind="horizontal"), "unknown function lift kind 'horizontal'"),
    "integrator-budget": (lambda: IntegratorConfig(max_steps=0), "max_steps must be >= 1"),
    "integrator-step": (lambda: IntegratorConfig(step=-1.0), "step must be positive and finite, got -1.0"),
    "battery-of-one-field": (lambda: run_identity_battery(R2, [X]), "identity battery needs at least 2 fields"),
    "transport-channels": (
        lambda: apply_LT(build_transport_grid(LIFTED, ORIGIN, 1.0, 2), U2),
        "control has 2 channels, system expects 1",
    ),
    "bracket-depth-of-derivatives": (lambda: transported_derivatives(X, X, ORIGIN, -1), "k_max must be >= 0"),
    "bracket-depth-of-criterion": (lambda: ad_criterion(LIFTED, ORIGIN, k_max=-1), "k_max must be >= 0"),
    "chart-dimension": (lambda: ChartManifold(dim=0, name="R0"), "manifold dimension must be >= 1"),
    "hand-built-jacobian": (
        lambda: VectorField(R2, lambda x: x, jac=lambda x: np.eye(3), name="H").jacobian_at([0.0, 0.0]),
        "jacobian of H has shape (3, 3)",
    ),
    "difference-step": (lambda: central_differences(np.sin, [0.0], h=0.0), "step size must be positive"),
    "vertical-channels": (
        lambda: solve_vertical_closed_form(
            VerticalAffineSystem(R2, X, [X]), R2.tangent_point([0.0, 0.0], [1.0, 0.0]), U2, 0.5
        ),
        "control has 2 channels, system expects 1",
    ),
    "vertical-time": (
        lambda: solve_vertical_closed_form(
            VerticalAffineSystem(R2, X, [X]), R2.tangent_point([0.0, 0.0], [1.0, 0.0]), U, 1.5
        ),
        "time 1.5 outside [0, 1.0]",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_a_bad_argument_is_a_value_error_that_says_what_is_wrong(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_the_span_of_no_vectors_is_empty_and_leaves_every_vector_as_its_residual():
    basis = span_basis([])
    assert (basis.rank, basis.count, basis.vectors.shape) == (0, 0, (0, 0))
    assert not basis.spans_dimension(2)
    assert basis.residual_of([3.0, 4.0]) == 5.0
