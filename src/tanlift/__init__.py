"""Lifts of vector fields to the tangent bundle and fiberwise control systems.

The package computes vertical and complete lifts, integrates base flows
with their variational equations, solves two classes of lifted control
systems in closed form (cross-validated against direct integration), and
runs three controllability tests: the pointwise rank test for vertical
systems, the transported-direction span test, and the iterated-bracket
criterion.
"""

__version__ = "0.1.0"

from .controls import ControlSignal
from .errors import (
    AlignmentError,
    ChartDomainError,
    DomainExitError,
    ExpressionError,
    NumericalError,
    ScenarioError,
    StepBudgetError,
    TanliftError,
    TargetBaseError,
    UnreachableTargetError,
)
from .expressions import field_from_expressions, fiber_dynamics_from_expressions
from .flows import (
    FlowResult,
    IntegratorConfig,
    TangentTrajectory,
    flow,
    flow_differential,
    transported_field,
)
from .lifted import (
    AdCriterionResult,
    ControllabilityReport,
    LiftedSystem,
    TransportOperatorGrid,
    ad_criterion,
    apply_LT,
    build_transport_grid,
    endpoint_closed_form,
    fiber_controllability_report,
    simulate_lifted_ode,
    steer_lifted,
    transported_derivatives,
)
from .lifts import (
    FunctionLift,
    LiftedVectorField,
    base_lie_bracket,
    complete_lift,
    function_lift_eval,
    is_vertical,
    lie_bracket,
    vertical_lift,
)
from .manifold import (
    BasePoint,
    ChartManifold,
    TangentPoint,
    VectorField,
    builtin_manifold,
    constant_field,
    dprojection,
    field_from_callable,
    numeric_gradient,
    numeric_jacobian,
    project,
    sample_tangent_points,
)
from .scenario import Scenario, load_scenario
from .subspace import SubspaceBasis, span_basis
from .vertical import (
    GeneralVerticalSystem,
    ReachableAffineSet,
    VerticalAffineSystem,
    VerticalRankReport,
    fiber_controllable_vertical,
    reachable_vertical,
    simulate_vertical_ode,
    solve_vertical_closed_form,
    steer_vertical,
)

__all__ = [
    "AdCriterionResult",
    "AlignmentError",
    "BasePoint",
    "ChartDomainError",
    "ChartManifold",
    "ControlSignal",
    "ControllabilityReport",
    "DomainExitError",
    "ExpressionError",
    "FlowResult",
    "FunctionLift",
    "GeneralVerticalSystem",
    "IntegratorConfig",
    "LiftedSystem",
    "LiftedVectorField",
    "NumericalError",
    "ReachableAffineSet",
    "Scenario",
    "ScenarioError",
    "StepBudgetError",
    "SubspaceBasis",
    "TangentPoint",
    "TangentTrajectory",
    "TanliftError",
    "TargetBaseError",
    "TransportOperatorGrid",
    "UnreachableTargetError",
    "VectorField",
    "VerticalAffineSystem",
    "VerticalRankReport",
    "ad_criterion",
    "apply_LT",
    "base_lie_bracket",
    "build_transport_grid",
    "builtin_manifold",
    "complete_lift",
    "constant_field",
    "dprojection",
    "endpoint_closed_form",
    "fiber_controllability_report",
    "fiber_controllable_vertical",
    "field_from_callable",
    "field_from_expressions",
    "fiber_dynamics_from_expressions",
    "flow",
    "flow_differential",
    "function_lift_eval",
    "is_vertical",
    "lie_bracket",
    "load_scenario",
    "numeric_gradient",
    "numeric_jacobian",
    "project",
    "reachable_vertical",
    "sample_tangent_points",
    "simulate_lifted_ode",
    "simulate_vertical_ode",
    "solve_vertical_closed_form",
    "span_basis",
    "steer_lifted",
    "steer_vertical",
    "transported_derivatives",
    "transported_field",
    "vertical_lift",
]
