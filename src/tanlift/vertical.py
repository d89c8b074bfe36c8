"""Vertical control systems: fiberwise dynamics with a frozen base point.

The affine class has closed-form solutions (the fiber translates by the
drift and the exact control integrals), an exact reachable-set
description, and a pointwise rank test for fiberwise controllability.
General vertical systems with user-supplied fiber dynamics are supported
by direct integration only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .controls import ControlSignal, _check_channels, _check_horizon
from .errors import NumericalError
from .flows import DEFAULT_CONFIG, IntegratorConfig, TangentTrajectory, simulate_bundle, still_base_pass
from .manifold import BasePoint, ChartManifold, DriftControlSystem, TangentPoint
from .subspace import DEFAULT_RANK_TOL, SubspaceBasis, solve_in_span, span_basis


class VerticalAffineSystem(DriftControlSystem):
    """dv/dt = X0^v(v) + sum_i u_i Xi^v(v): drift and controls act on fibers only."""

    def control_matrix(self, x: BasePoint) -> np.ndarray:
        """Columns Xi(x), the directions reachable in the fiber."""
        return np.column_stack([X.at(x) for X in self.controls])

    def base_pass(self, x0: BasePoint, boundaries, counts, u: Optional[ControlSignal]):
        """The base does not move; the fiber velocity is one constant per base point and segment."""

        def rhs_at(x, u_k):
            v = np.array(self.drift.value(x))
            if u_k is not None:
                for ui, X in zip(u_k, self.controls):
                    v += ui * X.value(x)
            v = v.tolist()
            return lambda t, y: v

        return still_base_pass(x0, counts, u, rhs_at)


@dataclass(frozen=True)
class GeneralVerticalSystem:
    """dv/dt vertical with arbitrary fiber dynamics dy/dt = f(x, y, u)."""

    manifold: ChartManifold
    dynamics: Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]
    control_dim: int = 0

    def _check_start(self, v0: TangentPoint, u: Optional[ControlSignal]) -> None:
        """Evaluate the dynamics at v0 under the first input; a value of the wrong shape or not finite is named."""
        x, y = v0.base.coords, v0.fiber
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = np.asarray(self.dynamics(x, y, None if u is None else u.values[0]), dtype=float)
        if value.shape != y.shape:
            raise ValueError(f"fiber dynamics must return {y.size} values, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise NumericalError(f"fiber dynamics are not finite at x = {x.tolist()}, y = {y.tolist()}")

    def base_pass(self, x0: BasePoint, boundaries, counts, u: Optional[ControlSignal]):
        """The base does not move; only the fiber is integrated."""

        def rhs_at(x, u_k):
            return lambda t, y: np.asarray(self.dynamics(x, np.array(y), u_k), dtype=float).tolist()

        return still_base_pass(x0, counts, u, rhs_at)


@dataclass(frozen=True)
class ReachableAffineSet:
    """Reachable set of an affine vertical system: an affine subspace of one fiber.

    ``anchor`` is the drift-only endpoint v0 + T X0(x0); adding the span
    of the control directions at x0 gives every reachable fiber vector.
    """

    anchor: TangentPoint
    basis: SubspaceBasis
    horizon: float


@dataclass(frozen=True)
class VerticalRankReport:
    """Outcome of the fiberwise rank test at one base point."""

    point: BasePoint
    basis: SubspaceBasis
    controllable: bool


def solve_vertical_closed_form(
    sys: VerticalAffineSystem, v0: TangentPoint, u: ControlSignal, t: float
) -> TangentPoint:
    """Exact solution of the affine vertical system at time t.

    The base point never moves; the fiber translates by t X0(x0) plus
    the control integrals times the control directions at x0.  Exact for
    piecewise-constant controls because the integrals are computed
    segment by segment.
    """
    _check_channels(u, sys.control_dim)
    integrals = u.integral(t)
    x0 = v0.base
    fiber = v0.fiber + t * sys.drift.at(x0)
    for alpha, X in zip(integrals, sys.controls):
        fiber = fiber + alpha * X.at(x0)
    return TangentPoint(x0, fiber)


def simulate_vertical_ode(
    sys,
    v0: TangentPoint,
    u: Optional[ControlSignal],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    horizon: Optional[float] = None,
) -> TangentTrajectory:
    """Direct RK4 integration of a vertical system on the tangent bundle.

    No step straddles a control segment boundary, so every step sees
    one constant input.  The base
    block of the state has identically zero velocity, so base
    coordinates stay exactly equal to the initial ones.
    """
    return simulate_bundle(sys, v0, u, cfg, horizon)


def reachable_vertical(
    sys: VerticalAffineSystem, v0: TangentPoint, T: float, tol: float = DEFAULT_RANK_TOL
) -> ReachableAffineSet:
    """Reachable set at time T: drift-translated anchor plus control span."""
    _check_horizon(T, "horizon")
    x0 = v0.base
    anchor = TangentPoint(x0, v0.fiber + T * sys.drift.at(x0))
    basis = span_basis([X.at(x0) for X in sys.controls], tol)
    return ReachableAffineSet(anchor=anchor, basis=basis, horizon=T)


def fiber_controllable_vertical(
    sys: VerticalAffineSystem, x0: BasePoint, tol: float = DEFAULT_RANK_TOL
) -> VerticalRankReport:
    """Rank test: the fiber over x0 is fully reachable iff the controls span it."""
    basis = span_basis([X.at(x0) for X in sys.controls], tol)
    return VerticalRankReport(
        point=x0, basis=basis, controllable=basis.spans_dimension(sys.manifold.dim)
    )


def steer_vertical(
    sys: VerticalAffineSystem,
    v0: TangentPoint,
    target_fiber: Sequence[float],
    T: float,
) -> ControlSignal:
    """Constant control reaching a target fiber vector at time T.

    Solves sum_i alpha_i Xi(x0) = target - v0 - T X0(x0) by least squares
    (minimum norm when the controls are redundant) and spreads each
    integral alpha_i uniformly, u_i = alpha_i / T.  Raises when the
    residual shows the target lies off the reachable affine subspace.
    """
    _check_horizon(T, "horizon")
    x0 = v0.base
    target = np.asarray(target_fiber, dtype=float)
    defect = target - v0.fiber - T * sys.drift.at(x0)
    A = sys.control_matrix(x0)
    alpha = solve_in_span(A, defect, "target fiber is not reachable")
    return ControlSignal.constant(alpha / T, horizon=T)
