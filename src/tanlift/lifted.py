"""Control systems with a complete-lift drift and vertical-lift controls.

The base trajectory is fixed by the drift; controls shape the fiber
component only.  The endpoint map has a closed form: the initial fiber
is pushed by the flow differential and each control channel contributes
the time integral of its transported direction.  Controllability along
the endpoint fiber reduces to the rank of the transported directions,
with an iterated-bracket sufficient criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import ControlSignal, _check_channels, _check_horizon, segment_boundaries
from .errors import AlignmentError, NumericalError, StepBudgetError, TargetBaseError
from .expressions import structurally_zero
from .flows import (  # noqa: F401  integrate_fixed: the benchmark tracer wraps this binding
    DEFAULT_CONFIG,
    FlowResult,
    IntegratorConfig,
    TangentTrajectory,
    drift_record,
    flow_segments,
    integrate_fixed,
    linear_rhs,
    pullback_vector,
    simulate_bundle,
)
from .lifts import base_lie_bracket
from .manifold import BasePoint, DriftControlSystem, TangentPoint, VectorField
from .subspace import DEFAULT_RANK_TOL, SubspaceBasis, solve_in_span, span_basis

_BOUNDARY_RTOL = 1e-9
_TARGET_BASE_TOL = 1e-6
_DEFAULT_GRID = 64
# The last transport pass of ``_transport_segments``: (system, manifold,
# key, grid), or None.
_transport_memo = None


class LiftedSystem(DriftControlSystem):
    """dv/dt = Y^c(v) + sum_i u_i Xi^v(v) on the tangent bundle."""

    def base_pass(self, x0: BasePoint, boundaries, counts, u: Optional[ControlSignal]):
        """The drift record's rows, and the fiber right-hand side over its stages.

        At stage s it is J_s y + sum_i u_i Xi(x_s), the fiber block of Y^c +
        sum_i u_i Xi^v; each control is evaluated once over all stage points.
        """
        _, bases, points, jacobians = drift_record(self.drift, x0, boundaries, counts)
        terms = None
        if u is not None:
            # Each RK4 step has four stages, all under the input of its segment.
            inputs = np.repeat(u.values, 4 * counts, axis=0)[:, :, None]
            terms = map(np.ndarray.tolist, inputs * np.stack([X.at_rows(points) for X in self.controls], axis=1))
        rhs = linear_rhs(jacobians, (x0.dim,), terms)
        return bases, lambda k: rhs


@dataclass(frozen=True)
class TransportOperatorGrid(FlowResult):
    """Control-to-fiber transport data at the nodes of one flow pass.

    ``transported[k, i]`` is control direction i pulled back to the initial
    tangent space at ``times[k]``, and ``columns[k, i]`` the same vector
    pushed forward to the endpoint fiber, the integrand of the transport
    operator.  ``integrals[k, i]`` is its Simpson integral over segment k.
    Every array is read-only: one grid is shared by all callers of a pass.
    """

    transported: np.ndarray
    columns: np.ndarray
    integrals: np.ndarray

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def grid_segments(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class AdCriterionResult:
    """Rank report of the iterated-bracket directions at the base point."""

    basis: SubspaceBasis
    satisfied: bool
    depth: int
    k_used: int
    k_max: int
    saturated: bool


@dataclass(frozen=True)
class ControllabilityReport:
    """Transport diagnosis of a lifted system: reachable set and verdict."""

    horizon: float
    grid_segments: int
    anchor: TangentPoint
    s_t_basis: SubspaceBasis
    image_basis: SubspaceBasis
    verdict_transport: bool
    cond_flow_differential: float
    caveat: Optional[str] = None


def _simpson_weights(n_sub: int, h: float) -> np.ndarray:
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _transport_segments(
    sys: LiftedSystem, x0: BasePoint, boundaries: np.ndarray, cfg: IntegratorConfig
) -> TransportOperatorGrid:
    """The transport grid of (sys, x0, boundaries, cfg), from one pass shared by all callers.

    The last grid is kept.  A hit needs the very same system and manifold
    objects, the same bytes of x0 and the boundaries and an equal config;
    fields are pure, so a second pass would repeat every bit.  A pass that
    raises is not kept.  The memo is read once and replaced whole, so two
    threads may both miss and run the same pass, each getting its own grid.
    """
    global _transport_memo
    key = (x0.coords.tobytes(), boundaries.tobytes(), cfg)
    memo = _transport_memo
    if memo is not None and memo[0] is sys and memo[1] is x0.manifold and memo[2] == key:
        return memo[3]
    grid = _transport_pass(sys, x0, boundaries, cfg)
    _transport_memo = (sys, x0.manifold, key, grid)
    return grid


def _transport_pass(
    sys: LiftedSystem, x0: BasePoint, boundaries: np.ndarray, cfg: IntegratorConfig
) -> TransportOperatorGrid:
    """One flow pass with Simpson transport integrals per segment, on a grid of the segment boundaries.

    Each segment takes an even number of RK4 steps; every step state is
    pulled back once, and Simpson's rule over them gives the segment's
    integral before the push to the endpoint fiber.
    """
    n = sys.manifold.dim
    sys.drift.at(x0)
    counts = cfg.plan(boundaries, even=True)
    times, xs, Js = flow_segments(sys.drift, x0, boundaries, counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        F = np.stack([X.at_rows(xs) for X in sys.controls], axis=1)
    finite = np.isfinite(F).all(axis=2)
    if not finite.all():
        k, i = np.argwhere(~finite)[0]
        raise NumericalError(f"control field {sys.controls[i].name!r} is not finite at t = {times[k]:.6g}")
    pulled = pullback_vector(Js[:, None], F[..., None])[..., 0]
    Z = np.empty((len(boundaries) - 1, sys.control_dim, n))
    for k, (start, end) in enumerate(zip(offsets[:-1], offsets[1:])):
        h = (boundaries[k + 1] - boundaries[k]) / (end - start)
        Z[k] = np.tensordot(_simpson_weights(end - start, h), pulled[start : end + 1], axes=(0, 0))
    J_T = Js[-1]
    grid = TransportOperatorGrid(
        manifold=sys.manifold,
        times=times[offsets],
        states=xs[offsets],
        jacobians=Js[offsets],
        transported=pulled[offsets],
        columns=np.matmul(J_T, pulled[offsets][..., None])[..., 0],
        integrals=np.matmul(J_T, Z[..., None])[..., 0],
    )
    for a in (grid.times, grid.states, grid.jacobians, grid.transported, grid.columns, grid.integrals):
        a.setflags(write=False)
    return grid


def simulate_lifted_ode(
    sys: LiftedSystem,
    v0: TangentPoint,
    u: Optional[ControlSignal],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    horizon: Optional[float] = None,
) -> TangentTrajectory:
    """Direct RK4 integration on the tangent bundle.

    The base block obeys dx/dt = Y(x) regardless of the control; the
    fiber obeys dy/dt = J_Y(x) y + sum_i u_i Xi(x).  Steps never
    straddle a control segment boundary.
    """
    return simulate_bundle(sys, v0, u, cfg, horizon)


def endpoint_closed_form(
    sys: LiftedSystem,
    v0: TangentPoint,
    u: Optional[ControlSignal],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    horizon: Optional[float] = None,
) -> TangentPoint:
    """Endpoint of the lifted system from its explicit representation.

    The base lands on the drift flow; the fiber is the flow differential
    applied to the initial fiber plus, per control segment and channel,
    the segment's constant input times the Simpson integral of the
    transported direction.  Control segments define the quadrature
    segmentation, so piecewise-constant inputs are handled exactly up to
    flow and quadrature error.  The grid over the control's boundaries is
    the shared transport pass: steering with N segments and then asking
    for the endpoint of the steering control reads one pass.
    """
    boundaries = segment_boundaries(u, horizon, sys.control_dim)
    grid = _transport_segments(sys, v0.base, boundaries, cfg)
    fiber = grid.endpoint_jacobian @ v0.fiber
    if u is not None:
        for k in range(u.segments):
            for i in range(u.channels):
                fiber = fiber + u.values[k, i] * grid.integrals[k, i]
    return TangentPoint(grid.final_point, fiber)


def build_transport_grid(
    sys: LiftedSystem,
    x0: BasePoint,
    T: float,
    N: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> TransportOperatorGrid:
    """Transported directions sampled at N+1 uniform nodes of [0, T].

    One forward pass integrates the flow and its differential and pulls
    each control back once per RK4 step state.  The pass is shared: the
    same (system, base point, nodes, config) returns the same read-only
    grid that ``steer_lifted`` and ``endpoint_closed_form`` read.
    """
    if N < 2:
        raise ValueError("need at least 2 grid segments")
    return _transport_segments(sys, x0, _grid_nodes(sys, x0, T, N, cfg), cfg)


def _grid_nodes(sys: LiftedSystem, x0: BasePoint, T: float, N: int, cfg: IntegratorConfig) -> np.ndarray:
    """The N + 1 uniform nodes of [0, T] of a transport pass, formed only if the pass can fit its step budget.

    Each of the N segments takes at least 2 RK4 steps, so 2N steps over
    ``cfg.max_steps`` is rejected before any node exists.  The pass's own
    earlier checks come first, in its order: a drift not finite at x0,
    then a horizon over the budget by span / step.
    """
    _check_horizon(T, "horizon")
    if 2 * N > cfg.max_steps:
        sys.drift.at(x0)
        cfg.check_span(T)
        raise StepBudgetError(f"horizon {T} on {N} grid segments needs at least {2 * N} steps, budget is {cfg.max_steps}")
    return np.linspace(0.0, T, N + 1)


def _segment_quadrature(columns: np.ndarray, k0: int, span: int, h: float) -> np.ndarray:
    """Integral of the column interpolant over ``span`` grid intervals from node k0.

    Composite Simpson when the span is even; a single interval falls
    back to the trapezoid rule, an odd span to Simpson plus one
    trapezoid tail.
    """
    if span % 2 == 0:
        w = _simpson_weights(span, h)
        return np.tensordot(w, columns[k0 : k0 + span + 1], axes=(0, 0))
    if span == 1:
        return 0.5 * h * (columns[k0] + columns[k0 + 1])
    head = _segment_quadrature(columns, k0, span - 1, h)
    return head + 0.5 * h * (columns[k0 + span - 1] + columns[k0 + span])


def apply_LT(grid: TransportOperatorGrid, u: ControlSignal) -> np.ndarray:
    """Discretized transport operator: control signal to endpoint-fiber vector.

    Linear in the control by construction.  Control segments must align
    with the grid (segment boundaries on grid nodes) or refine it (a
    whole number of control segments per grid interval, integrated
    against the linear interpolant of the columns); anything else is an
    alignment error.
    """
    m, n = grid.columns.shape[1:]
    _check_channels(u, m)
    if abs(u.horizon - grid.horizon) > _BOUNDARY_RTOL * max(1.0, grid.horizon):
        raise AlignmentError(
            f"control horizon {u.horizon} does not match grid horizon {grid.horizon}"
        )
    N = grid.grid_segments
    N_u = u.segments
    out = np.zeros(n)
    if N % N_u == 0:
        span = N // N_u
        h = grid.horizon / N
        for seg in range(N_u):
            seg_integral = _segment_quadrature(grid.columns, seg * span, span, h)
            out += np.tensordot(u.values[seg], seg_integral, axes=(0, 0))
        return out
    if N_u % N == 0:
        per = N_u // N
        hg = grid.horizon / N
        hu = grid.horizon / N_u
        for k in range(N):
            c0 = grid.columns[k]
            slope = (grid.columns[k + 1] - grid.columns[k]) / hg
            for q in range(per):
                a = q * hu
                b = a + hu
                moment0 = b - a
                moment1 = 0.5 * (b * b - a * a)
                piece = c0 * moment0 + slope * moment1
                out += np.tensordot(u.values[k * per + q], piece, axes=(0, 0))
        return out
    raise AlignmentError(
        f"{N_u} control segments neither align with nor refine the {N}-segment grid"
    )


def _bracket_tower(Y: VectorField, fields, k_max: int):
    """Yield the brackets [B_k for each field] at depth k = 0..k_max.

    B_0 is the field and B_k = ``base_lie_bracket(Y, B_{k-1})``: exact
    when every operand carries symbolic coefficients, otherwise nested
    finite differences, which cap the depth at 6.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > 6 and any(F.sym is None for F in (Y, *fields)):
        raise ValueError("bracket depth > 6 needs fields with symbolic coefficients")
    current = list(fields)
    yield current
    for _ in range(k_max):
        current = [base_lie_bracket(Y, B) for B in current]
        yield current


def transported_derivatives(
    Y: VectorField, X: VectorField, x0: BasePoint, k_max: int
) -> list:
    """Iterated-bracket directions ad_Y^k X(x0), k = 0..k_max.

    The bracket here is [A, B] = J_A B - J_B A, the opposite sign of
    ``base_lie_bracket``, so entry k is (-1)^k B_k(x0), where B_0 = X and
    B_k = ``base_lie_bracket(Y, B_{k-1})``.  The k-th t-derivative of
    ``transported_field`` at t = 0 is B_k(x0), that is (-1)^k times entry k.
    Computed by bracket recursion on the base fields, never by
    differentiating the transport curve.
    """
    return [((-1.0) ** k) * B.at(x0) for k, (B,) in enumerate(_bracket_tower(Y, [X], k_max))]


def ad_criterion(
    sys: LiftedSystem,
    x0: BasePoint,
    k_max: Optional[int] = None,
    tol: float = DEFAULT_RANK_TOL,
) -> AdCriterionResult:
    """Rank of the iterated brackets of the drift with each control field.

    Iterates ad_Y^k Xi(x0) for k = 0..k_max (default 2*dim), stopping
    early only on proof: once the rank fills the tangent space, or once
    every newest bracket is ``structurally_zero``, so that no deeper bracket
    adds a direction (``saturated``).  A rank that stays the same over
    depths proves nothing: ad_Y^k (1, x1^3) at the origin adds (0, 6) only
    at depth 3.  A full rank is sufficient for fiberwise controllability
    at every positive horizon.
    """
    dim = sys.manifold.dim
    if k_max is None:
        k_max = 2 * dim
    vectors = []
    ranks = []
    k_used = 0
    saturated = False
    for k, current in enumerate(_bracket_tower(sys.drift, sys.controls, k_max)):
        vectors.extend(B.at(x0) for B in current)
        basis = span_basis(vectors, tol)
        ranks.append(basis.rank)
        k_used = k
        if basis.rank == dim:
            break
        if all(map(structurally_zero, current)):
            saturated = True
            break
    depth = ranks.index(basis.rank)
    return AdCriterionResult(
        basis=basis,
        satisfied=basis.rank == dim,
        depth=depth,
        k_used=k_used,
        k_max=k_max,
        saturated=saturated,
    )


def fiber_controllability_report(
    sys: LiftedSystem,
    v0: TangentPoint,
    T: float,
    N: int = _DEFAULT_GRID,
    tol: float = DEFAULT_RANK_TOL,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> ControllabilityReport:
    """Reachable affine subspace of the endpoint fiber and the transport verdict.

    The anchor plus the span of the pushed-forward columns is the
    reachable set.  The verdict, the necessary-and-sufficient test, is the
    rank of the transported directions at max(N, dim) + 1 node times; a
    negative one can be a sampling artefact and carries a caveat.  The
    sufficient bracket criterion is ``ad_criterion``.
    """
    dim = sys.manifold.dim
    grid = build_transport_grid(sys, v0.base, T, max(N, dim), cfg)
    s_t_basis = span_basis(grid.transported.reshape(-1, dim), tol)
    image_basis = span_basis(grid.columns.reshape(-1, dim), tol)
    J_T = grid.endpoint_jacobian
    anchor = TangentPoint(grid.final_point, J_T @ v0.fiber)
    verdict_transport = s_t_basis.spans_dimension(dim)
    caveat = None
    if not verdict_transport:
        caveat = (
            f"grid-sampled: span sampled at {grid.grid_segments + 1} node times; "
            "a negative verdict can understate the rank of the continuum span"
        )
    return ControllabilityReport(
        horizon=T,
        grid_segments=grid.grid_segments,
        anchor=anchor,
        s_t_basis=s_t_basis,
        image_basis=image_basis,
        verdict_transport=verdict_transport,
        cond_flow_differential=float(np.linalg.cond(J_T)),
        caveat=caveat,
    )


def steer_lifted(
    sys: LiftedSystem,
    v0: TangentPoint,
    target: TangentPoint,
    T: float,
    N: int = _DEFAULT_GRID,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> ControlSignal:
    """Piecewise-constant control reaching a target tangent vector at time T.

    The target base must sit on the drift trajectory (the control cannot
    move it).  The fiber defect relative to the drift-transported
    initial fiber is solved by least squares against the per-segment
    transport integrals, giving the minimum-norm N-segment control.
    Those integrals come from the shared transport pass over N+1 uniform
    nodes, the same grid as ``build_transport_grid(sys, v0.base, T, N)``.
    """
    if N < 1:
        raise ValueError("need at least 1 grid segment")
    grid = _transport_segments(sys, v0.base, _grid_nodes(sys, v0.base, T, N, cfg), cfg)
    x_T = grid.final_coords
    base_err = float(np.linalg.norm(target.base.coords - x_T))
    if base_err > _TARGET_BASE_TOL:
        raise TargetBaseError(
            "base trajectory is fixed by the drift: target base "
            f"{target.base.coords.tolist()} is {base_err:.3e} away from the drift endpoint "
            f"{x_T.tolist()}"
        )
    # Column k*m + i is integrals[k, i].  Copied to C order because BLAS
    # rounds M @ alpha differently on a transposed view.
    M = np.ascontiguousarray(grid.integrals.reshape(N * sys.control_dim, -1).T)
    defect = target.fiber - grid.endpoint_jacobian @ v0.fiber
    alpha = solve_in_span(M, defect, "fiber defect is not in the image of the transport operator")
    return ControlSignal(horizon=T, values=alpha.reshape(N, sys.control_dim))
