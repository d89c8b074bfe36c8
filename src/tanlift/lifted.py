"""Control systems with a complete-lift drift and vertical-lift controls.

The base trajectory is fixed by the drift; controls shape the fiber
component only.  The endpoint map has a closed form: the initial fiber
is pushed by the flow differential and each control channel contributes
the time integral of its transported direction.  Controllability along
the endpoint fiber reduces to the rank of the transported directions,
with an iterated-bracket sufficient criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import ControlSignal, _check_horizon, segment_boundaries
from .errors import AlignmentError, NumericalError, TargetBaseError
from .flows import (  # noqa: F401  integrate_fixed: the benchmark tracer wraps this binding
    DEFAULT_CONFIG,
    FlowResult,
    IntegratorConfig,
    TangentTrajectory,
    integrate_fixed,
    joint_flow,
    pullback_vector,
    rk4_segments,
    simulate_bundle,
)
from .lifts import base_lie_bracket
from .manifold import BasePoint, DriftControlSystem, TangentPoint, VectorField
from .subspace import DEFAULT_RANK_TOL, SubspaceBasis, solve_in_span, span_basis

_BOUNDARY_RTOL = 1e-9
_TARGET_BASE_TOL = 1e-6
# The last transport pass of ``_transport_segments``: (key, system,
# manifold, grid), or None.
_transport_memo = None


class LiftedSystem(DriftControlSystem):
    """dv/dt = Y^c(v) + sum_i u_i Xi^v(v) on the tangent bundle."""

    def base_pass(self, x0: BasePoint, boundaries, steps, u: Optional[ControlSignal]):
        """Base rows of the drift flow from x0, and the fiber right-hand sides.

        Each base stage is checked once and records its point and the
        drift Jacobian J there.  The controls are then evaluated once over
        all stage points, and the fiber right-hand side at stage s is
        J_s y + sum_i u_i Xi(x_s), the fiber block of Y^c + sum_i u_i Xi^v.
        """
        n_stages = 4 * sum(steps(b - a) for a, b in zip(boundaries[:-1], boundaries[1:]))
        points = np.empty((n_stages, x0.dim))
        jacobians = np.empty((n_stages, x0.dim, x0.dim))
        stages = itertools.count()

        def base_rhs(t, x):
            x = self.manifold.check(x)
            s = next(stages)
            points[s] = x
            value, jacobians[s] = self.drift.value_and_jacobian(x)
            return value

        _, bases, offsets = rk4_segments(lambda k: base_rhs, x0.coords, boundaries, steps)
        stages = itertools.count()
        if u is None:
            return bases, lambda k: lambda t, y: jacobians[next(stages)] @ y
        # Each RK4 step has four stages, all under the input of its segment.
        inputs = np.repeat(u.values, 4 * np.diff(offsets), axis=0)
        terms = inputs[:, :, None] * np.stack([X.at_rows(points) for X in self.controls], axis=1)

        def fiber_rhs(t, y):
            s = next(stages)
            v = jacobians[s] @ y
            for term in terms[s]:
                v += term
            return v

        return bases, lambda k: fiber_rhs


@dataclass(frozen=True)
class TransportOperatorGrid(FlowResult):
    """Control-to-fiber transport data at the nodes of one joint flow pass.

    The node ``times``, ``states`` and ``jacobians`` are those of the
    flow.  ``transported[k, i]`` is control direction i pulled back to
    the initial tangent space at node time ``times[k]``; ``columns[k, i]``
    is the same vector pushed forward to the endpoint fiber (the
    integrand of the transport operator).  ``integrals[k, i]`` is the
    Simpson integral of that integrand over segment k, from
    ``times[k]`` to ``times[k + 1]``.  Every array is read-only, because
    one grid is shared by all callers that ask for the same pass.
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

    @property
    def endpoint_jacobian(self) -> np.ndarray:
        return self.jacobians[-1]


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


def _even_substeps(span: float, cfg: IntegratorConfig) -> int:
    n_sub = max(2, cfg.steps_for(span))
    return n_sub + (n_sub % 2)


def _simpson_weights(n_sub: int, h: float) -> np.ndarray:
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _transport_segments(
    sys: LiftedSystem, x0: BasePoint, boundaries: np.ndarray, cfg: IntegratorConfig
) -> TransportOperatorGrid:
    """The transport grid of (sys, x0, boundaries, cfg), from one pass shared by all callers.

    The transport operator is fixed by the system, the base point, the
    node times and the integrator, so the closed form, ``L_T``, the
    reachable set and steering all read the same grid.  The last grid is
    kept.  A hit needs the very same system and manifold objects (the
    memo holds both, so their ids cannot be reused while it lives) and
    the same bytes of x0 and the boundaries; fields are pure, so a second
    pass would repeat every bit.  A pass that raises is not kept.  The
    memo is read once and replaced whole, so two threads may both miss
    and run the same pass, and each gets its own key's grid.
    """
    global _transport_memo
    key = (id(sys), id(x0.manifold), x0.coords.tobytes(), boundaries.tobytes(), cfg)
    memo = _transport_memo
    if memo is not None and memo[0] == key and memo[1] is sys and memo[2] is x0.manifold:
        return memo[3]
    grid = _transport_pass(sys, x0, boundaries, cfg)
    _transport_memo = (key, sys, x0.manifold, grid)
    return grid


def _transport_pass(
    sys: LiftedSystem, x0: BasePoint, boundaries: np.ndarray, cfg: IntegratorConfig
) -> TransportOperatorGrid:
    """One joint flow pass with per-segment Simpson transport integrals.

    The nodes of the returned grid are the segment boundaries.  Each
    segment is integrated in an even number of RK4 steps, every step
    state is pulled back once, and Simpson's rule over those states
    gives the segment's integral before the push to the endpoint fiber.
    """
    n = sys.manifold.dim
    times, xs, Js, offsets = joint_flow(sys.drift, x0, boundaries, cfg, lambda span: _even_substeps(span, cfg))
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
    _check_horizon(T, "horizon")
    return _transport_segments(sys, x0, np.linspace(0.0, T, N + 1), cfg)


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
    if u.channels != m:
        raise ValueError(f"control has {u.channels} channels, system expects {m}")
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
    every newest bracket is symbolically zero, so that no deeper bracket
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
        # A structural zero is a proof; sympy's is_zero costs milliseconds
        # per column and answers "unknown" for nonzero brackets anyway.
        if all(B.sym is not None and all(c == 0 for c in B.sym[0]) for B in current):
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
    N: int = 64,
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
    N: int = 64,
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
    _check_horizon(T, "horizon")
    grid = _transport_segments(sys, v0.base, np.linspace(0.0, T, N + 1), cfg)
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
