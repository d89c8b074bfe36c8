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

from .controls import ControlSignal, segment_boundaries
from .errors import AlignmentError, TargetBaseError, UnreachableTargetError
from .flows import (  # noqa: F401  integrate_fixed: the benchmark tracer wraps this binding
    DEFAULT_CONFIG,
    FlowResult,
    IntegratorConfig,
    TangentTrajectory,
    integrate_fixed,
    joint_flow,
    pullback_vector,
    simulate_bundle,
)
from .lifts import base_lie_bracket
from .manifold import BasePoint, DriftControlSystem, TangentPoint
from .subspace import DEFAULT_RANK_TOL, SubspaceBasis, span_basis

_BOUNDARY_RTOL = 1e-9


class LiftedSystem(DriftControlSystem):
    """dv/dt = Y^c(v) + sum_i u_i Xi^v(v) on the tangent bundle."""

    def drift_lift(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The complete lift Y^c = (Y(x), J_Y(x) y)."""
        value, jac = self.drift.value_and_jacobian(x)
        return np.concatenate([value, jac @ y])


@dataclass(frozen=True)
class TransportOperatorGrid:
    """Control-to-fiber transport data at the nodes of one joint flow pass.

    ``transported[k, i]`` is control direction i pulled back to the
    initial tangent space at node time ``times[k]``; ``columns[k, i]``
    is the same vector pushed forward to the endpoint fiber (the
    integrand of the transport operator).  ``integrals[k, i]`` is the
    Simpson integral of that integrand over segment k, from
    ``times[k]`` to ``times[k + 1]``.  ``flow`` carries the node states
    and flow Jacobians of the single integration pass behind all three.
    """

    system: LiftedSystem
    x0: BasePoint
    times: np.ndarray
    transported: np.ndarray
    columns: np.ndarray
    integrals: np.ndarray
    flow: FlowResult

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def grid_segments(self) -> int:
        return len(self.times) - 1

    @property
    def endpoint_jacobian(self) -> np.ndarray:
        return self.flow.jacobians[-1]


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
    """Full fiberwise-controllability diagnosis of a lifted system."""

    horizon: float
    grid_segments: int
    anchor: TangentPoint
    s_t_basis: SubspaceBasis
    image_basis: SubspaceBasis
    ad: AdCriterionResult
    verdict_transport: bool
    verdict_ad: bool
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
    """One joint flow pass with per-segment Simpson transport integrals.

    The nodes of the returned grid are the segment boundaries.  Each
    segment is integrated in an even number of RK4 steps, every step
    state is pulled back once, and Simpson's rule over those states
    gives the segment's integral before the push to the endpoint fiber.
    """
    n = sys.manifold.dim
    times, xs, Js, offsets = joint_flow(sys.drift, x0, boundaries, lambda span: _even_substeps(span, cfg))
    F = np.stack([X.at_rows(xs) for X in sys.controls], axis=1)
    pulled = pullback_vector(Js[:, None], F[..., None])[..., 0]
    Z = np.empty((len(boundaries) - 1, sys.control_dim, n))
    for k, (start, end) in enumerate(zip(offsets[:-1], offsets[1:])):
        h = (boundaries[k + 1] - boundaries[k]) / (end - start)
        Z[k] = np.tensordot(_simpson_weights(end - start, h), pulled[start : end + 1], axes=(0, 0))
    J_T = Js[-1]
    return TransportOperatorGrid(
        system=sys,
        x0=x0,
        times=times[offsets],
        transported=pulled[offsets],
        columns=np.matmul(J_T, pulled[offsets][..., None])[..., 0],
        integrals=np.matmul(J_T, Z[..., None])[..., 0],
        flow=FlowResult(sys.manifold, times[offsets], xs[offsets], Js[offsets]),
    )


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
    flow and quadrature error.
    """
    boundaries = segment_boundaries(u, horizon, sys.control_dim)
    grid = _transport_segments(sys, v0.base, boundaries, cfg)
    fiber = grid.endpoint_jacobian @ v0.fiber
    if u is not None:
        for k in range(u.segments):
            for i in range(u.channels):
                fiber = fiber + u.values[k, i] * grid.integrals[k, i]
    return TangentPoint(grid.flow.final_point, fiber)


def build_transport_grid(
    sys: LiftedSystem,
    x0: BasePoint,
    T: float,
    N: int,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> TransportOperatorGrid:
    """Transported directions sampled at N+1 uniform nodes of [0, T].

    One forward pass integrates the flow and its differential and pulls
    each control back once per RK4 step state.
    """
    if N < 2:
        raise ValueError("need at least 2 grid segments")
    if T <= 0:
        raise ValueError("horizon must be positive")
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
    if u.channels != grid.system.control_dim:
        raise ValueError(f"control has {u.channels} channels, system expects {grid.system.control_dim}")
    if abs(u.horizon - grid.horizon) > _BOUNDARY_RTOL * max(1.0, grid.horizon):
        raise AlignmentError(
            f"control horizon {u.horizon} does not match grid horizon {grid.horizon}"
        )
    N = grid.grid_segments
    N_u = u.segments
    n = grid.system.manifold.dim
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


def S_T_span(
    sys: LiftedSystem,
    x0: BasePoint,
    T: float,
    N: int = 64,
    tol: float = DEFAULT_RANK_TOL,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SubspaceBasis:
    """Span of the transported control directions sampled at the grid nodes.

    The continuum span is sampled at N+1 node times, so the reported
    rank can only understate the true one; a full-rank answer is
    therefore reliable while a deficient one is grid-dependent.
    """
    if N < sys.manifold.dim:
        raise ValueError("grid must have at least dim segments to resolve full rank")
    grid = build_transport_grid(sys, x0, T, N, cfg)
    vectors = grid.transported.reshape(-1, sys.manifold.dim)
    return span_basis(vectors, tol)


def ad_criterion(
    sys: LiftedSystem,
    x0: BasePoint,
    k_max: Optional[int] = None,
    tol: float = DEFAULT_RANK_TOL,
) -> AdCriterionResult:
    """Rank of the iterated brackets of the drift with each control field.

    Iterates ad_Y^k Xi(x0) for k = 0..k_max (default 2*dim), stopping
    early once the rank fills the tangent space or stalls for two
    consecutive depths.  A full rank is sufficient for fiberwise
    controllability at every positive horizon.
    """
    dim = sys.manifold.dim
    if k_max is None:
        k_max = 2 * dim
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    vectors = []
    ranks = []
    current = list(sys.controls)
    k_used = 0
    saturated = False
    for k in range(k_max + 1):
        if k > 0:
            current = [base_lie_bracket(sys.drift, B) for B in current]
        vectors.extend(B.at(x0) for B in current)
        basis = span_basis(vectors, tol)
        ranks.append(basis.rank)
        k_used = k
        if basis.rank == dim:
            break
        if k >= 2 and ranks[-1] == ranks[-2] == ranks[-3]:
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
    k_max: Optional[int] = None,
    tol: float = DEFAULT_RANK_TOL,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> ControllabilityReport:
    """Assemble the reachable-set anchor, both rank tests, and verdicts.

    The transport verdict is the necessary-and-sufficient test (rank of
    the sampled transported directions); the bracket verdict is the
    sufficient criterion.  The anchor plus the image basis describe the
    reachable affine subspace of the endpoint fiber.
    """
    dim = sys.manifold.dim
    grid = build_transport_grid(sys, v0.base, T, max(N, dim), cfg)
    s_t_basis = span_basis(grid.transported.reshape(-1, dim), tol)
    image_basis = span_basis(grid.columns.reshape(-1, dim), tol)
    ad = ad_criterion(sys, v0.base, k_max, tol)
    J_T = grid.endpoint_jacobian
    anchor = TangentPoint(grid.flow.final_point, J_T @ v0.fiber)
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
        ad=ad,
        verdict_transport=verdict_transport,
        verdict_ad=ad.satisfied,
        cond_flow_differential=float(np.linalg.cond(J_T)),
        caveat=caveat,
    )


def steer_lifted(
    sys: LiftedSystem,
    v0: TangentPoint,
    target: TangentPoint,
    T: float,
    N: int = 64,
    tol: float = 1e-8,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    base_tol: float = 1e-6,
) -> ControlSignal:
    """Piecewise-constant control reaching a target tangent vector at time T.

    The target base must sit on the drift trajectory (the control cannot
    move it).  The fiber defect relative to the drift-transported
    initial fiber is solved by least squares against the per-segment
    transport integrals, giving the minimum-norm N-segment control.
    """
    grid = _transport_segments(sys, v0.base, np.linspace(0.0, T, N + 1), cfg)
    x_T = grid.flow.final_coords
    base_err = float(np.linalg.norm(target.base.coords - x_T))
    if base_err > base_tol:
        raise TargetBaseError(
            "base trajectory is fixed by the drift: target base "
            f"{target.base.coords.tolist()} is {base_err:.3e} away from the drift endpoint "
            f"{x_T.tolist()}"
        )
    # Column k*m + i is integrals[k, i].  Copied to C order because BLAS
    # rounds M @ alpha differently on a transposed view.
    M = np.ascontiguousarray(grid.integrals.reshape(N * sys.control_dim, -1).T)
    defect = target.fiber - grid.endpoint_jacobian @ v0.fiber
    alpha, *_ = np.linalg.lstsq(M, defect, rcond=None)
    residual = float(np.linalg.norm(M @ alpha - defect))
    if residual > tol * (1.0 + np.linalg.norm(defect)):
        raise UnreachableTargetError(
            f"fiber defect is not in the image of the transport operator "
            f"(residual {residual:.3e})",
            residual,
        )
    return ControlSignal(horizon=T, values=alpha.reshape(N, sys.control_dim))
