"""Numerical flows of base vector fields and their differentials.

Integration is fixed-step classical RK4; the flow differential solves
the variational equation dJ/dt = J_Y(x(t)) J jointly with the base flow,
so Jacobians are available at every grid node of a single pass.
Transported control directions (the pullback of a field along the drift
flow into the initial tangent space) come from one linear solve per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import segment_boundaries
from .errors import ChartDomainError, DomainExitError, NumericalError, StepBudgetError
from .lifts import base_lie_bracket
from .manifold import BasePoint, ChartManifold, TangentPoint, VectorField


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 settings."""

    step: float = 1e-3
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def steps_for(self, span: float) -> int:
        if span == 0.0:
            return 0
        n = max(1, math.ceil(abs(span) / self.step))
        if n > self.max_steps:
            raise StepBudgetError(
                f"horizon {span} needs {n} steps of {self.step}, budget is {self.max_steps}"
            )
        return n


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class FlowResult:
    """States (and optionally flow Jacobians) on a uniform time grid.

    ``states[k]`` approximates the flow at ``times[k]`` starting from
    ``states[0]``; when present, ``jacobians[k]`` is the differential of
    the time-``times[k]`` flow map at the initial point (identity at the
    start).
    """

    manifold: ChartManifold
    times: np.ndarray
    states: np.ndarray
    jacobians: Optional[np.ndarray] = None

    @property
    def final_coords(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_point(self) -> BasePoint:
        return BasePoint(self.manifold, self.states[-1])

    @property
    def final_jacobian(self) -> np.ndarray:
        if self.jacobians is None:
            raise ValueError("flow was integrated without the variational equation")
        return self.jacobians[-1]

    def point(self, k: int) -> BasePoint:
        return BasePoint(self.manifold, self.states[k])


@dataclass(frozen=True)
class TangentTrajectory:
    """A trajectory on the tangent bundle: times, base rows, fiber rows."""

    manifold: ChartManifold
    times: np.ndarray
    bases: np.ndarray
    fibers: np.ndarray

    def point(self, k: int) -> TangentPoint:
        return TangentPoint(BasePoint(self.manifold, self.bases[k]), self.fibers[k])

    @property
    def final(self) -> TangentPoint:
        return self.point(len(self.times) - 1)


def _rk4_step(f, t, z, h):
    k1 = f(t, z)
    k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = f(t + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_fixed(f, z0: np.ndarray, t0: float, t1: float, n_steps: int):
    """RK4 over [t0, t1] in n_steps equal steps; returns (times, states).

    ChartDomainError raised by the right-hand side is rewrapped as a
    DomainExitError carrying the time of the failing step, or as a
    NumericalError when the rejected coordinates are not finite.
    """
    times = np.linspace(t0, t1, n_steps + 1)
    states = np.empty((n_steps + 1, z0.size))
    states[0] = z0
    h = (t1 - t0) / n_steps if n_steps else 0.0
    for k in range(n_steps):
        try:
            states[k + 1] = _rk4_step(f, times[k], states[k], h)
        except ChartDomainError as err:
            if err.coords is not None and not np.isfinite(err.coords).all():
                raise NumericalError(f"non-finite state at t = {times[k]:.6g}") from err
            raise DomainExitError(
                f"trajectory left the chart domain near t = {times[k]:.6g}: {err}",
                coords=err.coords,
                time=float(times[k]),
            ) from err
    return times, states


def integrate_segments(rhs_for, z0: np.ndarray, boundaries, steps, manifold: ChartManifold):
    """RK4 over consecutive segments [boundaries[k], boundaries[k + 1]].

    ``rhs_for(k)`` is the right-hand side on segment k and ``steps(span)``
    its step count, so no step crosses a boundary.  Returns (times, rows,
    offsets): each node once, segment k spanning rows offsets[k] through
    offsets[k + 1].  The leading ``manifold.dim`` entries of a row are base
    coordinates; every base row but the last was domain-checked as the
    first stage of the next step, so only the last is checked here.  A
    non-finite row raises NumericalError naming its time.
    """
    times = [np.asarray(boundaries[:1], dtype=float)]
    rows = [z0[None, :]]
    offsets = [0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(boundaries) - 1):
            n_steps = steps(boundaries[k + 1] - boundaries[k])
            seg_times, seg_rows = integrate_fixed(
                rhs_for(k), z0, boundaries[k], boundaries[k + 1], n_steps
            )
            times.append(seg_times[1:])
            rows.append(seg_rows[1:])
            offsets.append(offsets[-1] + n_steps)
            z0 = seg_rows[-1]
    times = np.concatenate(times)
    rows = np.concatenate(rows, axis=0)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalError(f"non-finite state at t = {times[k]:.6g}")
    final = rows[-1, : manifold.dim]
    if not manifold.in_domain(final):
        raise DomainExitError(
            f"trajectory left chart '{manifold.name}' at t = {times[-1]:.6g}",
            coords=final,
            time=float(times[-1]),
        )
    return times, rows, offsets


def joint_flow(Y: VectorField, x0: BasePoint, boundaries, steps):
    """Base flow of Y joined with dJ/dt = J_Y(x) J, J(0) = I, in one RK4 pass.

    Returns (times, states, jacobians, offsets) as ``integrate_segments`` does.
    """
    n = x0.manifold.dim

    def rhs(t, z):
        value, jac = Y.value_and_jacobian(Y.manifold.check(z[:n]))
        return np.concatenate([value, (jac @ z[n:].reshape(n, n)).ravel()])

    z0 = np.concatenate([x0.coords, np.eye(n).ravel()])
    times, rows, offsets = integrate_segments(lambda k: rhs, z0, boundaries, steps, x0.manifold)
    return times, rows[:, :n], rows[:, n:].reshape(-1, n, n), offsets


def simulate_bundle(sys, v0: TangentPoint, u, cfg: IntegratorConfig, horizon) -> TangentTrajectory:
    """RK4 of dv/dt = ``sys.velocity(v, u)`` on TM, one constant input per step."""
    boundaries = segment_boundaries(u, horizon, sys.control_dim)
    n = sys.manifold.dim

    def rhs_for(k):
        u_seg = u.values[k] if u is not None else None
        return lambda t, z: sys.velocity(z, u_seg)

    times, rows, _ = integrate_segments(
        rhs_for, v0.as_vector(), boundaries, cfg.steps_for, sys.manifold
    )
    return TangentTrajectory(
        manifold=sys.manifold, times=times, bases=rows[:, :n], fibers=rows[:, n:]
    )


def flow(Y: VectorField, x0: BasePoint, T: float, cfg: IntegratorConfig = DEFAULT_CONFIG) -> FlowResult:
    """Flow of dx/dt = Y(x) from x0 over [0, T] (T may be negative)."""
    times, states, _ = integrate_segments(
        lambda k: lambda t, x: Y.at(x), x0.coords, [0.0, T], cfg.steps_for, x0.manifold
    )
    return FlowResult(manifold=x0.manifold, times=times, states=states)


def flow_with_jacobians(
    Y: VectorField, x0: BasePoint, T: float, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> FlowResult:
    """Flow plus the variational equation; Jacobians stored at every node."""
    times, states, jacobians, _ = joint_flow(Y, x0, [0.0, T], cfg.steps_for)
    return FlowResult(manifold=x0.manifold, times=times, states=states, jacobians=jacobians)


def flow_differential(
    Y: VectorField, x0: BasePoint, T: float, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Differential of the time-T flow map at x0 (identity at T = 0)."""
    return flow_with_jacobians(Y, x0, T, cfg).final_jacobian


def pullback_vector(J: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Solve J w = vec for one J or a stack; a singular J names the largest cond."""
    try:
        return np.linalg.solve(J, vec)
    except np.linalg.LinAlgError as err:
        cond = np.max(np.linalg.cond(J))
        raise NumericalError(
            f"flow differential is numerically singular (cond = {cond:.3e})"
        ) from err


def transported_field(
    Y: VectorField,
    X: VectorField,
    x0: BasePoint,
    t: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Control direction pulled back along the drift flow into T_{x0}M.

    Computes the pushforward of X by the time-(-t) flow of Y, evaluated
    at x0: the forward flow Jacobian is inverted rather than integrating
    a second, backward variational equation.
    """
    result = flow_with_jacobians(Y, x0, t, cfg)
    return pullback_vector(result.final_jacobian, X.at(result.final_coords))


def transported_derivatives(
    Y: VectorField, X: VectorField, x0: BasePoint, k_max: int
) -> list:
    """Iterated-bracket directions ad_Y^k X(x0), k = 0..k_max.

    The bracket here is [A, B] = J_A B - J_B A, the opposite sign of
    ``base_lie_bracket``, so entry k is (-1)^k B_k(x0), where B_0 = X and
    B_k = ``base_lie_bracket(Y, B_{k-1})``.  The k-th t-derivative of
    ``transported_field`` at t = 0 is B_k(x0), that is (-1)^k times entry k.

    Entry 0 is X(x0).  Computed by exact bracket recursion on the base
    fields (symbolic when both carry expressions, otherwise via their
    Jacobians), never by differentiating the transport curve; depth is
    capped at 6 for fields that would need nested finite differences.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > 6 and (Y.sym is None or X.sym is None):
        raise ValueError("bracket depth > 6 needs fields with symbolic coefficients")
    out = [X.at(x0)]
    B = X
    for k in range(1, k_max + 1):
        B = base_lie_bracket(Y, B)
        out.append(((-1.0) ** k) * B.at(x0))
    return out
