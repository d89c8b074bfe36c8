"""Numerical flows of base vector fields and their differentials.

Integration is fixed-step classical RK4 on lists of Python floats, which
cost less than numpy at 2 to n² entries.  A drift pass is recorded once:
each stage point is tested against the chart as floats, and the floats of
one evaluation of the drift's coefficients and Jacobian J_s go straight
into the state and the record.  A linear pass over the record gives the
flow differential, J' = J_s J from J = I, or a lifted fiber, y' = J_s y +
sum_i u_i X_i(x_s); its products stay BLAS on C-contiguous arrays, whose
fused multiply-adds the values depend on.
"""

from __future__ import annotations

import array
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .controls import segment_boundaries
from .errors import ChartDomainError, DomainExitError, NumericalError, StepBudgetError
from .manifold import BasePoint, ChartManifold, TangentPoint, VectorField


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 settings."""

    step: float = 1e-3
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def steps_for(self, span: float) -> int:
        """Step count of one segment of length ``span``."""
        if not math.isfinite(span):
            raise ValueError(f"horizon {span} is not finite")
        if span == 0.0:
            return 0
        return max(1, math.ceil(abs(span) / self.step))

    def check_span(self, span: float) -> None:
        """Reject a pass over ``span`` that needs more than ``max_steps`` steps by span / step alone."""
        if math.isfinite(span) and abs(span) / self.step > self.max_steps:
            raise StepBudgetError(f"horizon {span} needs more steps of {self.step} than the budget of {self.max_steps}")

    def plan(self, boundaries, even: bool = False) -> np.ndarray:
        """Step counts of the segments [boundaries[k], boundaries[k + 1]] of one pass.

        Each is ``steps_for`` of the span, or with ``even`` at least 2 and
        even, for Simpson's rule.  ``max_steps`` bounds the whole pass, and a
        pass over it by horizon / step is rejected before any count is formed,
        so a count too large to print or to hold in a float never is.
        """
        span = float(boundaries[-1] - boundaries[0])
        self.check_span(span)
        counts = [self.steps_for(b - a) for a, b in zip(boundaries[:-1], boundaries[1:])]
        if even:
            counts = [max(2, c + c % 2) for c in counts]
        total = sum(counts)
        if total > self.max_steps:
            raise StepBudgetError(f"horizon {span} needs {total} steps of {self.step}, budget is {self.max_steps}")
        return np.array(counts)


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class FlowResult:
    """States and flow Jacobians at the nodes of one flow pass.

    ``states[k]`` approximates the flow at ``times[k]`` from ``states[0]``;
    ``jacobians[k]`` is the differential of that flow map at ``states[0]``.
    """

    manifold: ChartManifold
    times: np.ndarray
    states: np.ndarray
    jacobians: np.ndarray

    @property
    def final_coords(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_point(self) -> BasePoint:
        return self.point(-1)

    @property
    def endpoint_jacobian(self) -> np.ndarray:
        return self.jacobians[-1]

    def point(self, k: int) -> BasePoint:
        """The node point, with coordinates of its own: a grid's states may be read-only."""
        return BasePoint(self.manifold, self.states[k].copy())


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
    """One classical RK4 step of a list of scalars, rounding as numpy's element-wise ufuncs would.

    Each element is formed in numpy's order for ``z + (0.5*h)*k`` and ``z + (h/6)*(((k1 + 2k2) + 2k3) + k4)``.
    """
    half = 0.5 * h
    k1 = f(t, z)
    k2 = f(t + half, [a + half * b for a, b in zip(z, k1)])
    k3 = f(t + half, [a + half * b for a, b in zip(z, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(z, k3)])
    if not len(z) == len(k1) == len(k2) == len(k3) == len(k4):
        bad = next(len(k) for k in (k1, k2, k3, k4) if len(k) != len(z))
        raise ValueError(f"right-hand side has length {bad}, state has length {len(z)}")
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


def integrate_fixed(f, z0: np.ndarray, t0: float, t1: float, n_steps: int):
    """RK4 over [t0, t1] in n_steps equal steps of a list of Python floats; returns (times, states) arrays.

    ``f(t, z)`` returns the derivative as a sequence of scalars.  A
    ChartDomainError it raises becomes a DomainExitError at the time of
    the failing step, or a NumericalError if the coordinates are not finite.
    """
    times = np.linspace(t0, t1, n_steps + 1)
    states = [np.asarray(z0, dtype=float).tolist()]
    # Python floats throughout: a numpy scalar h or t would make every element one.
    h = float(t1 - t0) / n_steps if n_steps else 0.0
    for t in times[:-1].tolist():
        try:
            states.append(_rk4_step(f, t, states[-1], h))
        except ChartDomainError as err:
            if err.coords is not None and not np.isfinite(err.coords).all():
                raise NumericalError(f"non-finite state at t = {t:.6g}") from err
            raise DomainExitError(
                f"trajectory left the chart domain near t = {t:.6g}: {err}",
                coords=err.coords,
                time=t,
            ) from err
    return times, np.array(states)


def rk4_segments(rhs_for, z0: np.ndarray, boundaries, counts):
    """RK4 over the segments [boundaries[k], boundaries[k + 1]], ``counts[k]`` steps on each.

    ``rhs_for(k)`` is the right-hand side on segment k, so no step crosses a
    boundary.  Returns (times, rows), each node once, segment k spanning rows
    sum(counts[:k]) through sum(counts[:k + 1]); callers check the rows with
    ``check_trajectory``.
    """
    times = [np.asarray(boundaries[:1], dtype=float)]
    rows = [z0[None, :]]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Python ints: a numpy step count would make the step size a numpy scalar.
        for k, n_steps in enumerate(counts.tolist()):
            seg_times, seg_rows = integrate_fixed(
                rhs_for(k), z0, boundaries[k], boundaries[k + 1], n_steps
            )
            times.append(seg_times[1:])
            rows.append(seg_rows[1:])
            z0 = seg_rows[-1]
    return np.concatenate(times), np.concatenate(rows, axis=0)


def check_trajectory(manifold: ChartManifold, times: np.ndarray, bases: np.ndarray, others: np.ndarray) -> None:
    """Reject a trajectory with a non-finite row, naming its time, or a final base outside the chart.

    Row k of ``bases`` and of ``others`` (the rest of the state) is the node
    at ``times[k]``.  Every base row but the last was tested as the first
    stage of the next step, or equals a tested point.
    """
    finite = np.isfinite(bases).all(axis=1) & np.isfinite(others).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalError(f"non-finite state at t = {times[k]:.6g}")
    if not manifold.in_domain(bases[-1]):
        raise DomainExitError(
            f"trajectory left chart '{manifold.name}' at t = {times[-1]:.6g}",
            coords=bases[-1],
            time=float(times[-1]),
        )


def drift_record(Y: VectorField, x0: BasePoint, boundaries, counts) -> tuple:
    """RK4 of Y from x0 over the planned ``counts``: (times, states, points, jacobians).

    Each stage point, a list of Python floats, passes ``check_floats`` once, and the floats of one
    ``flat_value_and_jacobian`` call go straight into the RK4 state and the record.  ``points``, (S, n),
    and ``jacobians``, (S, n, n), hold the S stages in RK4's order, four per step, in flat buffers: a
    per-stage object would cost several times the memory of the states.  The nodes are not yet checked.
    """
    n = x0.manifold.dim
    points, jacobians = array.array("d"), array.array("d")

    def rhs(t, x):
        Y.manifold.check_floats(x)
        entries = Y.flat_value_and_jacobian(x)
        points.fromlist(x)
        jacobians.fromlist(entries[n:])
        return entries[:n]

    times, states = rk4_segments(lambda k: rhs, x0.coords, boundaries, counts)
    return times, states, np.frombuffer(points).reshape(-1, n), np.frombuffer(jacobians).reshape(-1, n, n)


def linear_rhs(jacobians, shape: tuple, terms=None):
    """Right-hand side of Z' = J_s Z + sum(terms[s]), called once per recorded stage s in order.

    Z is a fiber, ``shape`` (n,), or a differential, ``shape`` (n, n), as a
    row-major list.  ``terms`` yields, stage by stage, the list of vectors
    u_i X_i(x_s) added at stage s; none by default.  ``ndarray.dot`` is the BLAS product of ``@``
    on the same shapes, without its ufunc dispatch: a fiber list goes to it as it is.
    """
    stages = zip(jacobians, itertools.repeat(()) if terms is None else terms)
    product = np.ndarray.dot if len(shape) == 1 else lambda jac, z: jac.dot(np.array(z).reshape(shape)).ravel()

    def rhs(t, z):
        jac, added = next(stages)
        v = product(jac, z).tolist()
        for term in added:
            v = [a + b for a, b in zip(v, term)]
        return v

    return rhs


def flow_segments(Y: VectorField, x0: BasePoint, boundaries, counts) -> tuple:
    """(times, states, jacobians) of the drift record of Y from x0 and its J pass, checked.

    The caller evaluates Y at x0 before it plans ``counts``, so a field
    that is not finite there is named before the step budget is checked.
    """
    n = x0.manifold.dim
    times, states, _, jacobians = drift_record(Y, x0, boundaries, counts)
    rhs = linear_rhs(jacobians, (n, n))
    rows = rk4_segments(lambda k: rhs, np.eye(n).ravel(), boundaries, counts)[1]
    check_trajectory(x0.manifold, times, states, rows)
    return times, states, rows.reshape(-1, n, n)


def simulate_bundle(sys, v0: TangentPoint, u, cfg: IntegratorConfig, horizon) -> TangentTrajectory:
    """RK4 on TM of a system's bundle velocity, one constant input per step.

    The velocity is Y^c + sum_i u_i Xi^v for a lifted system, X0^v +
    sum_i u_i Xi^v for an affine vertical one and (0, f(x, y, u)) for a
    general vertical one.  The base never depends on the fiber and RK4
    treats every coordinate alike, so a base pass and then a fiber pass
    give RK4 on the whole bundle bit for bit.  ``sys.base_pass`` returns
    the base rows and ``rhs_for(k)``, the fiber right-hand side on segment
    k.  ``sys._check_start(v0, u)`` first names a value not finite at the
    start, and then ``cfg.plan`` fixes the step counts of both passes.
    """
    boundaries = segment_boundaries(u, horizon, sys.control_dim)
    sys._check_start(v0, u)
    counts = cfg.plan(boundaries)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bases, rhs_for = sys.base_pass(v0.base, boundaries, counts, u)
        times, fibers = rk4_segments(rhs_for, v0.fiber, boundaries, counts)
    check_trajectory(sys.manifold, times, bases, fibers)
    return TangentTrajectory(manifold=sys.manifold, times=times, bases=bases, fibers=fibers)


def still_base_pass(x0: BasePoint, counts, u, rhs_at):
    """``base_pass`` of a system whose base does not move; ``rhs_at(x, u_k)`` is its fiber right-hand side.

    The base is x0 in the first row and at the first RK4 stage, and x0 + 0.0
    after them: RK4 of the whole bundle adds a zero velocity, which turns
    -0.0 into +0.0.
    """
    moved = x0.coords + 0.0

    def rhs_for(k):
        u_k = None if u is None else u.values[k]
        rhs = rhs_at(moved, u_k)
        if k:
            return rhs
        first, stages = rhs_at(x0.coords, u_k), itertools.count()
        return lambda t, y: (rhs if next(stages) else first)(t, y)

    return np.vstack([x0.coords, np.broadcast_to(moved, (counts.sum(), x0.dim))]), rhs_for


def flow(Y: VectorField, x0: BasePoint, T: float, cfg: IntegratorConfig = DEFAULT_CONFIG) -> FlowResult:
    """Flow of dx/dt = Y(x) from x0 over [0, T] (T may be negative), with its differential."""
    Y.at(x0)
    return FlowResult(x0.manifold, *flow_segments(Y, x0, [0.0, T], cfg.plan([0.0, T])))


def flow_differential(
    Y: VectorField, x0: BasePoint, T: float, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Differential of the time-T flow map at x0 (identity at T = 0)."""
    return flow(Y, x0, T, cfg).endpoint_jacobian


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
    result = flow(Y, x0, t, cfg)
    return pullback_vector(result.endpoint_jacobian, X.at(result.final_coords))

