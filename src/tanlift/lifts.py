"""Vertical and complete lifts, function lifts, and Lie brackets.

A lifted field lives on the tangent bundle and is represented by its
coefficient map in the induced frame (d/dx_i, d/dy_i): a callable from a
2n-vector (x, y) to a 2n coefficient vector.  Brackets of lifted fields
are evaluated numerically from these coefficients; for pairs of known
lifts the exact bracket algebra is available as a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .expressions import symbolic_bracket
from .manifold import (
    DEFAULT_DERIV_STEP,
    BasePoint,
    ChartManifold,
    TangentPoint,
    VectorField,
    central_differences,
)

VERTICAL_LIFT = "vertical-lift"
COMPLETE_LIFT = "complete-lift"
GENERAL = "general"


@dataclass(frozen=True)
class LiftedVectorField:
    """A vector field on the tangent bundle in induced coordinates.

    ``func`` maps the concatenated (x, y) vector (length 2n) to the 2n
    coefficient vector; ``at`` checks the base coordinates before calling
    it, so ``func`` need not check them again.  ``at`` may return
    non-finite coefficients, without a warning; its callers check them.
    ``kind`` records whether the field arose as a vertical or complete lift
    of ``source``, which unlocks exact bracket shortcuts; anything else is
    ``general``.
    """

    manifold: ChartManifold
    func: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    kind: str = GENERAL
    source: Optional[VectorField] = None
    name: str = "F"

    def at(self, v) -> np.ndarray:
        """Coefficients at a tangent point (or raw 2n vector; base is checked)."""
        w = v.as_vector() if isinstance(v, TangentPoint) else np.asarray(v, dtype=float)
        n = self.manifold.dim
        if w.shape != (2 * n,):
            raise ValueError(f"expected a vector of length {2 * n}, got shape {w.shape}")
        self.manifold.check(w[:n])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.asarray(self.func(w), dtype=float).reshape(-1)
        if out.shape != (2 * n,):
            raise ValueError(f"{self.name} coefficients have length {out.size}, expected {2 * n}")
        return out


def vertical_lift(X: VectorField) -> LiftedVectorField:
    """Vertical lift: translates fibers in the direction X(x).

    In induced coordinates the coefficients are (0, X(x)); the flow is
    (x, y) -> (x, y + t X(x)).
    """
    n = X.manifold.dim

    def func(w):
        return np.concatenate([np.zeros(n), X.value(w[:n])])

    return LiftedVectorField(
        manifold=X.manifold, func=func, kind=VERTICAL_LIFT, source=X, name=f"{X.name}^v"
    )


def complete_lift(X: VectorField) -> LiftedVectorField:
    """Complete lift: the field on TM whose flow is the differential of X's flow.

    Coefficients are (X(x), J_X(x) y), using the analytic Jacobian when
    the field has one and central differences otherwise.
    """

    def func(w):
        n = X.manifold.dim
        value, jac = X.value_and_jacobian(w[:n].tolist())
        return np.concatenate([value, jac @ w[n:]])

    return LiftedVectorField(
        manifold=X.manifold, func=func, kind=COMPLETE_LIFT, source=X, name=f"{X.name}^c"
    )


def base_lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y] = J_Y X - J_X Y as a new vector field.

    When both operands carry symbolic coefficients the bracket is formed
    symbolically, so iterated brackets stay exact; otherwise the bracket
    coefficients are evaluated pointwise from the operands' Jacobians and
    the new field falls back to numeric differentiation.
    """
    if X.manifold.dim != Y.manifold.dim:
        raise ValueError("bracket operands live on charts of different dimension")
    name = f"[{X.name},{Y.name}]"
    if X.sym is not None and Y.sym is not None:
        return symbolic_bracket(X, Y, name)

    def func(x):
        x = x.tolist()
        return _bracket(X.value_and_jacobian(x), Y.value_and_jacobian(x))

    return VectorField(manifold=X.manifold, func=func, jac=None, name=name)


def lie_bracket(
    A: LiftedVectorField,
    B: LiftedVectorField,
    v: TangentPoint,
    method: str = "auto",
) -> np.ndarray:
    """Bracket [A, B] of lifted fields evaluated at a tangent point.

    ``method="numeric"`` always uses finite-difference Jacobians on the
    2n-dimensional induced coordinates; the identity battery forms the
    same bracket, row by row, from its stencils of each lift over all
    points.  ``"auto"`` takes the exact closed form when both operands are
    recognized lifts with known sources: vertical/vertical brackets
    vanish, complete/vertical gives the vertical lift of the base bracket,
    complete/complete the complete lift of it.
    """
    if method not in ("auto", "numeric"):
        raise ValueError(f"unknown bracket method {method!r}")
    if method == "auto" and A.source is not None and B.source is not None:
        pair = (A.kind, B.kind)
        if pair == (VERTICAL_LIFT, VERTICAL_LIFT):
            return np.zeros(2 * A.manifold.dim)
        if pair == (COMPLETE_LIFT, VERTICAL_LIFT):
            return vertical_lift(base_lie_bracket(A.source, B.source)).at(v)
        if pair == (VERTICAL_LIFT, COMPLETE_LIFT):
            return -vertical_lift(base_lie_bracket(B.source, A.source)).at(v)
        if pair == (COMPLETE_LIFT, COMPLETE_LIFT):
            return complete_lift(base_lie_bracket(A.source, B.source)).at(v)
    w = v.as_vector()
    return _bracket(_value_and_stencil(A, w), _value_and_stencil(B, w))


def _value_and_stencil(F: LiftedVectorField, w: np.ndarray) -> tuple:
    """F's coefficients at the 2n-vector w and their central differences there."""
    return F.at(w), central_differences(F.at, w)


def lift_rows(F: LiftedVectorField, W: np.ndarray) -> np.ndarray:
    """A vertical or complete lift's coefficients at each row of a (B, 2n) array whose base rows are checked.

    Row k is ``F.at(W[k])`` bit for bit: the source field's row paths,
    ``VectorField.at_rows`` and ``value_and_jacobian_rows``, give its
    values and Jacobians, and J y is one stacked product.
    """
    X, n = F.source, F.manifold.dim
    if F.kind == VERTICAL_LIFT:
        return np.concatenate([np.zeros((len(W), n)), X.at_rows(W[:, :n])], axis=1)
    if F.kind == COMPLETE_LIFT:
        values, jacobians = X.value_and_jacobian_rows(W[:, :n])
        return np.concatenate([values, matvec(jacobians, W[:, n:])], axis=1)
    raise ValueError(f"{F.name} is not a vertical or complete lift")


def matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for one matrix and vector, or row by row for stacks of them along leading axes.

    Each row's product is a stacked ``np.matmul`` of the same BLAS call as
    ``A[k] @ v[k]``, so it rounds alike; ``np.einsum`` does not.
    """
    return np.matmul(A, v[..., None])[..., 0]


def _bracket(a: tuple, b: tuple) -> np.ndarray:
    """Numeric bracket [A, B] = DB a - DA b from the (value, Jacobian or stencil) pairs of A and B.

    The pairs may be stacks along a leading row axis; row k is then the bracket of row k.
    """
    (a_value, a_stencil), (b_value, b_stencil) = a, b
    return matvec(b_stencil, a_value) - matvec(a_stencil, b_value)


def is_vertical(F: LiftedVectorField, samples: Iterable[TangentPoint], tol: float = 1e-12) -> bool:
    """True when the base-direction coefficients vanish at every sample."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample point")
    n = F.manifold.dim
    return all(np.max(np.abs(F.at(v)[:n])) <= tol for v in samples)


@dataclass(frozen=True)
class FunctionLift:
    """Lift of a scalar chart function to the tangent bundle.

    The vertical kind evaluates as f(x) (composition with the
    projection); the complete kind evaluates the differential on the
    fiber, grad f(x) . y.  ``gradient`` overrides the default
    central-difference gradient.
    """

    manifold: ChartManifold
    base_fn: Callable[[np.ndarray], float] = field(repr=False)
    kind: str = "vertical"
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = field(repr=False, default=None)

    def __post_init__(self):
        if self.kind not in ("vertical", "complete"):
            raise ValueError(f"unknown function lift kind {self.kind!r}")

    def gradient_at(self, coords) -> np.ndarray:
        if self.gradient is not None:
            return np.asarray(self.gradient(coords), dtype=float)
        return central_differences(self.base_fn, coords)


def function_lift_eval(F: FunctionLift, v: TangentPoint) -> float:
    """Evaluate a lifted function at a tangent point."""
    x = F.manifold.check(v.base.coords)
    if F.kind == "vertical":
        return float(F.base_fn(x))
    return float(F.gradient_at(x) @ v.fiber)


def directional_derivative(F: FunctionLift, W: LiftedVectorField, v: TangentPoint) -> float:
    """Finite-difference derivative of a lifted function along a lifted field.

    The per-point form of the identity battery's derivation checks (e.g.
    that vertical lifts annihilate vertical function lifts), against which
    the battery's row passes are tested.
    """
    w = v.as_vector()
    direction = W.at(v)
    n = F.manifold.dim
    h = DEFAULT_DERIV_STEP

    def eval_at(vec):
        point = TangentPoint(BasePoint(F.manifold, vec[:n]), vec[n:])
        return function_lift_eval(F, point)

    return (eval_at(w + h * direction) - eval_at(w - h * direction)) / (2.0 * h)
