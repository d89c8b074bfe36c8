"""Numerical verification battery for the lift identities.

Every identity is checked at seeded random tangent points with the
numeric bracket path (finite differences on the induced coordinates),
so the exact bracket algebra is the oracle rather than the thing being
tested.  Residuals are max-norms over all sample points and field
pairs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .lifts import (
    FunctionLift,
    complete_lift,
    base_lie_bracket,
    directional_derivative,
    function_lift_eval,
    lie_bracket,
    vertical_lift,
)
from .manifold import ChartManifold, VectorField, dprojection, sample_tangent_points

BRACKET_TOL_FIRST = 1e-6
BRACKET_TOL_SECOND = 1e-5
PROJECTION_TOL = 1e-9
DERIVATION_TOL = 1e-5
LINEARITY_COMPLETE_TOL = 1e-6


def linear_combination(a: float, X: VectorField, b: float, Y: VectorField) -> VectorField:
    """The field a X + b Y, with combined Jacobian when both operands have one."""
    jac = None
    if X.jac is not None and Y.jac is not None:
        jac = lambda x: a * X.jac(x) + b * Y.jac(x)  # noqa: E731
    return VectorField(
        manifold=X.manifold,
        func=lambda x: a * X.value(x) + b * Y.value(x),
        jac=jac,
        name=f"{a}*{X.name}+{b}*{Y.name}",
    )


def _test_function(manifold: ChartManifold):
    """A fixed scalar function with analytic gradient and Hessian.

    Only the first two coordinates enter, which covers every built-in
    chart; higher-dimensional charts get a function constant in the
    extra coordinates.
    """

    def f(x):
        return np.sin(x[0]) * x[1] + np.cos(x[1])

    def grad(x):
        g = np.zeros(manifold.dim)
        g[0] = np.cos(x[0]) * x[1]
        g[1] = np.sin(x[0]) - np.sin(x[1])
        return g

    def hess(x):
        H = np.zeros((manifold.dim, manifold.dim))
        H[0, 0] = -np.sin(x[0]) * x[1]
        H[0, 1] = H[1, 0] = np.cos(x[0])
        H[1, 1] = -np.cos(x[1])
        return H

    return f, grad, hess


def _derived_function_lift(X: VectorField, kind: str, f, grad, hess) -> FunctionLift:
    """Lift of the derivative function (X f), with its analytic gradient."""

    def g(x):
        return float(grad(x) @ X.at(x))

    def g_grad(x):
        return hess(x) @ X.at(x) + X.jacobian_at(x).T @ grad(x)

    return FunctionLift(manifold=X.manifold, base_fn=g, kind=kind, gradient=g_grad)


def run_identity_battery(
    manifold: ChartManifold,
    fields: Sequence[VectorField],
    samples: int = 50,
    seed: int = 42,
) -> list:
    """Check the lift identities over all ordered field pairs.

    Returns one record per identity with the max residual, the
    tolerance it is held to, and a pass flag.
    """
    if len(fields) < 2:
        raise ValueError("identity battery needs at least 2 fields")
    rng = np.random.default_rng(seed)
    points = sample_tangent_points(manifold, samples, rng)
    n = manifold.dim
    pairs = [(X, Y) for X in fields for Y in fields]

    records = []

    def record(identity, residual, tolerance):
        records.append(
            {
                "identity": identity,
                "max_residual": float(residual),
                "tolerance": tolerance,
                "pass": bool(residual <= tolerance),
            }
        )

    # Bracket identities, numeric bracket vs exact algebra.
    res_vv = 0.0
    res_cv = 0.0
    res_cc = 0.0
    for X, Y in pairs:
        Xv, Yv = vertical_lift(X), vertical_lift(Y)
        Xc, Yc = complete_lift(X), complete_lift(Y)
        XY = base_lie_bracket(X, Y)
        XYv, XYc = vertical_lift(XY), complete_lift(XY)
        for v in points:
            res_vv = max(res_vv, np.max(np.abs(lie_bracket(Xv, Yv, v, method="numeric"))))
            res_cv = max(
                res_cv,
                np.max(np.abs(lie_bracket(Xc, Yv, v, method="numeric") - XYv.at(v))),
            )
            res_cc = max(
                res_cc,
                np.max(np.abs(lie_bracket(Xc, Yc, v, method="numeric") - XYc.at(v))),
            )
    record("bracket of vertical lifts vanishes", res_vv, BRACKET_TOL_FIRST)
    record("complete-vertical bracket is lifted base bracket", res_cv, BRACKET_TOL_SECOND)
    record("complete-complete bracket is lifted base bracket", res_cc, BRACKET_TOL_SECOND)

    # Projection relation of the complete lift.
    res = 0.0
    for X in fields:
        Xc = complete_lift(X)
        for v in points:
            res = max(res, np.max(np.abs(dprojection(v, Xc.at(v)) - X.at(v.base))))
    record("complete lift projects onto the base field", res, PROJECTION_TOL)

    # Linearity of both lifts under random combinations.
    res_v = 0.0
    res_c = 0.0
    for X, Y in pairs:
        a, b = rng.uniform(-2.0, 2.0, size=2)
        combo = linear_combination(a, X, b, Y)
        combo_v, combo_c = vertical_lift(combo), complete_lift(combo)
        Xv, Yv = vertical_lift(X), vertical_lift(Y)
        Xc, Yc = complete_lift(X), complete_lift(Y)
        for v in points[:10]:
            res_v = max(res_v, np.max(np.abs(combo_v.at(v) - (a * Xv.at(v) + b * Yv.at(v)))))
            res_c = max(res_c, np.max(np.abs(combo_c.at(v) - (a * Xc.at(v) + b * Yc.at(v)))))
    record("vertical lift is linear", res_v, 0.0)
    record("complete lift is linear", res_c, LINEARITY_COMPLETE_TOL)

    # Derivation identities against a fixed analytic test function.
    f, grad, hess = _test_function(manifold)
    fv = FunctionLift(manifold=manifold, base_fn=f, kind="vertical", gradient=grad)
    fc = FunctionLift(manifold=manifold, base_fn=f, kind="complete", gradient=grad)
    res_vv_fn = 0.0
    res_cv_fn = 0.0
    res_cc_fn = 0.0
    for X in fields:
        Xv, Xc = vertical_lift(X), complete_lift(X)
        Xf_v = _derived_function_lift(X, "vertical", f, grad, hess)
        Xf_c = _derived_function_lift(X, "complete", f, grad, hess)
        for v in points[:20]:
            res_vv_fn = max(res_vv_fn, abs(directional_derivative(fv, Xv, v)))
            res_cv_fn = max(
                res_cv_fn,
                abs(directional_derivative(fv, Xc, v) - function_lift_eval(Xf_v, v)),
            )
            res_cc_fn = max(
                res_cc_fn,
                abs(directional_derivative(fc, Xc, v) - function_lift_eval(Xf_c, v)),
            )
    record("vertical lift annihilates vertical function lifts", res_vv_fn, DERIVATION_TOL)
    record("complete lift derives vertical function lifts", res_cv_fn, DERIVATION_TOL)
    record("complete lift derives complete function lifts", res_cc_fn, DERIVATION_TOL)

    # The fiber-translation curve has the vertical lift as its velocity.
    res = 0.0
    h = 1e-5
    for X in fields:
        Xv = vertical_lift(X)
        for v in points[:20]:
            direction = X.at(v.base)
            fd = np.concatenate(
                [np.zeros(n), ((v.fiber + h * direction) - (v.fiber - h * direction)) / (2 * h)]
            )
            res = max(res, np.max(np.abs(fd - Xv.at(v))))
    record("fiber translation curve has vertical-lift velocity", res, PROJECTION_TOL)

    return records
