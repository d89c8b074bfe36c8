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

from .errors import NumericalError
from .expressions import scalar_function
from .lifts import (
    FunctionLift,
    _bracket,
    _value_and_stencil,
    base_lie_bracket,
    complete_lift,
    directional_derivative,
    function_lift_eval,
    vertical_lift,
)
from .manifold import DEFAULT_DERIV_STEP, ChartManifold, VectorField, dprojection, sample_tangent_points

_DEFAULT_SAMPLES = 50

# Each identity: the key of its running max, its name in the report, and
# the tolerance its max residual is held to.  Records follow this order.
IDENTITIES = (
    ("vv", "bracket of vertical lifts vanishes", 1e-6),
    ("cv", "complete-vertical bracket is lifted base bracket", 1e-5),
    ("cc", "complete-complete bracket is lifted base bracket", 1e-5),
    ("projection", "complete lift projects onto the base field", 1e-9),
    ("linear_v", "vertical lift is linear", 0.0),
    ("linear_c", "complete lift is linear", 1e-6),
    ("derive_vv", "vertical lift annihilates vertical function lifts", 1e-5),
    ("derive_cv", "complete lift derives vertical function lifts", 1e-5),
    ("derive_cc", "complete lift derives complete function lifts", 1e-5),
    ("fiber", "fiber translation curve has vertical-lift velocity", 1e-9),
)


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
    """A fixed scalar function with its gradient and Hessian, both derived symbolically.

    On a 2-D chart it is sin(x1) x2 + cos(x2).  Each further coordinate
    x_k adds the term sin(x_k) x_(k-1), so that every coordinate enters.
    """
    terms = ["sin(x1)*x2 + cos(x2)", *(f"sin(x{k})*x{k - 1}" for k in range(3, manifold.dim + 1))]
    return scalar_function(manifold.dim, " + ".join(terms))


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
    samples: int = _DEFAULT_SAMPLES,
    seed: int = 42,
) -> list:
    """Check the lift identities over all ordered field pairs.

    One pass over the sample points: at each point every field's vertical
    and complete lift is evaluated and central-differenced once, and all
    numeric brackets are formed from those (value, stencil) pairs.  The
    bracket identities use every point, linearity the first 10, the
    derivation and fiber-translation identities the first 20.

    Returns one record per identity with the max residual, the
    tolerance it is held to, and a pass flag.  A non-finite lift value
    or residual raises ``NumericalError`` naming the field or identity
    and the sample point.
    """
    if len(fields) < 2:
        raise ValueError("identity battery needs at least 2 fields")
    rng = np.random.default_rng(seed)
    points = sample_tangent_points(manifold, samples, rng)
    n = manifold.dim
    pairs = [(i, j) for i in range(len(fields)) for j in range(len(fields))]
    coefficients = [rng.uniform(-2.0, 2.0, size=2) for _ in pairs]
    lifts = [(vertical_lift(X), complete_lift(X)) for X in fields]
    brackets = [base_lie_bracket(fields[i], fields[j]) for i, j in pairs]
    exact = [(vertical_lift(B), complete_lift(B)) for B in brackets]
    combos = [
        linear_combination(a, fields[i], b, fields[j]) for (i, j), (a, b) in zip(pairs, coefficients)
    ]
    combo_lifts = [(vertical_lift(C), complete_lift(C)) for C in combos]
    f, grad, hess = _test_function(manifold)
    fv = FunctionLift(manifold=manifold, base_fn=f, kind="vertical", gradient=grad)
    fc = FunctionLift(manifold=manifold, base_fn=f, kind="complete", gradient=grad)
    derived = [
        [_derived_function_lift(X, kind, f, grad, hess) for kind in ("vertical", "complete")]
        for X in fields
    ]
    names = {key: name for key, name, _ in IDENTITIES}
    worst = dict.fromkeys(names, 0.0)
    h = DEFAULT_DERIV_STEP

    def note(key, residual):
        if not np.isfinite(residual):
            raise NumericalError(f"identity {names[key]!r} is not finite at {where}")
        worst[key] = max(worst[key], residual)

    with np.errstate(all="ignore"):
        for k, v in enumerate(points):
            w = v.as_vector()
            where = f"sample point {k}, (x, y) = {w.tolist()}"
            # (value, stencil) pairs of each field's vertical and complete lift.
            vert = [_value_and_stencil(Xv, w) for Xv, _ in lifts]
            comp = [_value_and_stencil(Xc, w) for _, Xc in lifts]
            for X, (xv, _), (xc, _) in zip(fields, vert, comp):
                if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(xc))):
                    raise NumericalError(f"lifts of field {X.name!r} are not finite at {where}")
            for (i, j), (Bv, Bc) in zip(pairs, exact):
                note("vv", np.max(np.abs(_bracket(vert[i], vert[j]))))
                note("cv", np.max(np.abs(_bracket(comp[i], vert[j]) - Bv.at(v))))
                note("cc", np.max(np.abs(_bracket(comp[i], comp[j]) - Bc.at(v))))
            for (xv, _), (xc, _) in zip(vert, comp):
                note("projection", np.max(np.abs(dprojection(v, xc) - xv[n:])))
            if k >= 20:
                continue
            for (Xv, Xc), (Xf_v, Xf_c), (xv, _) in zip(lifts, derived, vert):
                note("derive_vv", abs(directional_derivative(fv, Xv, v)))
                note("derive_cv", abs(directional_derivative(fv, Xc, v) - function_lift_eval(Xf_v, v)))
                note("derive_cc", abs(directional_derivative(fc, Xc, v) - function_lift_eval(Xf_c, v)))
                # Velocity of the fiber-translation curve (x, y + t X(x)) at t = 0.
                fd = ((v.fiber + h * xv[n:]) - (v.fiber - h * xv[n:])) / (2 * h)
                note("fiber", np.max(np.abs(np.concatenate([np.zeros(n), fd]) - xv)))
            if k >= 10:
                continue
            for (i, j), (a, b), (Cv, Cc) in zip(pairs, coefficients, combo_lifts):
                note("linear_v", np.max(np.abs(Cv.at(v) - (a * vert[i][0] + b * vert[j][0]))))
                note("linear_c", np.max(np.abs(Cc.at(v) - (a * comp[i][0] + b * comp[j][0]))))

    return [
        {
            "identity": name,
            "max_residual": float(worst[key]),
            "tolerance": tolerance,
            "pass": bool(worst[key] <= tolerance),
        }
        for key, name, tolerance in IDENTITIES
    ]
