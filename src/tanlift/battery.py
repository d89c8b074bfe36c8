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
from .lifts import _bracket, base_lie_bracket, complete_lift, lift_rows, matvec, vertical_lift
from .manifold import DEFAULT_DERIV_STEP, ChartManifold, VectorField, central_differences, sample_tangent_points

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
    """A fixed scalar function and its gradient field, derived symbolically; the field's Jacobian is the Hessian.

    On a 2-D chart it is sin(x1) x2 + cos(x2).  Each further coordinate
    x_k adds the term sin(x_k) x_(k-1), so that every coordinate enters.
    """
    terms = ["sin(x1)*x2 + cos(x2)", *(f"sin(x{k})*x{k - 1}" for k in range(3, manifold.dim + 1))]
    return scalar_function(manifold.dim, " + ".join(terms))


def run_identity_battery(
    manifold: ChartManifold,
    fields: Sequence[VectorField],
    samples: int = _DEFAULT_SAMPLES,
    seed: int = 42,
) -> list:
    """Check the lift identities over all ordered field pairs.

    The sample points are the rows of one (B, 2n) array, and each check is
    one array pass over them: every field's vertical and complete lift is
    evaluated and central-differenced once over all rows (``lift_rows``
    under the one stencil of ``central_differences``), and all numeric
    brackets are formed from those (value, stencil) stacks.  Row k of
    every pass is bit for bit what point k alone gives.  The bracket
    identities use every point, linearity the first 10, the derivation and
    fiber-translation identities the first 20.

    Returns one record per identity with the max residual, the
    tolerance it is held to, and a pass flag.  A failure raises what a
    pass point by point raises first: points in order, and within a point
    the lifts (a stencil point outside the chart is a ChartDomainError
    with its coordinates, a non-finite lift value a NumericalError naming
    the field), then each pair's brackets, the projection, the derivation
    (whose points are also tested against the chart) and fiber checks, and
    linearity; a non-finite residual is a NumericalError naming the
    identity and the sample point.  Each failure is kept with its row, and
    each pass runs only over the rows before the first failure found so
    far.  An exception a field's own code raises is kept at the first row
    where it raises, so a lazy kernel compile error is raised where point
    0 meets it.
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
    f, gradient = _test_function(manifold)
    names = {key: name for key, name, _ in IDENTITIES}
    worst = dict.fromkeys(names, 0.0)
    if not points:
        return _records(worst)
    h = DEFAULT_DERIV_STEP
    rows = np.array([v.as_vector() for v in points])
    limit, first = len(rows), None

    def fail(bad, error):
        """Keep the first row of ``bad`` below ``limit`` as the earliest failure; ``error(k)`` is its exception."""
        nonlocal limit, first
        bad = bad[:limit]
        if bad.any():
            limit = int(np.argmax(bad))
            first = error(limit)
            if limit == 0:
                raise first

    def where(k):
        return f"sample point {k}, (x, y) = {rows[k].tolist()}"

    def note(key, residuals):
        fail(~np.isfinite(residuals), lambda k: NumericalError(f"identity {names[key]!r} is not finite at {where(k)}"))
        worst[key] = max(worst[key], residuals[:limit].max())

    def test(chart, P):
        """Fail at the first row of P whose base point is outside the chart, with its coordinates."""
        fail(~chart.in_domain(P[:limit, :n]), lambda k: chart.domain_error(P[k, :n].copy()))

    def run(evaluate, W):
        """``evaluate`` over the rows of W below ``limit``, NaN past them.

        Row k of a pass is what row k alone gives, so where ``evaluate``
        raises, the first row whose prefix of W raises (found by halving)
        fails with what it raised, and the rows before it are evaluated.
        """
        try:
            values = evaluate(W[:limit])
        except Exception as raised:
            # evaluate(W[:good]) runs and evaluate(W[:bad]) raises ``error``, until row ``good`` is the first to raise.
            good, bad, error = 0, limit, raised
            while bad - good > 1:
                middle = (good + bad) // 2
                try:
                    evaluate(W[:middle])
                    good = middle
                except Exception as raised:
                    bad, error = middle, raised
            fail(np.arange(bad) == good, lambda k: error)
            values = evaluate(W[:limit])
        if len(values) == len(W):
            return values
        out = np.full((len(W), *values.shape[1:]), np.nan)
        out[: len(values)] = values
        return out

    def lifted(F, W):
        return run(lambda P: lift_rows(F, P), W)

    def value_and_stencil(F):
        """F's coefficients over the rows and their central differences; each point is tested against F's chart."""

        def at(P):
            test(F.manifold, P)
            return lifted(F, P)

        W = rows[:limit]
        return at(W), central_differences(at, W)

    def head(pair):
        return pair[0][:limit], pair[1][:limit]

    def size(a):
        return np.abs(a).max(axis=-1)

    def dot(a, b):
        """Row k is ``a[k] @ b[k]``, rounded alike."""
        return matvec(a[:, None, :], b)[:, 0]

    def directional(kind, direction):
        """Central difference of the test function's vertical or complete lift along ``direction`` over the first rows."""
        W = rows[: len(direction)]
        shifted = [W + h * direction, W - h * direction]
        for P in shifted:
            test(manifold, P)
        if kind == "vertical":
            plus, minus = (f(P[:, :n].T) for P in shifted)
        else:
            plus, minus = (dot(gradient.at_rows(P[:, :n]), P[:, n:]) for P in shifted)
        return (plus - minus) / (2.0 * h)

    with np.errstate(all="ignore"):
        vert = [value_and_stencil(Xv) for Xv, _ in lifts]
        comp = [value_and_stencil(Xc) for _, Xc in lifts]
        for X, (xv, _), (xc, _) in zip(fields, vert, comp):
            finite = np.isfinite(xv[:limit]).all(axis=1) & np.isfinite(xc[:limit]).all(axis=1)
            fail(~finite, lambda k: NumericalError(f"lifts of field {X.name!r} are not finite at {where(k)}"))
        for (i, j), (Bv, Bc) in zip(pairs, exact):
            note("vv", size(_bracket(head(vert[i]), head(vert[j]))))
            note("cv", size(_bracket(head(comp[i]), head(vert[j])) - lifted(Bv, rows[:limit])))
            note("cc", size(_bracket(head(comp[i]), head(comp[j])) - lifted(Bc, rows[:limit])))
        for (xv, _), (xc, _) in zip(vert, comp):
            note("projection", size(xc[:limit, :n] - xv[:limit, n:]))
        for X, (xv, _), (xc, _) in zip(fields, vert, comp):
            # Each note keeps only the rows below ``limit``; a pass may run over a few more.
            m = min(limit, 20)
            x, y = rows[:m, :n], rows[:m, n:]
            note("derive_vv", np.abs(directional("vertical", xv[:m])))
            value = run(X.at_rows, x)
            g = gradient.at_rows(x)
            note("derive_cv", np.abs(directional("vertical", xc[:m]) - dot(g, value)))
            hessian = gradient.value_and_jacobian_rows(x)[1]
            jacobian = run(lambda x: X.value_and_jacobian_rows(x)[1], x)
            g_grad = matvec(hessian, value) + matvec(jacobian.transpose(0, 2, 1), g)
            note("derive_cc", np.abs(directional("complete", xc[:m]) - dot(g_grad, y)))
            # Velocity of the fiber-translation curve (x, y + t X(x)) at t = 0.
            fd = ((rows[:m, n:] + h * xv[:m, n:]) - (rows[:m, n:] - h * xv[:m, n:])) / (2 * h)
            note("fiber", size(np.concatenate([np.zeros((m, n)), fd], axis=1) - xv[:m]))
        for (i, j), (a, b), (Cv, Cc) in zip(pairs, coefficients, combo_lifts):
            m = min(limit, 10)
            note("linear_v", size(lifted(Cv, rows[:m]) - (a * vert[i][0][:m] + b * vert[j][0][:m])))
            note("linear_c", size(lifted(Cc, rows[:m]) - (a * comp[i][0][:m] + b * comp[j][0][:m])))
    if first is not None:
        raise first
    return _records(worst)


def _records(worst: dict) -> list:
    """One record per identity, in ``IDENTITIES`` order, from the max residual of each."""
    return [
        {
            "identity": name,
            "max_residual": float(worst[key]),
            "tolerance": tolerance,
            "pass": bool(worst[key] <= tolerance),
        }
        for key, name, tolerance in IDENTITIES
    ]
