"""Property tests of the base Lie bracket on random bounded trigonometric fields.

Antisymmetry and the Jacobi identity are checked at random points of the
plane and of the spherical chart.  The outer brackets of the Jacobi sum
are formed pointwise from the Jacobians of the symbolic inner brackets,
which are compiled on their first use.

Each example compiles fresh sympy fields, so shrinking a failure would take
minutes; the failing example is reported as generated instead.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tanlift import base_lie_bracket, builtin_manifold, field_from_expressions

CHARTS = {name: builtin_manifold(name) for name in ("R2", "S2-spherical")}

coefficient = st.floats(-1.0, 1.0, allow_nan=False)
field_coefficients = st.lists(st.tuples(coefficient, coefficient, coefficient), min_size=2, max_size=2)
unit = st.floats(0.0, 1.0, allow_nan=False)
no_shrink = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))


def _field(manifold, coeffs, name):
    exprs = [f"{a!r} + {b!r}*sin(x1) + {c!r}*cos(x2)" for a, b, c in coeffs]
    return field_from_expressions(manifold, exprs, name)


def _point(manifold, s, t):
    low, high = manifold.sample_box()
    return low + np.array([s, t]) * (high - low)


def _pointwise_bracket(A, B, x):
    return B.jacobian_at(x) @ A.at(x) - A.jacobian_at(x) @ B.at(x)


@settings(no_shrink, max_examples=20)
@given(st.sampled_from(sorted(CHARTS)), field_coefficients, field_coefficients, unit, unit)
def test_bracket_antisymmetry(chart, cx, cy, s, t):
    manifold = CHARTS[chart]
    X, Y = _field(manifold, cx, "X"), _field(manifold, cy, "Y")
    x = _point(manifold, s, t)
    xy = base_lie_bracket(X, Y).at(x)
    assert np.allclose(xy, -base_lie_bracket(Y, X).at(x), rtol=0.0, atol=1e-12)
    assert np.allclose(xy, _pointwise_bracket(X, Y, x), rtol=0.0, atol=1e-12)


@settings(no_shrink, max_examples=8)
@given(
    st.sampled_from(sorted(CHARTS)),
    field_coefficients,
    field_coefficients,
    field_coefficients,
    unit,
    unit,
)
def test_bracket_jacobi_identity(chart, cx, cy, cz, s, t):
    manifold = CHARTS[chart]
    X, Y, Z = (_field(manifold, c, name) for c, name in ((cx, "X"), (cy, "Y"), (cz, "Z")))
    x = _point(manifold, s, t)
    cycle = ((X, Y, Z), (Y, Z, X), (Z, X, Y))
    jacobi = sum(_pointwise_bracket(A, base_lie_bracket(B, C), x) for A, B, C in cycle)
    assert np.max(np.abs(jacobi)) < 1e-12
