import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tanlift import (
    ChartDomainError,
    ChartManifold,
    LiftedSystem,
    NumericalError,
    VectorField,
    VerticalAffineSystem,
    builtin_manifold,
    complete_lift,
    dprojection,
    field_from_callable,
    field_from_expressions,
    lie_bracket,
    numeric_gradient,
    numeric_jacobian,
    project,
    vertical_lift,
)
from tanlift.manifold import sample_tangent_points

from conftest import random_smooth_field


def test_project_discards_fiber(r2):
    v = r2.tangent_point([0.5, 1.0], [2.0, -1.0])
    assert np.array_equal(project(v).coords, [0.5, 1.0])


def test_project_zero_section(s2):
    v = s2.tangent_point([0.7, 0.2], [0.0, 0.0])
    assert np.array_equal(project(v).coords, [0.7, 0.2])


def test_project_is_fiber_translation_invariant(r2, rng):
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        shift = rng.uniform(-5, 5, 2)
        a = r2.tangent_point(x, y)
        b = r2.tangent_point(x, y + shift)
        assert np.array_equal(project(a).coords, project(b).coords)


def test_dprojection_keeps_base_block(r2):
    v = r2.tangent_point([0.0, 0.0], [0.0, 0.0])
    assert np.array_equal(dprojection(v, [1.0, 0.0, 5.0, 7.0]), [1.0, 0.0])


def test_dprojection_kills_vertical_vectors(r2):
    v = r2.tangent_point([1.0, 2.0], [3.0, 4.0])
    assert np.array_equal(dprojection(v, [0.0, 0.0, 9.5, -3.2]), [0.0, 0.0])


def test_dprojection_is_linear(r2, rng):
    v = r2.tangent_point([0.1, 0.2], [0.3, 0.4])
    for _ in range(20):
        W1 = rng.normal(size=4)
        W2 = rng.normal(size=4)
        a, b = rng.normal(size=2)
        lhs = dprojection(v, a * W1 + b * W2)
        rhs = a * dprojection(v, W1) + b * dprojection(v, W2)
        assert np.array_equal(lhs, rhs)


def test_dprojection_length_mismatch(r2):
    v = r2.tangent_point([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        dprojection(v, [1.0, 2.0, 3.0])


def test_numeric_jacobian_identity_field(r2):
    X = field_from_callable(r2, lambda x: x, name="id")
    J = numeric_jacobian(X, r2.point([0.3, -0.7]), h=1e-5)
    assert np.max(np.abs(J - np.eye(2))) < 1e-9


def test_numeric_jacobian_constant_field(r2):
    X = field_from_callable(r2, lambda x: np.array([2.0, -3.0]))
    J = numeric_jacobian(X, r2.point([0.3, -0.7]), h=1e-5)
    assert np.max(np.abs(J)) == 0.0


def test_numeric_jacobian_quadratic_field(r2):
    # Oracle: d/dx1 of x1^2 at x1=1 is 2, every other entry 0.
    X = field_from_callable(r2, lambda x: np.array([x[0] ** 2, 0.0]))
    J = numeric_jacobian(X, r2.point([1.0, 0.0]), h=1e-5)
    assert np.max(np.abs(J - np.array([[2.0, 0.0], [0.0, 0.0]]))) < 1e-8


def test_analytic_jacobian_matches_numeric_at_random_points(r2, rng):
    X = random_smooth_field(r2, rng)
    assert X.jac is not None
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        diff = X.jacobian_at(x) - numeric_jacobian(X, x, h=1e-5)
        worst = max(worst, np.max(np.abs(diff)))
    assert worst <= 1e-6


def _columns(f, x, h):
    """The central-difference stencil written out column by column."""
    out = np.empty(np.shape(f(x)) + (x.size,))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        out[..., j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


@pytest.mark.parametrize("chart", ["R2", "S2-spherical"])
def test_stencils_are_the_written_out_central_differences(chart):
    manifold = builtin_manifold(chart)
    rng = np.random.default_rng(3)
    X = random_smooth_field(manifold, rng, "X")
    Y = random_smooth_field(manifold, rng, "Y")
    hand_built = field_from_callable(manifold, X.func, name="H")

    def f(x):
        return np.sin(x[0]) * x[1] + x[0] ** 3

    for v in sample_tangent_points(manifold, 5, rng):
        x = v.base.coords
        for F in (X, hand_built):
            assert np.array_equal(numeric_jacobian(F, v.base), _columns(F.at, x, 1e-5))
            assert np.array_equal(numeric_jacobian(F, x, h=1e-3), _columns(F.at, x, 1e-3))
        assert np.array_equal(hand_built.jacobian_at(x), _columns(X.at, x, 1e-5))
        assert np.array_equal(numeric_gradient(f, x), _columns(f, x, 1e-5))
        A, B = complete_lift(Y), vertical_lift(X)
        w = v.as_vector()
        expected = _columns(B.at, w, 1e-5) @ A.at(v) - _columns(A.at, w, 1e-5) @ B.at(v)
        assert np.array_equal(lie_bracket(A, B, v, method="numeric"), expected)


@pytest.mark.parametrize("system", [LiftedSystem, VerticalAffineSystem])
def test_systems_need_a_control_and_fields_of_the_chart_dimension(r2, system):
    Y = field_from_callable(r2, lambda x: x, name="Y")
    with pytest.raises(ValueError, match="need at least one control field"):
        system(r2, Y, ())
    r3 = ChartManifold(dim=3, name="R3")
    Z = field_from_callable(r3, lambda x: x, name="Z")
    with pytest.raises(ValueError, match="field Z has wrong dimension"):
        system(r2, Y, (Z,))
    with pytest.raises(ValueError, match="field Z has wrong dimension"):
        system(r2, Z, (Y,))
    built = system(r2, Y, [Y, Y])
    assert built.controls == (Y, Y) and built.control_dim == 2


@pytest.mark.parametrize("system", [LiftedSystem, VerticalAffineSystem])
def test_systems_need_fields_of_charts_with_their_bounds(r2, s2, system):
    Y = field_from_callable(r2, lambda x: x, name="Y")
    X = field_from_callable(s2, lambda x: x, name="X")
    with pytest.raises(ValueError, match=r"^field Y is defined on chart 'R2' with other bounds$"):
        system(s2, Y, (X,))
    with pytest.raises(ValueError, match=r"^field X is defined on chart 'S2-spherical' with other bounds$"):
        system(r2, Y, (X,))
    twin = field_from_callable(builtin_manifold("S2-spherical"), lambda x: x, name="Z")
    assert system(s2, twin, (X, twin)).control_dim == 2


def test_domain_enforced_on_points(s2):
    with pytest.raises(ChartDomainError):
        s2.point([0.0, 0.0])
    with pytest.raises(ChartDomainError):
        s2.point([np.pi, 1.0])


def test_domain_enforced_on_jacobian_stencil(s2):
    X = field_from_callable(s2, lambda x: x)
    with pytest.raises(ChartDomainError):
        numeric_jacobian(X, np.array([0.0101, 0.0]), h=1e-3)


def test_builtin_manifolds():
    r2 = builtin_manifold("R2")
    s2 = builtin_manifold("S2-spherical")
    assert r2.dim == 2 and s2.dim == 2
    assert r2.in_domain(np.array([1e6, -1e6]))
    assert s2.in_domain(np.array([0.5, 100.0]))
    assert not s2.in_domain(np.array([0.005, 0.0]))
    with pytest.raises(ValueError):
        builtin_manifold("T2")


# The predicates that defined the built-in domains before they became
# boxes, applied one row at a time as the reference for the row mask.
REFERENCE_DOMAINS = {
    "R2": lambda x: bool(np.all(np.isfinite(x))),
    "S2-spherical": lambda x: bool(np.all(np.isfinite(x)) and 0.01 < x[0] < np.pi - 0.01),
}
coordinate = (
    st.sampled_from([np.nan, np.inf, -np.inf, 0.01, np.pi - 0.01, 0.0, np.pi])
    | st.floats(-1.0, 4.0)
    | st.floats(allow_nan=True, allow_infinity=True)
)
row_shapes = st.lists(st.integers(0, 4), max_size=2).map(lambda shape: (*shape, 2))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCE_DOMAINS)), rows=arrays(float, row_shapes, elements=coordinate))
def test_in_domain_is_the_old_predicate_on_every_row(name, rows):
    mask = builtin_manifold(name).in_domain(rows)
    assert mask.shape == rows.shape[:-1] and mask.dtype == bool
    expected = [REFERENCE_DOMAINS[name](x) for x in rows.reshape(-1, 2)]
    assert mask.reshape(-1).tolist() == expected


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_sample_box_lies_strictly_inside_the_domain(name):
    chart = builtin_manifold(name)
    low, high = chart.sample_box()
    assert chart.in_domain(np.stack([low, high])).all()


def test_chart_domain_is_data():
    assert [f.name for f in dataclasses.fields(ChartManifold)] == ["dim", "name", "bounds", "sample_bounds"]
    r2, s2 = builtin_manifold("R2"), builtin_manifold("S2-spherical")
    # A chart is compared by identity, so its array bounds never make == raise.
    assert r2 == r2 and r2 != s2 and r2 != builtin_manifold("R2") and hash(r2) != hash(s2)


def test_default_chart_domain_is_every_finite_point():
    r3 = ChartManifold(dim=3, name="R3")
    assert r3.in_domain(np.array([1e300, -1e300, 0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ChartDomainError, match="outside the domain of chart 'R3'"):
            r3.check([0.0, bad, 1.0])


def test_field_output_length_checked(r2):
    bad = VectorField(manifold=r2, func=lambda x: np.array([1.0]), name="bad")
    with pytest.raises(ValueError):
        bad.at(np.array([0.0, 0.0]))


def test_sampling_respects_domain(s2, rng):
    for v in sample_tangent_points(s2, 50, rng):
        assert s2.in_domain(v.base.coords)


@pytest.mark.parametrize(
    "box, message",
    [
        (
            dict(bounds=(1.0, 0.0)),
            r"^bounds of chart 'c' are not an open box: .* got \[1\.0, 1\.0\] and \[0\.0, 0\.0\]$",
        ),
        (dict(bounds=(0.5, 0.5)), r"bounds of chart 'c' are not an open box"),
        (dict(bounds=(np.nan, 1.0)), r"bounds of chart 'c' are not an open box: .* got \[nan, nan\]"),
        (dict(bounds=([0.0, np.nan], [1.0, 1.0])), r"bounds of chart 'c' are not an open box"),
        (dict(bounds=([0, 0, 0], [1, 1, 1])), r"^bounds of chart 'c' must be a \(low, high\) pair of .* length-2 "),
        (dict(bounds=(0.0, 1.0, 2.0)), r"^bounds of chart 'c' must be a \(low, high\) pair"),
        (
            dict(bounds=(0, 1), sample_bounds=([5, 5], [6, 6])),
            r"^sample box \[5\.0, 5\.0\] to \[6\.0, 6\.0\] of chart 'c' does not lie inside its bounds$",
        ),
        (dict(bounds=(0, 1), sample_bounds=(0.0, 0.5)), r"^sample box .* of chart 'c' does not lie inside its bounds$"),
        (dict(sample_bounds=([0.0], [1.0, 1.0, 1.0])), r"^sample_bounds of chart 'c' must be a \(low, high\) pair"),
    ],
    ids=[
        "empty",
        "equal",
        "nan",
        "nan-in-one-coordinate",
        "wrong-length",
        "three-sides",
        "sample-box-outside",
        "sample-box-on-the-boundary",
        "sample-box-wrong-length",
    ],
)
def test_a_chart_rejects_an_empty_or_nan_box_and_a_sample_box_outside_it(box, message):
    with pytest.raises(ValueError, match=message):
        ChartManifold(dim=2, name="c", **box)


def test_the_default_sample_box_must_lie_inside_the_bounds():
    chart = ChartManifold(dim=2, name="c", bounds=(0.0, 1.0))
    assert chart.in_domain(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"^sample box \[-1\.0, -1\.0\] to \[1\.0, 1\.0\] of chart 'c' does not lie"):
        chart.sample_box()
    low, high = ChartManifold(dim=3, name="c3", bounds=(-1.5, np.inf)).sample_box()
    assert np.array_equal(low, -np.ones(3)) and np.array_equal(high, np.ones(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "expr, point, slope",
    [("pow(x1, 0.5)", [-1.0, 0.0], 0.25), ("1/x1", [0.0, 0.0], -0.0625)],
    ids=["pow-of-a-negative", "division-by-zero"],
)
def test_a_jacobian_that_is_not_finite_is_a_numerical_error(r2, expr, point, slope):
    X = field_from_expressions(r2, [expr, "1"], "X")
    with pytest.raises(NumericalError, match=rf"^Jacobian of field 'X' is not finite at x = {re.escape(str(point))}$"):
        X.jacobian_at(point)
    assert np.array_equal(X.jacobian_at([4.0, 0.0]), [[slope, 0.0], [0.0, 0.0]])
