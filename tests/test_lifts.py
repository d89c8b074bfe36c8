import numpy as np
import pytest

from tanlift import (
    ChartDomainError,
    FunctionLift,
    base_lie_bracket,
    complete_lift,
    constant_field,
    field_from_callable,
    field_from_expressions,
    function_lift_eval,
    is_vertical,
    lie_bracket,
    vertical_lift,
)
from tanlift.battery import run_identity_battery
from tanlift.lifts import LiftedVectorField, directional_derivative
from tanlift.manifold import ChartManifold, sample_tangent_points


def test_vertical_lift_of_rotation_generator(s2):
    # d/dphi lifts to d/dy_phi: constant coefficients (0, 0, 0, 1).
    X = constant_field(s2, [0.0, 1.0], "X")
    Xv = vertical_lift(X)
    v = s2.tangent_point([0.7, 0.1], [0.3, -0.4])
    assert np.array_equal(Xv.at(v), [0.0, 0.0, 0.0, 1.0])
    assert Xv.kind == "vertical-lift"


def test_vertical_lift_of_zero_field(s2):
    Xv = vertical_lift(constant_field(s2, [0.0, 0.0]))
    v = s2.tangent_point([0.7, 0.1], [1.0, 2.0])
    assert np.array_equal(Xv.at(v), np.zeros(4))


def test_vertical_lift_of_drift_field(s2, s2_fields):
    X0, _, _ = s2_fields
    lifted = vertical_lift(X0)
    v = s2.tangent_point([0.8, 0.3], [5.0, 6.0])
    expected = np.concatenate([[0.0, 0.0], [np.cos(0.3), np.sin(0.8)]])
    assert np.allclose(lifted.at(v), expected, atol=1e-15)


def test_complete_lift_of_constant_field(s2):
    Yc = complete_lift(constant_field(s2, [0.0, 1.0], "Y"))
    v = s2.tangent_point([0.7, 0.1], [0.3, -0.4])
    assert np.allclose(Yc.at(v), [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_complete_lift_of_shear(r2, shear_fields):
    Y, _ = shear_fields
    Yc = complete_lift(Y)
    v = r2.tangent_point([2.0, 5.0], [0.7, -0.2])
    # coefficients (0, x, 0, v_x)
    assert np.allclose(Yc.at(v), [0.0, 2.0, 0.0, 0.7], atol=1e-15)


def test_complete_lift_of_zero_field(r2):
    Zc = complete_lift(constant_field(r2, [0.0, 0.0]))
    v = r2.tangent_point([1.0, 1.0], [2.0, 3.0])
    assert np.allclose(Zc.at(v), np.zeros(4), atol=1e-15)


@pytest.mark.parametrize("lift", [vertical_lift, complete_lift])
def test_lift_checks_its_base_point_once(monkeypatch, s2, s2_fields, lift):
    X0, _, _ = s2_fields
    hand_built = field_from_callable(s2, X0.func, X0.jac, "H")
    calls = []
    check = ChartManifold.check

    def counting_check(self, coords):
        calls.append(np.array(coords, dtype=float))
        return check(self, coords)

    monkeypatch.setattr(ChartManifold, "check", counting_check)
    w = np.array([0.8, 0.3, 0.5, -0.2])
    for X in (X0, hand_built):
        calls.clear()
        lift(X).at(w)
        assert len(calls) == 1
        assert np.array_equal(calls[0], w[:2])
    with pytest.raises(ChartDomainError):
        lift(X0).at(np.array([0.0, 0.3, 0.5, -0.2]))


def test_base_bracket_shear(r2, shear_fields):
    Y, X1 = shear_fields
    B = base_lie_bracket(Y, X1)
    for x in ([0.0, 0.0], [3.0, -1.0]):
        assert np.allclose(B.at(np.asarray(x)), [0.0, -1.0], atol=1e-14)


def test_base_bracket_antisymmetry_and_self(r2, shear_fields):
    Y, X1 = shear_fields
    x = np.array([1.5, -0.5])
    assert np.allclose(base_lie_bracket(Y, Y).at(x), 0.0, atol=1e-14)
    assert np.allclose(
        base_lie_bracket(Y, X1).at(x) + base_lie_bracket(X1, Y).at(x), 0.0, atol=1e-14
    )


def test_base_bracket_commuting_frame(s2, s2_fields):
    _, X1, X2 = s2_fields
    assert np.allclose(base_lie_bracket(X2, X1).at(np.array([0.8, 0.3])), 0.0, atol=1e-14)


def test_base_bracket_numeric_fallback(r2):
    Y = field_from_callable(r2, lambda x: np.array([0.0, x[0]]), name="Y")
    X = field_from_callable(r2, lambda x: np.array([1.0, 0.0]), name="X")
    B = base_lie_bracket(Y, X)
    assert np.allclose(B.at(np.array([2.0, 1.0])), [0.0, -1.0], atol=1e-9)


def test_lie_bracket_vertical_pairs_vanish(s2, s2_fields, rng):
    X0, X1, _ = s2_fields
    v = s2.tangent_point([0.9, -0.2], [0.4, 0.1])
    numeric = lie_bracket(vertical_lift(X0), vertical_lift(X1), v, method="numeric")
    assert np.max(np.abs(numeric)) <= 1e-6
    closed = lie_bracket(vertical_lift(X0), vertical_lift(X1), v)
    assert np.array_equal(closed, np.zeros(4))


def test_lie_bracket_complete_vertical(s2, s2_fields):
    X0, X1, _ = s2_fields
    v = s2.tangent_point([0.9, -0.2], [0.4, 0.1])
    numeric = lie_bracket(complete_lift(X0), vertical_lift(X1), v, method="numeric")
    expected = vertical_lift(base_lie_bracket(X0, X1)).at(v)
    assert np.max(np.abs(numeric - expected)) <= 1e-6
    assert np.allclose(lie_bracket(complete_lift(X0), vertical_lift(X1), v), expected)


@pytest.mark.parametrize("kinds", [("vertical", "complete"), ("complete", "complete")])
def test_lie_bracket_closed_forms_agree_with_the_numeric_bracket(s2, kinds):
    # The exact (vertical, complete) and (complete, complete) branches, on two
    # S2 fields with no constant coefficient.
    Y = field_from_expressions(s2, ["cos(x2)*sin(x1)", "x2*sin(x1) + cos(x1)"], "Y")
    X = field_from_expressions(s2, ["exp(x2)*cos(x1)", "sin(x2)"], "X")
    lifts = {"vertical": vertical_lift, "complete": complete_lift}
    A, B = lifts[kinds[0]](X), lifts[kinds[1]](Y)
    v = s2.tangent_point([0.8, 0.3], [0.4, -0.2])
    exact = lie_bracket(A, B, v)
    numeric = lie_bracket(A, B, v, method="numeric")
    assert np.max(np.abs(exact - numeric)) <= 1e-9
    base = base_lie_bracket(X, Y).at(v.base)
    if kinds == ("vertical", "complete"):
        assert np.array_equal(exact[:2], [0.0, 0.0]) and np.allclose(exact[2:], base, atol=1e-14)
    else:
        assert np.allclose(exact[:2], base, atol=1e-14)


def test_lie_bracket_antisymmetric_in_self(s2, s2_fields):
    X0, _, _ = s2_fields
    v = s2.tangent_point([0.9, -0.2], [0.4, 0.1])
    Xc = complete_lift(X0)
    assert np.max(np.abs(lie_bracket(Xc, Xc, v, method="numeric"))) <= 1e-9


def test_is_vertical(s2, s2_fields, rng):
    X0, _, X2 = s2_fields
    samples = sample_tangent_points(s2, 10, rng)
    assert is_vertical(vertical_lift(X0), samples)
    assert not is_vertical(complete_lift(X2), samples, tol=1e-9)

    def damping(w):
        return np.concatenate([np.zeros(2), -0.5 * w[2:]])

    A = LiftedVectorField(manifold=s2, func=damping, name="A")
    assert is_vertical(A, samples)


def test_is_vertical_needs_samples(s2, s2_fields):
    with pytest.raises(ValueError):
        is_vertical(vertical_lift(s2_fields[0]), [])


def test_function_lift_constant_complete_vanishes(r2):
    F = FunctionLift(manifold=r2, base_fn=lambda x: 4.2, kind="complete")
    v = r2.tangent_point([0.3, 0.4], [10.0, -3.0])
    assert abs(function_lift_eval(F, v)) < 1e-10


def test_function_lift_linear_coordinate(r2):
    F = FunctionLift(manifold=r2, base_fn=lambda x: x[0], kind="complete")
    v = r2.tangent_point([5.0, 7.0], [2.5, 9.0])
    assert abs(function_lift_eval(F, v) - 2.5) < 1e-10


def test_function_lift_vertical_is_composition(r2):
    F = FunctionLift(manifold=r2, base_fn=lambda x: x[0] * x[1], kind="vertical")
    v = r2.tangent_point([2.0, 3.0], [9.0, 9.0])
    assert function_lift_eval(F, v) == 6.0


def test_derivation_rules_via_directional_derivatives(r2, shear_fields):
    Y, _ = shear_fields
    f = lambda x: x[0] * x[1] ** 2  # noqa: E731
    grad = lambda x: np.array([x[1] ** 2, 2 * x[0] * x[1]])  # noqa: E731
    fv = FunctionLift(manifold=r2, base_fn=f, kind="vertical", gradient=grad)
    fc = FunctionLift(manifold=r2, base_fn=f, kind="complete", gradient=grad)
    v = r2.tangent_point([1.2, -0.7], [0.5, 1.5])

    # Vertical lifts annihilate vertical function lifts.
    assert abs(directional_derivative(fv, vertical_lift(Y), v)) <= 1e-9

    # (Y f)(x) = x1 * df/dx2 = 2 x1^2 x2 for the shear drift.
    g = lambda x: 2 * x[0] ** 2 * x[1]  # noqa: E731
    g_grad = lambda x: np.array([4 * x[0] * x[1], 2 * x[0] ** 2])  # noqa: E731
    Yf_v = FunctionLift(manifold=r2, base_fn=g, kind="vertical", gradient=g_grad)
    Yf_c = FunctionLift(manifold=r2, base_fn=g, kind="complete", gradient=g_grad)
    Yc = complete_lift(Y)
    assert abs(directional_derivative(fv, Yc, v) - function_lift_eval(Yf_v, v)) <= 1e-5
    assert abs(directional_derivative(fc, Yc, v) - function_lift_eval(Yf_c, v)) <= 1e-5


def test_identity_battery_all_green(s2, s2_fields):
    records = run_identity_battery(s2, list(s2_fields), samples=25, seed=7)
    assert all(r["pass"] for r in records)


def test_expression_fields_give_exact_bracket_chain(r2):
    # Nested brackets stay exact through the symbolic path.
    Y = field_from_expressions(r2, ["0", "x1*x1"], "Y")
    X = field_from_expressions(r2, ["1", "0"], "X")
    B1 = base_lie_bracket(Y, X)
    B2 = base_lie_bracket(Y, B1)
    x = np.array([1.5, 0.0])
    assert np.allclose(B1.at(x), [0.0, -2 * 1.5], atol=1e-14)
    assert np.allclose(B2.at(x), [0.0, 0.0], atol=1e-14)
