"""The base-then-fiber simulators against RK4 of the whole tangent-bundle state.

``bundle_rk4`` is the reference: one ``rk4_segments`` pass over the
2n-dimensional bundle vector field built from the lifts, Y^c + sum_i u_i
Xi^v for a lifted system and X0^v + sum_i u_i Xi^v for an affine vertical
one, and (0, f(x, y, u)) for a general vertical system.  The simulators
integrate the base and the fiber in separate passes, and must give the
same times, bases and fibers bit for bit (including the sign of zero), and
the same error for the same failure.
"""

import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tanlift import (
    ControlSignal,
    DomainExitError,
    GeneralVerticalSystem,
    IntegratorConfig,
    LiftedSystem,
    NumericalError,
    VerticalAffineSystem,
    builtin_manifold,
    endpoint_closed_form,
    fiber_dynamics_from_expressions,
    field_from_callable,
    field_from_expressions,
    simulate_lifted_ode,
    simulate_vertical_ode,
)
from tanlift.cli import main
from tanlift.controls import segment_boundaries
from tanlift.flows import DEFAULT_CONFIG, check_trajectory, rk4_segments
from tanlift.lifts import complete_lift, vertical_lift


def bundle_velocity(sys):
    """The bundle velocity (z, u) -> dz/dt of a system, from the lifts."""
    n = sys.manifold.dim
    if isinstance(sys, GeneralVerticalSystem):
        return lambda z, u: np.concatenate([np.zeros(n), np.asarray(sys.dynamics(z[:n], z[n:], u), dtype=float)])
    drift = complete_lift(sys.drift) if isinstance(sys, LiftedSystem) else vertical_lift(sys.drift)
    controls = [vertical_lift(X) for X in sys.controls]

    def velocity(z, u):
        v = drift.at(z)
        if u is not None:
            # Into the fiber block only: adding a whole vertical lift would
            # turn a -0.0 base velocity into +0.0.
            for ui, X in zip(u, controls):
                v[n:] += ui * X.at(z)[n:]
        return v

    return velocity


def bundle_rk4(sys, v0, u, cfg=DEFAULT_CONFIG, horizon=None):
    """(times, bases, fibers) of RK4 on the bundle state (x, y), one input per segment."""
    boundaries = segment_boundaries(u, horizon, sys.control_dim)
    if not isinstance(sys, GeneralVerticalSystem):
        for X in (sys.drift, *sys.controls):
            X.at(v0.base)
    velocity = bundle_velocity(sys)

    def rhs_for(k):
        u_seg = u.values[k] if u is not None else None
        return lambda t, z: velocity(z, u_seg)

    n = sys.manifold.dim
    times, rows = rk4_segments(rhs_for, v0.as_vector(), boundaries, cfg.plan(boundaries))
    check_trajectory(sys.manifold, times, rows[:, :n], rows[:, n:])
    return times, rows[:, :n], rows[:, n:]


def outcome(run):
    """The arrays a simulation returns, or the type and message of what it raises."""
    try:
        result = run()
    except (NumericalError, DomainExitError) as err:
        return type(err), str(err), getattr(err, "time", None)
    if not isinstance(result, tuple):
        result = (result.times, result.bases, result.fibers)
    return result


def assert_same(got, want):
    assert [type(a) for a in got] == [type(b) for b in want], (got, want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            # array_equal takes -0.0 == +0.0; the sign bits must agree too.
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), (a, b)
        else:
            assert a == b


# Components of drift and control fields.  Trig and exp components compile
# to one vectorized function; a power makes a field go row by row, as does
# a hand-built field.
TRIG = ["0", "1", "sin(x2)", "-sin(x2)", "cos(x1)", "0.5*sin(x1) - 1.25*cos(x2)", "-sin(x1)*sin(x2)", "exp(sin(x2))"]
POWER = ["pow(x2, 2)", "pow(x1, 3) - x2", "0.3*pow(x2, 2)*cos(x1)", "1/(x1 + 4)"]
ZEROS = [-0.0, 0.0]


@functools.cache
def compiled(chart, exprs, name):
    return field_from_expressions(builtin_manifold(chart), list(exprs), name)


@functools.cache
def damping(chart, channels):
    exprs = [f"-(0.5 + 0.3*sin(x{i}))*y{i}" + (f" + u{i}" if i <= channels else "") for i in (1, 2)]
    return fiber_dynamics_from_expressions(builtin_manifold(chart), exprs, channels)


def hand(x):
    return np.array([np.sin(x[1]) - 0.4 * x[0] * x[1], -np.sin(x[0]) * np.cos(x[1])])


def hand_jac(x):
    # Built transposed: the layout of a Jacobian must not change a bit.
    rows = [[-0.4 * x[1], -np.cos(x[0]) * np.cos(x[1])], [np.cos(x[1]) - 0.4 * x[0], np.sin(x[0]) * np.sin(x[1])]]
    return np.array(rows).T


@functools.cache
def hand_built(chart, name, jac):
    """A ``field_from_callable`` field, with an analytic Jacobian or central differences."""
    return field_from_callable(builtin_manifold(chart), hand, hand_jac if jac else None, name)


@st.composite
def fields(draw, chart, name):
    kind = draw(st.sampled_from(["trig", "power", "hand", "hand with jac"]))
    if kind.startswith("hand"):
        return hand_built(chart, name, kind == "hand with jac")
    pool = TRIG if kind == "trig" else TRIG + POWER
    return compiled(chart, tuple(draw(st.sampled_from(pool)) for _ in range(2)), name)


@st.composite
def cases(draw):
    chart = draw(st.sampled_from(["R2", "S2-spherical"]))
    manifold = builtin_manifold(chart)
    first = [0.8, 1.9] if chart == "S2-spherical" else ZEROS + [0.7, -1.1]
    base = [draw(st.sampled_from(first)), draw(st.sampled_from(ZEROS + [0.4, -2.0]))]
    fiber = [draw(st.sampled_from(ZEROS + [0.3, -1.5])) for _ in range(2)]
    drift = draw(fields(chart, "Y"))
    controls = tuple(draw(fields(chart, f"X{i + 1}")) for i in range(draw(st.integers(1, 2))))
    horizon = draw(st.sampled_from([0.05, 0.13, 0.3]))
    segments = draw(st.integers(0, 4))
    u = None
    if segments:
        values = draw(st.lists(st.sampled_from(ZEROS + [1.0, -0.7, 2.5]), min_size=segments * len(controls),
                               max_size=segments * len(controls)))
        u = ControlSignal(horizon=horizon, values=np.reshape(values, (segments, len(controls))))
    v0 = manifold.tangent_point(base, fiber)
    return manifold, drift, controls, v0, u, horizon


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(cases())
def test_simulators_are_bundle_rk4_bit_for_bit(case):
    manifold, drift, controls, v0, u, horizon = case
    cfg = IntegratorConfig(step=0.01)
    general = GeneralVerticalSystem(manifold, damping(manifold.name, len(controls)), len(controls))
    runs = [
        (simulate_lifted_ode, LiftedSystem(manifold, drift, controls)),
        (simulate_vertical_ode, VerticalAffineSystem(manifold, drift, controls)),
        (simulate_vertical_ode, general),
    ]
    for simulate, sys in runs:
        got = outcome(lambda: simulate(sys, v0, u, cfg, horizon=horizon))
        assert_same(got, outcome(lambda: bundle_rk4(sys, v0, u, cfg, horizon)))


@pytest.mark.parametrize("chart", ["R2", "S2-spherical"])
def test_a_still_base_has_rows_x0_then_x0_plus_zero(chart):
    # RK4 adds a zero base velocity, so x2 = -0.0 becomes +0.0 after the
    # first row and stage.  -sin(x2) is +0.0 at the first stage and -0.0 at
    # the others, and the first step's fiber keeps the sign of their sum.
    manifold = builtin_manifold(chart)
    X = compiled(chart, ("-sin(x2)", "-sin(x2)"), "X1")
    v0 = manifold.tangent_point([0.8, -0.0], [-0.0, -0.0])
    u = ControlSignal.constant([1.0], horizon=0.03)
    cfg = IntegratorConfig(step=0.01)
    general = GeneralVerticalSystem(manifold, lambda x, y, u: -np.sin(x) * u[0], 1)
    for sys in (VerticalAffineSystem(manifold, X, (X,)), general):
        traj = simulate_vertical_ode(sys, v0, u, cfg)
        assert np.signbit(traj.bases[0, 1]) and not np.signbit(traj.bases[1:]).any()
        assert np.signbit(traj.fibers[0, 1]) and not np.signbit(traj.fibers[1:, 1]).any()
        assert_same((traj.times, traj.bases, traj.fibers), bundle_rk4(sys, v0, u, cfg))


def _quiet(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(run)


def test_control_singular_on_the_lifted_trajectory_fails_at_the_same_time():
    # Y moves x1 from 0 towards 1 in 0.5; X1 is infinite at x1 = 0.25.
    r2 = builtin_manifold("R2")
    sys = LiftedSystem(r2, compiled("R2", ("2", "0"), "Y"), (compiled("R2", ("1/(x1 - 0.25)", "0"), "X1"),))
    v0 = r2.tangent_point([0.0, 0.0], [0.1, 0.1])
    u = ControlSignal.constant([1.0], horizon=0.5)
    cfg = IntegratorConfig(step=1 / 64)
    got = _quiet(lambda: simulate_lifted_ode(sys, v0, u, cfg))
    assert got[0] is NumericalError and got[1].startswith("non-finite state at t = ")
    assert_same(got, _quiet(lambda: bundle_rk4(sys, v0, u, cfg)))


def test_lifted_base_leaving_the_sphere_chart_fails_at_the_same_time():
    s2 = builtin_manifold("S2-spherical")
    sys = LiftedSystem(s2, compiled("S2-spherical", ("1", "0"), "Y"), (compiled("S2-spherical", ("0", "1"), "X1"),))
    v0 = s2.tangent_point([0.8, 0.3], [0.1, 0.1])
    u = ControlSignal.constant([0.5], horizon=5.0)
    got = _quiet(lambda: simulate_lifted_ode(sys, v0, u))
    assert got[0] is DomainExitError and 2.0 < got[2] < 2.5
    assert_same(got, _quiet(lambda: bundle_rk4(sys, v0, u)))


@pytest.mark.parametrize("singular", ["Y", "X1"])
@pytest.mark.parametrize("system", [LiftedSystem, VerticalAffineSystem])
def test_field_not_finite_at_the_initial_base_is_named(system, singular):
    s2 = builtin_manifold("S2-spherical")
    exprs = {"Y": ("cos(x2)", "sin(x1)"), "X1": ("1", "0")}
    exprs[singular] = ("1/(x1 - 0.8)", "0")
    sys = system(s2, compiled("S2-spherical", exprs["Y"], "Y"), (compiled("S2-spherical", exprs["X1"], "X1"),))
    v0 = s2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal.constant([0.4], horizon=0.05)
    simulate = simulate_lifted_ode if system is LiftedSystem else simulate_vertical_ode
    got = _quiet(lambda: simulate(sys, v0, u))
    assert got[:2] == (NumericalError, f"field {singular!r} is not finite at x = [0.8, 0.3]")
    assert_same(got, _quiet(lambda: bundle_rk4(sys, v0, u)))


def test_cli_names_the_time_of_a_singular_control(capsys, tmp_path):
    # The drift carries x1 from 0 past 0.25, where X1 is infinite.
    doc = {
        "schema": "tanlift-scenario-v1",
        "manifold": "R2",
        "fields": {"Y": ["2", "0"], "X1": ["1/(x1 - 0.25)", "0"]},
        "lifted_system": {
            "drift": "Y",
            "controls": ["X1"],
            "initial": {"base": [0.0, 0.0], "fiber": [0.1, 0.1]},
            "horizon": 0.5,
            "control_values": [[1.0]],
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    r2 = builtin_manifold("R2")
    sys = LiftedSystem(r2, compiled("R2", ("2", "0"), "Y"), (compiled("R2", ("1/(x1 - 0.25)", "0"), "X1"),))
    v0 = r2.tangent_point([0.0, 0.0], [0.1, 0.1])
    cfg = IntegratorConfig(step=1 / 64)
    reference = _quiet(lambda: bundle_rk4(sys, v0, ControlSignal.constant([1.0], horizon=0.5), cfg))
    assert reference[:2] == (NumericalError, "non-finite state at t = 0.125")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--scenario", str(path), "--step", "0.015625"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"numerical failure: {reference[1]}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


CALLERS = {
    "simulate_lifted_ode": (simulate_lifted_ode, LiftedSystem),
    "simulate_vertical_ode": (simulate_vertical_ode, VerticalAffineSystem),
    "endpoint_closed_form": (endpoint_closed_form, LiftedSystem),
}


def _shear_run(caller):
    """A caller of ``segment_boundaries`` bound to a shear system on R2 and its initial vector."""
    run, system = CALLERS[caller]
    r2 = builtin_manifold("R2")
    sys = system(r2, compiled("R2", ("1", "0"), "Y"), (compiled("R2", ("0", "1"), "X1"),))
    v0 = r2.tangent_point([0.0, 0.0], [0.0, 0.0])
    return lambda u, horizon: run(sys, v0, u, horizon=horizon)


@pytest.mark.parametrize("T", [-1.0, 0.0])
@pytest.mark.parametrize("caller", list(CALLERS))
def test_horizon_without_a_control_must_be_positive(caller, T):
    with pytest.raises(ValueError, match=rf"^control horizon must be positive and finite, got {T}$"):
        _shear_run(caller)(None, T)


@pytest.mark.parametrize("T", [5.0, -3.0])
@pytest.mark.parametrize("caller", list(CALLERS))
def test_horizon_given_with_a_control_must_be_its_horizon(caller, T):
    run = _shear_run(caller)
    u = ControlSignal.constant([0.5], horizon=1.0)
    with pytest.raises(ValueError, match=rf"^horizon {T} differs from the control horizon 1\.0$"):
        run(u, T)
    # An equal horizon is accepted; a trajectory is compared by its final vector.
    same, plain = (getattr(r, "final", r).as_vector() for r in (run(u, 1.0), run(u, None)))
    assert np.array_equal(same, plain)
