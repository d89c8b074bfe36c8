"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 11 states its bracket in the convention
[Y, X] = J_Y X - J_X Y, the one ``transported_derivatives`` uses; this is
minus ``base_lie_bracket(Y, X)``, whose convention is
[X, Y] = J_Y X - J_X Y.  The test asserts both ties.
"""

import json
import math

import numpy as np
import pytest

from tanlift import (
    ControlSignal,
    GeneralVerticalSystem,
    IntegratorConfig,
    LiftedSystem,
    VerticalAffineSystem,
    ad_criterion,
    base_lie_bracket,
    build_transport_grid,
    complete_lift,
    constant_field,
    dprojection,
    endpoint_closed_form,
    fiber_controllability_report,
    fiber_controllable_vertical,
    field_from_expressions,
    flow_differential,
    lie_bracket,
    simulate_lifted_ode,
    simulate_vertical_ode,
    solve_vertical_closed_form,
    steer_vertical,
    transported_derivatives,
    transported_field,
    vertical_lift,
)
from tanlift.battery import run_identity_battery
from tanlift.manifold import builtin_manifold, sample_tangent_points

S2 = builtin_manifold("S2-spherical")
R2 = builtin_manifold("R2")

S2_X0 = field_from_expressions(S2, ["cos(x2)", "sin(x1)"], "X0")
S2_X1 = field_from_expressions(S2, ["1", "0"], "X1")
S2_X2 = field_from_expressions(S2, ["0", "1"], "X2")
S2_Y = field_from_expressions(S2, ["0", "1"], "Y")

SHEAR_Y = field_from_expressions(R2, ["0", "x1"], "Y")
SHEAR_X1 = field_from_expressions(R2, ["1", "0"], "X1")
SHEAR = LiftedSystem(R2, SHEAR_Y, (SHEAR_X1,))
COMMUTING = LiftedSystem(S2, S2_Y, (S2_X1, S2_X2))


def _report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {description}{suffix}")
    return passed


def test_criterion_01_lift_identity_suite():
    fields = [S2_X0, S2_X1, S2_X2]
    rng = np.random.default_rng(42)
    points = sample_tangent_points(S2, 50, rng)
    res_vv = res_cv = res_cc = res_proj = 0.0
    for X in fields:
        for Y in fields:
            Xv, Yv = vertical_lift(X), vertical_lift(Y)
            Xc, Yc = complete_lift(X), complete_lift(Y)
            XY = base_lie_bracket(X, Y)
            XYv, XYc = vertical_lift(XY), complete_lift(XY)
            for v in points:
                res_vv = max(res_vv, np.max(np.abs(lie_bracket(Xv, Yv, v, method="numeric"))))
                res_cv = max(
                    res_cv, np.max(np.abs(lie_bracket(Xc, Yv, v, method="numeric") - XYv.at(v)))
                )
                res_cc = max(
                    res_cc, np.max(np.abs(lie_bracket(Xc, Yc, v, method="numeric") - XYc.at(v)))
                )
                res_proj = max(
                    res_proj, np.max(np.abs(dprojection(v, Xc.at(v)) - X.at(v.base)))
                )
    ok = res_vv <= 1e-6 and res_cv <= 1e-5 and res_cc <= 1e-5 and res_proj <= 1e-9
    _report(
        1,
        "lift identity suite on TS2 at 50 seeded points",
        ok,
        f"vv={res_vv:.2e} cv={res_cv:.2e} cc={res_cc:.2e} proj={res_proj:.2e}",
    )
    assert res_vv <= 1e-6
    assert res_cv <= 1e-5
    assert res_cc <= 1e-5
    assert res_proj <= 1e-9


def test_criterion_02_vertical_closed_form():
    sys = VerticalAffineSystem(S2, S2_X0, (S2_X1, S2_X2))
    v0 = S2.tangent_point([0.8, 0.3], [0.2, -0.1])
    u = ControlSignal.constant([0.7, -0.3], horizon=1.0)
    closed = solve_vertical_closed_form(sys, v0, u, 1.0)
    traj = simulate_vertical_ode(sys, v0, u, IntegratorConfig(step=1e-3))
    diff = np.max(np.abs(closed.fiber - traj.final.fiber))
    base_ok = bool(np.all(traj.bases == traj.bases[0]))
    ok = diff <= 1e-9 and base_ok
    _report(2, "vertical closed form equals RK4 endpoint", ok, f"diff={diff:.2e} base_constant={base_ok}")
    assert diff <= 1e-9
    assert base_ok


def test_criterion_03_vertical_rank_and_steering():
    full = VerticalAffineSystem(S2, S2_X0, (S2_X1, S2_X2))
    reduced = VerticalAffineSystem(S2, S2_X0, (S2_X1,))
    x0 = S2.point([0.8, 0.3])
    rep_full = fiber_controllable_vertical(full, x0)
    rep_reduced = fiber_controllable_vertical(reduced, x0)
    v0 = S2.tangent_point([0.8, 0.3], [0.2, -0.1])
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        target = rng.uniform(-3, 3, size=2)
        signal = steer_vertical(full, v0, target, 1.0)
        reached = solve_vertical_closed_form(full, v0, signal, 1.0)
        worst = max(worst, np.max(np.abs(reached.fiber - target)))
    ok = (
        rep_full.controllable
        and rep_full.basis.rank == 2
        and not rep_reduced.controllable
        and rep_reduced.basis.rank == 1
        and worst <= 1e-10
    )
    _report(
        3,
        "vertical rank test and 20 steering round-trips",
        ok,
        f"rank2={rep_full.basis.rank} rank1={rep_reduced.basis.rank} steer={worst:.2e}",
    )
    assert rep_full.controllable and rep_full.basis.rank == 2
    assert not rep_reduced.controllable and rep_reduced.basis.rank == 1
    assert worst <= 1e-10


def test_criterion_04_damping_example():
    sys = GeneralVerticalSystem(S2, lambda x, y, u: -1.0 * y, control_dim=0)
    v0 = S2.tangent_point([math.pi / 2, 0.0], [1.0, 1.0])
    traj = simulate_vertical_ode(sys, v0, None, IntegratorConfig(step=1e-3), horizon=1.0)
    ratio = traj.final.fiber[0] / traj.fibers[0][0]
    err = abs(ratio - 0.36787944117144233)
    ok = err <= 1e-8
    _report(4, "isotropic damping reaches exp(-1) after unit time", ok, f"err={err:.2e}")
    assert err <= 1e-8


def _shear_oracle(fiber0, T=1.0, steps=4000):
    """Brute-force RK4 on (dx, dy, dvx, dvy) = (0, x, 1, vx)."""
    z = np.array([1.0, 0.0, fiber0[0], fiber0[1]])
    h = T / steps

    def rhs(z):
        x, y, vx, vy = z
        return np.array([0.0, x, 1.0, vx])

    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + h / 2 * k1)
        k3 = rhs(z + h / 2 * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def test_criterion_05_endpoint_formula_shear():
    # Oracle values, frozen: from fiber (0, 0) the endpoint fiber is
    # (1, 0.5); the criterion's quoted value (1, 1.5) is produced by the
    # same oracle from fiber (0, 1), matching the closed-form identity
    # endpoint = (v0x + T, T*v0x + v0y + T^2/2).  Both are asserted.
    u = ControlSignal.constant([1.0], horizon=1.0)
    worst_oracle = 0.0
    worst_pair = 0.0
    for fiber0, frozen in (([0.0, 0.0], [1.0, 0.5]), ([0.0, 1.0], [1.0, 1.5])):
        v0 = R2.tangent_point([1.0, 0.0], fiber0)
        oracle = _shear_oracle(fiber0)[2:]
        assert np.max(np.abs(oracle - frozen)) < 1e-12
        closed = endpoint_closed_form(SHEAR, v0, u)
        ode = simulate_lifted_ode(SHEAR, v0, u).final
        worst_oracle = max(worst_oracle, np.max(np.abs(closed.fiber - frozen)))
        worst_pair = max(worst_pair, np.max(np.abs(closed.fiber - ode.fiber)))
    ok = worst_oracle <= 1e-7 and worst_pair <= 1e-7
    _report(
        5,
        "shear endpoint matches brute-force oracle, closed form vs ODE",
        ok,
        f"vs_oracle={worst_oracle:.2e} closed_vs_ode={worst_pair:.2e}",
    )
    assert worst_oracle <= 1e-7
    assert worst_pair <= 1e-7


def test_criterion_06_transport_example():
    x0 = R2.point([1.0, 0.0])
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        z = transported_field(SHEAR_Y, SHEAR_X1, x0, t)
        worst = max(worst, np.max(np.abs(z - [1.0, -t])))
    ok = worst <= 1e-8
    _report(6, "transported shear direction equals (1, -t)", ok, f"err={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_07_flow_differential():
    x0 = R2.point([0.4, -1.0])
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        J = flow_differential(SHEAR_Y, x0, t)
        worst = max(worst, np.max(np.abs(J - [[1.0, 0.0], [t, 1.0]])))
    ok = worst <= 1e-9
    _report(7, "shear flow differential is the unit shear matrix", ok, f"err={worst:.2e}")
    assert worst <= 1e-9


def test_criterion_08_controllability_verdicts():
    v0_shear = R2.tangent_point([1.0, 0.0], [0.0, 1.0])
    shear_ok = True
    for T in (0.1, 1.0, 5.0):
        rep = fiber_controllability_report(SHEAR, v0_shear, T, N=16)
        shear_ok = shear_ok and rep.verdict_transport
    ad_shear = ad_criterion(SHEAR, v0_shear.base)
    shear_ok = shear_ok and ad_shear.satisfied and ad_shear.depth == 1

    v0_s2 = S2.tangent_point([0.8, 0.3], [0.2, -0.1])
    rep_comm = fiber_controllability_report(COMMUTING, v0_s2, 1.0, N=16)
    ad_comm = ad_criterion(COMMUTING, v0_s2.base)
    comm_ok = rep_comm.verdict_transport and ad_comm.satisfied and ad_comm.depth == 0

    degenerate = LiftedSystem(S2, S2_Y, (S2_Y,))
    rep_deg = fiber_controllability_report(degenerate, v0_s2, 1.0, N=16)
    deg_ok = not rep_deg.verdict_transport and not ad_criterion(degenerate, v0_s2.base).satisfied

    ok = shear_ok and comm_ok and deg_ok
    _report(
        8,
        "controllability verdicts: shear, commuting, degenerate",
        ok,
        f"shear={shear_ok} commuting={comm_ok} degenerate={deg_ok}",
    )
    assert shear_ok and comm_ok and deg_ok


def test_criterion_09_bump_convergence():
    from tanlift import apply_LT

    T = 1.0
    N = 64
    grid = build_transport_grid(SHEAR, R2.point([1.0, 0.0]), T, N)
    reference = grid.columns[N // 2, 0]
    eps_list = [T / 8, T / 16, T / 32]
    errors = []
    for eps in eps_list:
        segments = int(round(T / eps))
        bump = ControlSignal.bump(T, segments, segments // 2, 0, 1)
        errors.append(float(np.linalg.norm(apply_LT(grid, bump) - reference)))
    order = float(np.polyfit(np.log(eps_list), np.log(errors), 1)[0])
    ok = order >= 0.9
    _report(9, "bump controls converge to the transport column", ok, f"order={order:.3f}")
    assert order >= 0.9


def test_criterion_10_chain_rule_identity():
    cases = [(SHEAR, R2.point([1.0, 0.0])), (COMMUTING, S2.point([0.8, 0.3]))]
    T = 1.0
    worst = 0.0
    for sys, x0 in cases:
        grid = build_transport_grid(sys, x0, T, 8)
        for k, t in enumerate(grid.times):
            mid = grid.point(k)
            remaining = flow_differential(sys.drift, mid, T - t)
            for i, X in enumerate(sys.controls):
                worst = max(
                    worst, np.max(np.abs(grid.columns[k, i] - remaining @ X.at(mid)))
                )
    ok = worst <= 1e-7
    _report(10, "transport columns satisfy the flow chain rule", ok, f"err={worst:.2e}")
    assert worst <= 1e-7


def test_criterion_11_ad_identity_sign():
    """d/dt at 0 of the transported direction equals minus the drift bracket.

    The identity holds with the bracket [Y, X] = J_Y X - J_X Y, the
    convention in which ``transported_derivatives`` lists its entries
    ad_Y^k X(x0).  ``base_lie_bracket`` uses the opposite convention,
    [X, Y] = J_Y X - J_X Y, so the drift bracket here equals
    ``-base_lie_bracket(Y, X)(x0)`` and ``transported_derivatives(...)[1]``;
    both ties are asserted, so a sign change in either function fails.

    Cases: the plane shear, whose transported direction is (1, -t)
    (criterion 6) with derivative (0, -1); and on S2 the drift (1, 0)
    with the non-constant control (cos x2, sin x1) at (0.8, 0.3), whose
    transported direction is (cos x2, sin(x1 + t)) with derivative
    (0, cos 0.8).  On the shear J_X = 0, so only the S2 case sees the
    J_X Y term.
    """
    cases = [
        ("shear", SHEAR_Y, SHEAR_X1, R2.point([1.0, 0.0]), np.array([0.0, -1.0])),
        ("S2", S2_X1, S2_X0, S2.point([0.8, 0.3]), np.array([0.0, math.cos(0.8)])),
    ]
    dt = 1e-4
    worst = 0.0
    for name, Y, X, x0, hand in cases:
        # The criterion's drift bracket [Y, X] = J_Y X - J_X Y, from the Jacobians.
        bracket = Y.jacobian_at(x0) @ X.at(x0) - X.jacobian_at(x0) @ Y.at(x0)
        assert np.max(np.abs(bracket + base_lie_bracket(Y, X).at(x0))) <= 1e-12, name
        assert np.max(np.abs(bracket - transported_derivatives(Y, X, x0, 1)[1])) <= 1e-12, name
        fd = (transported_field(Y, X, x0, dt) - transported_field(Y, X, x0, -dt)) / (2 * dt)
        target = -bracket
        assert np.max(np.abs(target - hand)) <= 1e-12, name
        worst = max(worst, float(np.max(np.abs(fd - target))))
    ok = worst <= 1e-4
    _report(
        11,
        "transport derivative at 0 equals minus the drift bracket",
        ok,
        f"err={worst:.2e}; bracket [Y, X] = J_Y X - J_X Y, shear and S2",
    )
    assert ok, f"transport derivative differs from -[Y, X](x0) by {worst:.3e}"


def test_criterion_12_cli_determinism(tmp_path, capsys):
    from tanlift.cli import main as cli_main

    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "tanlift-scenario-v1",
                "name": "determinism",
                "manifold": "S2-spherical",
                "fields": {
                    "X0": ["cos(x2)", "sin(x1)"],
                    "X1": ["1", "0"],
                    "X2": ["0", "1"],
                },
                "vertical_system": {
                    "drift": "X0",
                    "controls": ["X1", "X2"],
                    "initial": {"base": [0.8, 0.3], "fiber": [0.2, -0.1]},
                    "horizon": 1.0,
                    "control_values": [[0.7, -0.3]],
                },
            }
        )
    )
    outputs = []
    for command in ("lift-check", "simulate", "controllability"):
        pair = []
        for _ in range(2):
            code = cli_main([command, "--scenario", str(scenario), "--seed", "42"])
            assert code == 0
            pair.append(capsys.readouterr().out.encode())
        outputs.append(pair)
    ok = all(first == second for first, second in outputs)
    with capsys.disabled():
        _report(12, "repeated CLI runs emit byte-identical payloads", ok)
    assert ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
