"""Command-line front end.

Every command loads one scenario, runs the requested analysis, prints a
deterministic JSON report to stdout, and (with --out) writes the report
plus CSV trajectories to disk.  Timing goes to stderr and to the on-disk
report only, never into the printed payload.

Exit codes: 0 success, 1 negative controllability verdict, 2 input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .battery import run_identity_battery
from .controls import ControlSignal
from .errors import ExpressionError, ScenarioError, TanliftError
from .flows import DEFAULT_CONFIG, IntegratorConfig
from .lifted import (
    _DEFAULT_GRID,
    ad_criterion,
    apply_LT,
    build_transport_grid,
    endpoint_closed_form,
    fiber_controllability_report,
    simulate_lifted_ode,
)
from .lifts import base_lie_bracket
from .reportio import dumps, trajectory_rows, write_csv
from .scenario import Scenario, load_scenario
from .subspace import DEFAULT_RANK_TOL, SubspaceBasis
from .vertical import (
    fiber_controllable_vertical,
    reachable_vertical,
    simulate_vertical_ode,
    solve_vertical_closed_form,
)

EXIT_OK = 0
EXIT_VERDICT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _tangent_payload(point) -> dict:
    return {"base": point.base.coords.tolist(), "fiber": point.fiber.tolist()}


def _basis_payload(basis: SubspaceBasis) -> dict:
    return {
        "vectors": basis.vectors.tolist(),
        "singular_values": basis.singular_values.tolist(),
        "rank": basis.rank,
        "tol": basis.tol,
    }


class _Run:
    """Shared state of one CLI invocation: scenario, config, outputs."""

    def __init__(self, args):
        self.args = args
        self.scenario: Scenario = load_scenario(args.scenario)
        self.cfg = IntegratorConfig(step=args.step, max_steps=args.max_steps)
        self.out_dir = Path(args.out) if args.out else None
        if self.out_dir is not None:
            try:
                self.out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise ScenarioError(f"cannot create the --out directory {self.out_dir}: {err}") from err
        self.csv_files = {}

    @property
    def grid(self) -> int:
        if self.args.grid is not None:
            return self.args.grid
        if self.scenario.lifted is not None and self.scenario.lifted.grid is not None:
            return self.scenario.lifted.grid
        return _DEFAULT_GRID

    def lifted_report(self):
        block = self.scenario.lifted
        return fiber_controllability_report(
            block.system, block.initial, block.horizon, self.grid, self.args.rank_tol, self.cfg
        )

    def config_payload(self, command: str) -> dict:
        return {
            "scenario_path": str(self.args.scenario),
            "seed": self.args.seed,
            "step": self.args.step,
            "max_steps": self.args.max_steps,
            "grid": self.grid,
            "rank_tol": self.args.rank_tol,
            "out": str(self.out_dir) if self.out_dir else None,
            "command": command,
        }

    def write_trajectory(self, label: str, traj) -> None:
        if self.out_dir is None:
            return
        n = traj.manifold.dim
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
        path = self.out_dir / f"trajectory_{label}.csv"
        with path.open("w") as stream:
            write_csv(stream, header, trajectory_rows(traj.times, traj.bases, traj.fibers))
        self.csv_files[label] = str(path)

    def emit(self, command: str, payload: dict, started: float) -> None:
        report = {
            "command": command,
            "scenario": self.scenario.name,
            "config": self.config_payload(command),
            "seed": self.args.seed,
            "version": __version__,
            "payload": payload,
        }
        sys.stdout.write(dumps(report) + "\n")
        duration = time.monotonic() - started
        if self.out_dir is not None:
            report_on_disk = dict(report)
            report_on_disk["duration_s"] = duration
            report_on_disk["csv_files"] = self.csv_files
            (self.out_dir / f"report_{command}.json").write_text(dumps(report_on_disk) + "\n")
        print(f"{command}: done in {duration:.3f}s", file=sys.stderr)


def cmd_lift_check(run: _Run) -> tuple:
    scenario = run.scenario
    names = scenario.lift_check_fields
    if len(names) < 2:
        raise ScenarioError("lift-check needs at least 2 fields defined in the scenario")
    fields = [scenario.fields[name] for name in names]
    records = run_identity_battery(
        scenario.manifold, fields, samples=scenario.lift_check_samples, seed=run.args.seed
    )
    all_pass = all(r["pass"] for r in records)
    payload = {
        "fields": list(names),
        "samples": scenario.lift_check_samples,
        "identities": records,
        "all_pass": all_pass,
    }
    return payload, EXIT_OK if all_pass else EXIT_NUMERICAL_FAILURE


def _discrepancy(closed, ode_end) -> float:
    """Largest coordinate gap between a closed-form and an ODE endpoint."""
    return float(
        max(
            np.max(np.abs(closed.fiber - ode_end.fiber)),
            np.max(np.abs(closed.base.coords - ode_end.base.coords)),
        )
    )


def _simulate_vertical(run: _Run) -> dict:
    block = run.scenario.vertical
    control = block.control
    if block.is_affine and control is None:
        control = ControlSignal.zero(block.system.control_dim, block.horizon)
    traj = simulate_vertical_ode(block.system, block.initial, control, run.cfg, horizon=block.horizon)
    run.write_trajectory("vertical", traj)
    ode_end = traj.final
    base_constant = bool(np.all(traj.bases == traj.bases[0]))
    payload = {
        "ode": _tangent_payload(ode_end),
        "base_constant": base_constant,
        "horizon": block.horizon,
    }
    if block.is_affine:
        closed = solve_vertical_closed_form(block.system, block.initial, control, block.horizon)
        payload["closed_form"] = _tangent_payload(closed)
        payload["discrepancy"] = _discrepancy(closed, ode_end)
    return payload


def _simulate_lifted(run: _Run) -> dict:
    block = run.scenario.lifted
    control = block.control
    if control is None:
        control = ControlSignal.zero(block.system.control_dim, block.horizon)
    traj = simulate_lifted_ode(block.system, block.initial, control, run.cfg)
    run.write_trajectory("lifted", traj)
    closed = endpoint_closed_form(block.system, block.initial, control, run.cfg)
    return {
        "closed_form": _tangent_payload(closed),
        "ode": _tangent_payload(traj.final),
        "discrepancy": _discrepancy(closed, traj.final),
        "horizon": block.horizon,
    }


def cmd_simulate(run: _Run) -> tuple:
    scenario = run.scenario
    payload = {}
    if scenario.vertical is not None:
        payload["vertical"] = _simulate_vertical(run)
    if scenario.lifted is not None:
        payload["lifted"] = _simulate_lifted(run)
    return payload, EXIT_OK


def cmd_controllability(run: _Run) -> tuple:
    scenario = run.scenario
    payload = {}
    negative = False
    if scenario.vertical is not None and scenario.vertical.is_affine:
        block = scenario.vertical
        report = fiber_controllable_vertical(block.system, block.initial.base, run.args.rank_tol)
        payload["vertical"] = {
            "controllable": report.controllable,
            "basis": _basis_payload(report.basis),
            "point": report.point.coords.tolist(),
            "dim": scenario.manifold.dim,
        }
        negative = negative or not report.controllable
    if scenario.lifted is not None:
        block = scenario.lifted
        report = run.lifted_report()
        ad = ad_criterion(block.system, block.initial.base, block.k_max, run.args.rank_tol)
        payload["lifted"] = {
            "horizon": report.horizon,
            "grid_segments": report.grid_segments,
            "anchor": _tangent_payload(report.anchor),
            "transport_span": _basis_payload(report.s_t_basis),
            "image_span": _basis_payload(report.image_basis),
            "bracket_span": _basis_payload(ad.basis),
            "bracket_depth": ad.depth,
            "bracket_k_used": ad.k_used,
            "verdict_transport": report.verdict_transport,
            "verdict_bracket": ad.satisfied,
            "cond_flow_differential": report.cond_flow_differential,
            "caveat": report.caveat,
        }
        negative = negative or not report.verdict_transport
    return payload, EXIT_VERDICT_NEGATIVE if negative else EXIT_OK


def cmd_reachable(run: _Run) -> tuple:
    scenario = run.scenario
    payload = {}
    if scenario.vertical is not None and scenario.vertical.is_affine:
        block = scenario.vertical
        rset = reachable_vertical(block.system, block.initial, block.horizon, run.args.rank_tol)
        payload["vertical"] = {
            "anchor": _tangent_payload(rset.anchor),
            "basis": _basis_payload(rset.basis),
            "controllable": rset.basis.spans_dimension(scenario.manifold.dim),
            "horizon": rset.horizon,
        }
    if scenario.lifted is not None:
        report = run.lifted_report()
        payload["lifted"] = {
            "anchor": _tangent_payload(report.anchor),
            "basis": _basis_payload(report.image_basis),
            "controllable": report.verdict_transport,
            "horizon": scenario.lifted.horizon,
        }
    return payload, EXIT_OK


def cmd_bump_convergence(run: _Run) -> tuple:
    scenario = run.scenario
    if scenario.lifted is None:
        raise ScenarioError("bump-convergence needs a lifted_system block")
    block = scenario.lifted
    bump = block.bump
    N = run.grid
    T = block.horizon
    m = block.system.control_dim
    if not 0 <= bump.channel < m:
        raise ScenarioError(f"bump channel {bump.channel} out of range for {m} controls")
    node_index = bump.t0_fraction * N
    if abs(node_index - round(node_index)) > 1e-9:
        raise ScenarioError(
            f"bump start {bump.t0_fraction} does not land on a node of the {N}-segment grid"
        )
    node_index = int(round(node_index))
    signals = []
    for frac in bump.epsilon_fractions:
        segments = 1.0 / frac
        # Before rounding, with the tolerance below: 1 / 1e-320 is inf, which no int holds.
        if segments > run.cfg.max_steps + 1e-9:
            raise ScenarioError(
                f"bump width fraction {frac} gives more control segments than the step budget of {run.cfg.max_steps}"
            )
        if abs(segments - round(segments)) > 1e-9:
            raise ScenarioError(f"bump width fraction {frac} must divide the horizon evenly")
        segments = int(round(segments))
        if N % segments and segments % N:
            raise ScenarioError(
                f"bump width fraction {frac} gives {segments} control segments, "
                f"which neither align with nor refine the {N}-segment grid"
            )
        start = bump.t0_fraction * segments
        if abs(start - round(start)) > 1e-9:
            raise ScenarioError(
                f"bump start {bump.t0_fraction} is not a boundary of the {segments}-segment control"
            )
        signals.append((frac, ControlSignal.bump(T, segments, int(round(start)), bump.channel, m)))
    grid = build_transport_grid(block.system, block.initial.base, T, N, run.cfg)
    reference = grid.columns[node_index, bump.channel]
    table = [
        {"epsilon": frac * T, "error": float(np.linalg.norm(apply_LT(grid, signal) - reference))}
        for frac, signal in signals
    ]
    errors = np.array([row["error"] for row in table])
    if np.max(errors) > 1e-12:
        logs_eps = np.log([row["epsilon"] for row in table])
        logs_err = np.log(np.maximum(errors, 1e-300))
        order = float(np.polyfit(logs_eps, logs_err, 1)[0])
    else:
        order = None
    payload = {
        "t0": bump.t0_fraction * T,
        "channel": bump.channel,
        "reference_column": reference.tolist(),
        "table": table,
        "order": order,
    }
    return payload, EXIT_OK


def cmd_brackets(run: _Run) -> tuple:
    scenario = run.scenario
    if scenario.lifted is not None:
        point = scenario.lifted.initial.base
    elif scenario.vertical is not None:
        point = scenario.vertical.initial.base
    else:
        low, high = scenario.manifold.sample_box()
        point = scenario.manifold.point(0.5 * (low + high))
    names = sorted(scenario.fields)
    if not names:
        raise ScenarioError("brackets needs at least one field defined in fields")
    pairs = []
    for a in names:
        for b in names:
            bracket = base_lie_bracket(scenario.fields[a], scenario.fields[b])
            pairs.append({"a": a, "b": b, "coefficients": bracket.at(point).tolist()})
    payload = {"point": point.coords.tolist(), "pairs": pairs}
    if scenario.lifted is not None:
        block = scenario.lifted
        result = ad_criterion(block.system, point, block.k_max, run.args.rank_tol)
        payload["iterated_brackets"] = {
            "basis": _basis_payload(result.basis),
            "satisfied": result.satisfied,
            "depth": result.depth,
            "k_used": result.k_used,
        }
    return payload, EXIT_OK


_SYSTEM_COMMANDS = ("simulate", "controllability", "reachable")
_COMMANDS = {
    "lift-check": cmd_lift_check,
    "simulate": cmd_simulate,
    "controllability": cmd_controllability,
    "reachable": cmd_reachable,
    "bump-convergence": cmd_bump_convergence,
    "brackets": cmd_brackets,
}


def _flag(kind, accept, requirement: str):
    """argparse type: parse with ``kind``, keep only values ``accept`` passes."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanlift",
        description="Lifted control systems on the tangent bundle: "
        "simulation, reachable sets, and controllability tests.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="analysis to run")
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    seed = _flag(int, lambda v: v >= 0, "an integer >= 0")
    parser.add_argument("--seed", type=seed, default=42, help="RNG seed for sampled checks")
    step = _flag(float, lambda v: 0 < v < math.inf, "a finite number > 0")
    parser.add_argument("--step", type=step, default=DEFAULT_CONFIG.step, help="RK4 step size")
    budget = _flag(int, lambda v: v >= 1, "an integer >= 1")
    parser.add_argument("--max-steps", type=budget, default=DEFAULT_CONFIG.max_steps, help="RK4 step budget")
    grid = _flag(int, lambda v: v >= 2, "an integer >= 2")
    parser.add_argument("--grid", type=grid, default=None, help=f"transport grid segments, default {_DEFAULT_GRID}")
    tol = _flag(float, lambda v: 0 < v < 1, "a number in (0, 1)")
    parser.add_argument("--rank-tol", type=tol, default=DEFAULT_RANK_TOL, help="relative singular value cutoff")
    parser.add_argument("--out", default=None, help="directory for reports and CSV trajectories")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT_ERROR if err.code else EXIT_OK
    started = time.monotonic()
    try:
        run = _Run(args)
        if args.command in _SYSTEM_COMMANDS and run.scenario.vertical is None and run.scenario.lifted is None:
            raise ScenarioError(f"{args.command} needs a vertical_system or lifted_system block")
        payload, code = _COMMANDS[args.command](run)
        run.emit(args.command, payload, started)
    except (ScenarioError, ExpressionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (TanliftError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    return code


if __name__ == "__main__":
    sys.exit(main())
