"""The three benchmark workloads: inputs, one op, and its correctness check.

A workload compiles (or writes) its inputs in ``setup``, yields op specs
from ``ops``, runs one op with ``run`` (the only timed call) and checks
the op's result with ``check``, which returns a list of problems and is
never timed.  Library calls go through module attributes at call time
(``tanlift.lifted.steer_lifted``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import tanlift
import tanlift.cli
import tanlift.reportio

from gen import MANIFOLDS, WORKLOADS, Generator, balanced

CLOSED_FORM_TOL = 1e-7  # golden closed-form versus ODE tolerance
STEER_TOL = 1e-6
TRANSPORT_QUADRATURE_TOL = 1e-6
STEP = tanlift.IntegratorConfig().step


def _endpoint_gap(a, b) -> float:
    """Max-norm distance between two tangent points, base and fiber together."""
    return float(
        max(np.max(np.abs(a.base.coords - b.base.coords)), np.max(np.abs(a.fiber - b.fiber)))
    )


def _gap_problem(label: str, gap: float, tol: float) -> list:
    return [] if gap <= tol else [f"{label}: gap {gap:.3e} exceeds {tol:.0e}"]


def compile_lifted(spec: dict):
    manifold = tanlift.builtin_manifold(spec["manifold"])
    drift = tanlift.field_from_expressions(manifold, spec["drift"], "Y")
    controls = [tanlift.field_from_expressions(manifold, c, f"X{i + 1}") for i, c in enumerate(spec["controls"])]
    return tanlift.LiftedSystem(manifold, drift, tuple(controls))


def compile_vertical(spec: dict):
    manifold = tanlift.builtin_manifold(spec["manifold"])
    if spec["kind"] == "damping":
        dynamics = tanlift.fiber_dynamics_from_expressions(manifold, spec["exprs"], 2)
        return tanlift.GeneralVerticalSystem(manifold=manifold, dynamics=dynamics, control_dim=2)
    drift = tanlift.field_from_expressions(manifold, spec["drift"], "X0")
    controls = [tanlift.field_from_expressions(manifold, c, f"X{i + 1}") for i, c in enumerate(spec["controls"])]
    return tanlift.VerticalAffineSystem(manifold, drift, tuple(controls))


def _channels(spec: dict) -> int:
    return 2 if spec["kind"] == "damping" else len(spec["controls"])


class Workload:
    """Common shape of a workload; ``round_size`` ops make one full rotation."""

    name = ""
    round_size = 1

    def __init__(self, seed: int, params: dict | None = None):
        self.seed = seed
        self.params = dict(WORKLOADS[self.name]["params"], **(params or {}))

    def kind(self, op: dict) -> str:
        return self.name

    def close(self) -> None:
        pass


class Transport(Workload):
    """One op: closed-form endpoint, transport grid plus L_T, and steering."""

    name = "transport"

    def specs(self) -> list:
        gen = Generator(self.seed, 0)
        p = self.params
        combos = balanced(p["pool_size"], MANIFOLDS, p["controls"])
        return [gen.lifted_system(p["horizon"][1], manifold, m) for manifold, m in combos]

    def setup(self) -> None:
        self.pool_specs = self.specs()
        self.pool = [compile_lifted(spec) for spec in self.pool_specs]

    def ops(self):
        specs = self.specs()
        gen = Generator(self.seed, 1)
        p = self.params
        horizons = gen.even_sequence(*p["horizon"])
        segment_draws = gen.draws(p["control_segments"])
        for index in gen.cycle(len(specs)):
            m = len(specs[index]["controls"])
            horizon = next(horizons)
            segments = next(segment_draws)
            yield {
                "system": index,
                "horizon": horizon,
                "fiber": gen.vector(-p["fiber_scale"], p["fiber_scale"], 2),
                "control": gen.control(segments, m),
            }

    def _inputs(self, op: dict):
        system = self.pool[op["system"]]
        v0 = system.manifold.tangent_point(self.pool_specs[op["system"]]["base"], op["fiber"])
        u = tanlift.ControlSignal(horizon=op["horizon"], values=op["control"])
        return system, v0, u

    def run(self, op: dict) -> dict:
        system, v0, u = self._inputs(op)
        horizon = op["horizon"]
        endpoint = tanlift.lifted.endpoint_closed_form(system, v0, u)
        grid = tanlift.lifted.build_transport_grid(system, v0.base, horizon, self.params["grid_segments"])
        lt = tanlift.lifted.apply_LT(grid, u)
        steer = tanlift.lifted.steer_lifted(system, v0, endpoint, horizon, N=self.params["steer_segments"])
        return {"endpoint": endpoint, "endpoint_jacobian": grid.endpoint_jacobian, "LT": lt, "steer": steer}

    def check(self, op: dict, result: dict) -> list:
        system, v0, u = self._inputs(op)
        endpoint = result["endpoint"]
        ode = tanlift.simulate_lifted_ode(system, v0, u).final
        problems = _gap_problem("closed form vs ODE", _endpoint_gap(endpoint, ode), CLOSED_FORM_TOL)
        fiber = result["endpoint_jacobian"] @ v0.fiber + result["LT"]
        lt_gap = float(np.max(np.abs(fiber - endpoint.fiber)))
        problems += _gap_problem("L_T vs closed form", lt_gap, TRANSPORT_QUADRATURE_TOL)
        reached = tanlift.endpoint_closed_form(system, v0, result["steer"])
        problems += _gap_problem("steered endpoint vs target", _endpoint_gap(reached, endpoint), STEER_TOL)
        return problems


class Simulate(Workload):
    """One op: a lifted and a vertical trajectory by RK4, each exported as CSV."""

    name = "simulate"

    def specs(self) -> tuple:
        gen = Generator(self.seed, 0)
        p = self.params
        lifted = [
            gen.lifted_system(p["horizon"][1], manifold, m)
            for manifold, m in balanced(p["lifted_pool"], MANIFOLDS, p["controls"])
        ]
        vertical = [
            gen.affine_vertical_system(manifold, m)
            for manifold, m in balanced(p["affine_pool"], MANIFOLDS, p["controls"])
        ]
        vertical += [
            gen.damping_system(manifold, p["damping_rate"], p["damping_wobble"])
            for (manifold,) in balanced(p["damping_pool"], MANIFOLDS)
        ]
        return lifted, vertical

    def setup(self) -> None:
        self.lifted_specs, self.vertical_specs = self.specs()
        self.lifted = [compile_lifted(spec) for spec in self.lifted_specs]
        self.vertical = [compile_vertical(spec) for spec in self.vertical_specs]

    def ops(self):
        lifted_specs, vertical_specs = self.specs()
        gen = Generator(self.seed, 1)
        p = self.params
        scale = p["fiber_scale"]
        horizons = gen.even_sequence(*p["horizon"])
        lifted_segments = gen.draws(p["control_segments"])
        vertical_segments = gen.draws(p["control_segments"])
        for li, vi in zip(gen.cycle(len(lifted_specs)), gen.cycle(len(vertical_specs))):
            horizon = next(horizons)
            yield {
                "lifted": li,
                "vertical": vi,
                "horizon": horizon,
                "lifted_fiber": gen.vector(-scale, scale, 2),
                "lifted_control": gen.control(next(lifted_segments), len(lifted_specs[li]["controls"])),
                "vertical_fiber": gen.vector(-scale, scale, 2),
                "vertical_control": gen.control(next(vertical_segments), _channels(vertical_specs[vi])),
            }

    def _inputs(self, op: dict):
        lspec, vspec = self.lifted_specs[op["lifted"]], self.vertical_specs[op["vertical"]]
        lsys, vsys = self.lifted[op["lifted"]], self.vertical[op["vertical"]]
        v0 = lsys.manifold.tangent_point(lspec["base"], op["lifted_fiber"])
        w0 = vsys.manifold.tangent_point(vspec["base"], op["vertical_fiber"])
        u = tanlift.ControlSignal(horizon=op["horizon"], values=op["lifted_control"])
        uv = tanlift.ControlSignal(horizon=op["horizon"], values=op["vertical_control"])
        return lsys, v0, u, vsys, w0, uv

    @staticmethod
    def _export(traj) -> str:
        stream = io.StringIO()
        header = ["t", "x1", "x2", "y1", "y2"]
        rows = tanlift.reportio.trajectory_rows(traj.times, traj.bases, traj.fibers)
        tanlift.reportio.write_csv(stream, header, rows)
        return stream.getvalue()

    def run(self, op: dict) -> dict:
        lsys, v0, u, vsys, w0, uv = self._inputs(op)
        lifted = tanlift.lifted.simulate_lifted_ode(lsys, v0, u)
        vertical = tanlift.vertical.simulate_vertical_ode(vsys, w0, uv)
        return {
            "lifted": lifted,
            "vertical": vertical,
            "lifted_csv": self._export(lifted),
            "vertical_csv": self._export(vertical),
        }

    def check(self, op: dict, result: dict) -> list:
        lsys, v0, u, vsys, w0, uv = self._inputs(op)
        closed = tanlift.endpoint_closed_form(lsys, v0, u)
        gap = _endpoint_gap(result["lifted"].final, closed)
        problems = _gap_problem("lifted ODE vs closed form", gap, CLOSED_FORM_TOL)
        vspec = self.vertical_specs[op["vertical"]]
        if vspec["kind"] == "damping":
            fiber = damping_closed_form(vspec, w0.fiber, uv)
        else:
            fiber = tanlift.solve_vertical_closed_form(vsys, w0, uv, op["horizon"]).fiber
        vertical = result["vertical"]
        gap = float(np.max(np.abs(vertical.final.fiber - fiber)))
        problems += _gap_problem(f"vertical ({vspec['kind']}) ODE vs closed form", gap, CLOSED_FORM_TOL)
        if not np.all(vertical.bases == np.asarray(vspec["base"])):
            problems.append("vertical base moved")
        problems += csv_problems("lifted", result["lifted_csv"], result["lifted"], rk4_steps(u))
        problems += csv_problems("vertical", result["vertical_csv"], vertical, rk4_steps(uv))
        return problems


def rk4_steps(u) -> int:
    """Steps of the default step size when no step straddles a control segment."""
    bounds = u.boundaries
    return sum(math.ceil((b - a) / STEP) for a, b in zip(bounds[:-1], bounds[1:]))


def damping_closed_form(spec: dict, fiber, u) -> np.ndarray:
    """Exact fiber of y_i' = -k_i y_i + g_i u_i for piecewise-constant u."""
    base = np.asarray(spec["base"])
    k = np.array(spec["rates"]) + np.array(spec["wobbles"]) * np.sin(base)
    g = np.array(spec["gains"])
    y = np.array(fiber, dtype=float)
    bounds = u.boundaries
    for seg, value in enumerate(u.values):
        decay = np.exp(-k * (bounds[seg + 1] - bounds[seg]))
        y = decay * y + g * value / k * (1.0 - decay)
    return y


def csv_problems(label: str, text: str, traj, steps: int) -> list:
    """The CSV has a header, steps + 1 rows, and parses back to the trajectory exactly."""
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:]
    if len(body) != steps + 1:
        return [f"{label} CSV has {len(body)} rows, expected {steps + 1}"]
    values = np.array(body, dtype=float)
    expected = np.column_stack([traj.times, traj.bases, traj.fibers])
    if not np.array_equal(values, expected):
        return [f"{label} CSV does not parse back to the trajectory"]
    return []


class Cli(Workload):
    """One op: one in-process ``tanlift`` command on a scenario file no op used before.

    Commands rotate through all six; a run stops only after a whole
    rotation, so every run holds each command equally often.
    """

    name = "cli"

    def __init__(self, seed: int, params: dict | None = None, workdir: Path | None = None, max_ops: int = 600):
        super().__init__(seed, params)
        self.round_size = len(self.params["commands"])
        self.workdir = Path(workdir if workdir is not None else ".perfbench") / f"cli-seed{seed}"
        self.max_ops = max_ops - max_ops % self.round_size

    def documents(self, count: int) -> list:
        """Scenario ``i`` serves op ``i``.

        Field counts cycle through ``params["fields"]`` so that every
        rotation of the commands holds each entry equally often and each
        command meets every entry in turn; a run's cost then barely
        depends on where it stops.  The
        manifold, grid, ``k_max`` and segment count are drawn once per
        rotation from seeded permutations used whole, so each command
        also meets each of their values equally often, and every seed
        gets the same mix of scenario sizes.
        """
        gen = Generator(self.seed, 1)
        p = self.params
        horizons = gen.even_sequence(*p["horizon"])
        samples = gen.even_sequence(p["lift_check_samples"][0], p["lift_check_samples"][1] + 1)
        draws = {
            "manifold": gen.draws(MANIFOLDS),
            "grid": gen.draws(p["grid"]),
            "k_max": gen.draws(list(range(p["k_max"][0], p["k_max"][1] + 1))),
            "segments": gen.draws(p["control_segments"]),
        }
        docs = []
        for i in range(count):
            if i % self.round_size == 0:
                shape = {key: next(values) for key, values in draws.items()}
            shape["fields"] = p["fields"][(i + i // self.round_size) % len(p["fields"])]
            docs.append(gen.scenario(f"perfbench-{i}", p, shape, next(horizons), int(next(samples))))
        return docs

    def setup(self) -> None:
        """Generate and serialize every scenario; ``ops`` writes each file.

        Writing 600 small files took 0.04-0.5 s on the same host from one
        set-up to the next.  That is the file system's state, not work of
        the program, so the files are written outside the timed set-up:
        each one just before the op that uses it, outside the op's span.
        """
        self.texts = [json.dumps(doc) for doc in self.documents(self.max_ops)]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self):
        commands = self.params["commands"]
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for i, text in enumerate(self.texts):
            path = self.workdir / f"scenario-{i:04d}.json"
            path.write_text(text)
            yield {"command": commands[i % len(commands)], "scenario": str(path)}

    def kind(self, op: dict) -> str:
        return op["command"]

    def run(self, op: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tanlift.cli.main([op["command"], "--scenario", op["scenario"]])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, op: dict, result: dict) -> list:
        return cli_problems(op["command"], json.loads(Path(op["scenario"]).read_text()), result)


def cli_problems(command: str, doc: dict, result: dict) -> list:
    """Exit code, JSON stdout, and the command-specific invariants of one CLI run."""
    code = result["code"]
    if code not in (0, 1):
        return [f"{command} exited {code}: {result['stderr'].strip()[:200]}"]
    try:
        payload = json.loads(result["stdout"])["payload"]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        return [f"{command} stdout is not a JSON report: {err}"]
    problems = []
    if command == "controllability":
        verdicts = [payload.get("vertical", {}).get("controllable", True)]
        verdicts.append(payload.get("lifted", {}).get("verdict_transport", True))
        if code != (0 if all(verdicts) else 1):
            problems.append(f"controllability exited {code} with verdicts {verdicts}")
    elif code != 0:
        problems.append(f"{command} exited {code}")
    if command == "lift-check" and payload.get("all_pass") is not True:
        problems.append("lift-check did not report all_pass")
    if command == "simulate":
        for block in ("vertical", "lifted"):
            gap = payload[block]["discrepancy"]
            if not gap <= CLOSED_FORM_TOL:
                problems.append(f"simulate {block} discrepancy {gap:.3e} exceeds {CLOSED_FORM_TOL:.0e}")
    if command == "brackets" and len(payload["pairs"]) != len(doc["fields"]) ** 2:
        problems.append("brackets did not report every field pair")
    if command == "bump-convergence" and len(payload["table"]) != 3:
        problems.append("bump-convergence table does not have 3 rows")
    if command == "reachable" and set(payload) != {"vertical", "lifted"}:
        problems.append("reachable did not report both blocks")
    return problems


def make(name: str, seed: int, workdir: Path | None = None) -> Workload:
    if name == "transport":
        return Transport(seed)
    if name == "simulate":
        return Simulate(seed)
    if name == "cli":
        return Cli(seed, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")
