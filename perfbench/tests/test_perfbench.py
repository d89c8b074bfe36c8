"""Tests of the benchmark itself: seeded inputs, tracer hygiene, checks, preflight.

Run from the root of the checkout:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tanlift
import hostspeed
import run
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SMALL = {
    "transport": {"pool_size": 3, "horizon": [0.05, 0.1]},
    "simulate": {"lifted_pool": 2, "affine_pool": 2, "damping_pool": 2, "horizon": [0.05, 0.1]},
    "cli": {"horizon": [0.03, 0.05]},
}


def small(name, seed, tmp_path=None):
    if name == "cli":
        return workloads.Cli(seed, SMALL["cli"], workdir=tmp_path, max_ops=12)
    return {"transport": workloads.Transport, "simulate": workloads.Simulate}[name](seed, SMALL[name])


def first_ops(workload, count):
    stream = workload.ops()
    return [next(stream) for _ in range(count)]


def generated_inputs(name, seed):
    """Everything the library would receive from one seed, as plain data."""
    if name == "cli":
        return workloads.Cli(seed).documents(30)
    workload = {"transport": workloads.Transport, "simulate": workloads.Simulate}[name](seed)
    return {"pool": workload.specs(), "ops": first_ops(workload, 30)}


@pytest.mark.parametrize("name", ["transport", "simulate", "cli"])
def test_same_seed_gives_identical_inputs(name):
    assert json.dumps(generated_inputs(name, 7)) == json.dumps(generated_inputs(name, 7))


@pytest.mark.parametrize("name", ["transport", "simulate", "cli"])
def test_different_seed_gives_different_inputs(name):
    assert json.dumps(generated_inputs(name, 7)) != json.dumps(generated_inputs(name, 8))


def test_s2_drift_stays_inside_the_chart_by_construction():
    workload = workloads.Transport(3)
    for spec in workload.specs():
        if spec["manifold"] == "S2-spherical":
            terms = spec["drift"][0].split(" + ")
            amplitude = sum(abs(float(t.split("*")[0])) for t in terms)
            room = min(spec["base"][0] - 0.01, np.pi - 0.01 - spec["base"][0])
            assert amplitude * workload.params["horizon"][1] <= 0.5 * room + 1e-5


def _bindings():
    """Every function or method the tracer targets, at every place that binds it."""
    found = {}
    for key, module in sys.modules.items():
        if key == "tanlift" or key.startswith("tanlift."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(key, attr)] = value
    for cls, method in ((tanlift.VectorField, "at"), (tanlift.VectorField, "jacobian_at"),
                        (tanlift.ChartManifold, "check")):
        found[(cls.__name__, method)] = cls.__dict__[method]
    return found


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    workload = small("transport", 1)
    workload.setup()
    op = first_ops(workload, 1)[0]
    with tracing.Tracer() as tracer:
        assert tanlift.lifted.integrate_fixed is tanlift.flows.integrate_fixed
        assert getattr(tanlift.lifted.integrate_fixed, "perfbench_span") == "flows.integrate_fixed"
        assert getattr(tanlift.steer_lifted, "perfbench_span") == "lifted.steer_lifted"
        assert getattr(tanlift.VectorField.at, "perfbench_span") == "manifold.at"
        assert tracer.missing == []
        tracer.active = True
        workload.run(op)
        tracer.active = False
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(hasattr(value, "perfbench_span") for value in after.values())


def test_tracer_skips_a_target_the_library_no_longer_has(monkeypatch):
    monkeypatch.delattr(tanlift.lifted, "apply_LT")
    with tracing.Tracer() as tracer:
        assert tracer.missing == ["tanlift.lifted.apply_LT"]
        assert hasattr(tanlift.lifted.steer_lifted, "perfbench_span")
    assert not hasattr(tanlift.lifted.steer_lifted, "perfbench_span")


def traced_counts(workload, ops):
    tracer = tracing.Tracer()
    with tracer:
        for i, op in enumerate(ops):
            tracer.op, tracer.active = i, True
            workload.run(op)
            tracer.active = False
    metrics = tracing.layer_metrics(tracer.arrays(), 0.0, [workload.kind(op) for op in ops], 1.0)
    assert list(metrics) == list(tracing.METRIC_UNITS)
    return {k: v for k, v in metrics.items() if tracing.METRIC_UNITS[k] == "count" and k != "trace.spans"}


@pytest.mark.parametrize("name", ["transport", "simulate"])
def test_traced_work_counts_repeat_exactly(name):
    counts = []
    for _ in range(2):
        workload = small(name, 4)
        workload.setup()
        counts.append(traced_counts(workload, first_ops(workload, 3)))
    assert counts[0] == counts[1]
    assert counts[0]["flows.rk4_steps"] > 0 and counts[0]["flows.rhs_evals"] > 0


def test_traced_cli_counts_brackets_and_self_time(tmp_path):
    workload = small("cli", 5, tmp_path)
    workload.setup()
    ops = first_ops(workload, 6)
    tracer = tracing.Tracer()
    with tracer:
        for i, op in enumerate(ops):
            tracer.op, tracer.active = i, True
            workload.run(op)
            tracer.active = False
    metrics = tracing.layer_metrics(tracer.arrays(), 0.0, [workload.kind(op) for op in ops], 1.0)
    assert metrics["scenario.loads"] == 6
    assert metrics["lifts.brackets_built"] > 0
    assert metrics["battery.sample_points"] > 0
    assert 0.0 < metrics["cli.self_s"] < metrics["cli.main_s"]
    assert metrics["reportio.bytes_out"] > 0


@pytest.fixture(scope="module")
def transport_case():
    workload = small("transport", 2)
    workload.setup()
    op = first_ops(workload, 1)[0]
    return workload, op, workload.run(op)


def test_transport_check_passes_on_library_output(transport_case):
    workload, op, result = transport_case
    assert workload.check(op, result) == []


@pytest.mark.parametrize("field", ["endpoint", "LT", "steer"])
def test_transport_check_rejects_perturbed_output(transport_case, field):
    workload, op, result = transport_case
    bad = dict(result)
    if field == "endpoint":
        end = result["endpoint"]
        bad["endpoint"] = tanlift.TangentPoint(end.base, end.fiber + 1e-5)
    elif field == "LT":
        bad["LT"] = result["LT"] + 1e-5
    else:
        steer = result["steer"]
        bad["steer"] = tanlift.ControlSignal(horizon=steer.horizon, values=steer.values + 1e-3)
    assert workload.check(op, bad) != []


@pytest.fixture(scope="module")
def simulate_cases():
    workload = small("simulate", 2)
    workload.setup()
    cases = []
    for op in first_ops(workload, 12):
        cases.append((op, workload.run(op)))
    return workload, cases


def test_simulate_check_passes_on_library_output(simulate_cases):
    workload, cases = simulate_cases
    kinds = {workload.vertical_specs[op["vertical"]]["kind"] for op, _ in cases}
    assert kinds == {"affine", "damping"}
    for op, result in cases:
        assert workload.check(op, result) == []


def _shift_final_fiber(traj, delta):
    fibers = traj.fibers.copy()
    fibers[-1] += delta
    return tanlift.TangentTrajectory(traj.manifold, traj.times, traj.bases, fibers)


@pytest.mark.parametrize("kind", ["affine", "damping"])
def test_simulate_check_rejects_shifted_endpoint(simulate_cases, kind):
    workload, cases = simulate_cases
    op, result = next(c for c in cases if workload.vertical_specs[c[0]["vertical"]]["kind"] == kind)
    for block in ("lifted", "vertical"):
        bad = dict(result)
        bad[block] = _shift_final_fiber(result[block], 1e-5)
        bad[f"{block}_csv"] = workload._export(bad[block])
        assert workload.check(op, bad) != []


def test_simulate_check_rejects_bad_csv(simulate_cases):
    workload, cases = simulate_cases
    op, result = cases[0]
    lines = result["lifted_csv"].splitlines(keepends=True)
    assert workload.check(op, dict(result, lifted_csv="".join(lines[:-1]))) != []
    last = lines[-1].rstrip("\n").split(",")
    last[-1] = repr(float(last[-1]) + 1e-12)
    bad_csv = "".join(lines[:-1]) + ",".join(last) + "\n"
    assert workload.check(op, dict(result, lifted_csv=bad_csv)) != []


@pytest.fixture(scope="module")
def cli_cases(tmp_path_factory):
    workload = small("cli", 3, tmp_path_factory.mktemp("cli"))
    workload.setup()
    cases = {}
    for op in first_ops(workload, 6):
        cases[op["command"]] = (op, workload.run(op))
    yield workload, cases
    workload.close()


def test_cli_check_passes_on_every_command(cli_cases):
    workload, cases = cli_cases
    assert sorted(cases) == sorted(workload.params["commands"])
    for op, result in cases.values():
        assert workload.check(op, result) == [], op["command"]


def _with_payload(result, edit):
    report = json.loads(result["stdout"])
    edit(report["payload"])
    return dict(result, stdout=json.dumps(report))


def test_cli_check_rejects_perturbed_output(cli_cases):
    workload, cases = cli_cases
    op, result = cases["simulate"]
    bad = _with_payload(result, lambda p: p["lifted"].update(discrepancy=1e-5))
    assert workload.check(op, bad) != []
    assert workload.check(op, dict(result, code=3)) != []
    assert workload.check(op, dict(result, stdout="not json")) != []
    op, result = cases["lift-check"]
    bad = _with_payload(result, lambda p: p.update(all_pass=False))
    assert workload.check(op, bad) != []
    op, result = cases["reachable"]
    assert workload.check(op, dict(result, code=1)) != []


def test_host_speed_scaling_keeps_reference_time_and_undoes_a_slow_host():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.normalize(0.2, [ref, ref]) == pytest.approx(0.2)
    assert hostspeed.normalize(0.2, [2 * ref, 2 * ref]) == pytest.approx(0.1)
    assert hostspeed.normalize(0.2, [ref, 3 * ref]) == pytest.approx(0.1)
    assert hostspeed.normalize(0.2, [2 * ref, 9 * ref, 2 * ref]) == pytest.approx(0.1)
    assert hostspeed.sample() > 0.0


def test_run_scales_each_op_by_the_kernel_passes_around_it(monkeypatch):
    passes = iter([1.0, 3.0, 2.0, 2.0])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(passes) * hostspeed.REFERENCE_S)
    workload = small("simulate", 1)
    workload.setup()
    monkeypatch.setattr(run, "MIN_OPS", 2)
    latencies, scaled, failed, kinds = run.run_ops(workload, 0.0, None, float("inf"))
    assert failed == 0 and len(latencies) == 2
    assert scaled == pytest.approx([latencies[0] / 2.0, latencies[1] / 2.0])


def test_golden_preflight_passes_and_rejects_a_perturbed_value(tmp_path):
    assert run.golden_preflight(ROOT) == []
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    shutil.copytree(ROOT / "tests" / "golden", tmp_path / "tests" / "golden")
    path = tmp_path / "tests" / "golden" / "r2_shear.json"
    spec = json.loads(path.read_text())
    spec["runs"][0]["checks"][1]["value"] = [1.0, 1.5 + 1e-5]
    path.write_text(json.dumps(spec))
    failures = run.golden_preflight(tmp_path)
    assert len(failures) == 1 and "r2_shear/simulate" in failures[0]


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
