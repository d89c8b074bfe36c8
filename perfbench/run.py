"""End-to-end benchmark of tanlift: one workload, one seed, one process.

Run from the root of a tanlift checkout:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 30 --trace 0

The run imports ``tanlift`` from ``src/``, replays every golden check in
``tests/golden`` through ``tanlift.cli.main`` (aborting with exit code 1
and no numbers if one fails), sets the workload up, then issues ops as a
single closed-loop client until ``--seconds`` have passed and at least
``MIN_OPS`` ops ran.  Every op is checked outside its timed span.  Each
timed span sits between two samples of the host-speed kernel
(``hostspeed.py``), and the end-to-end times are rescaled to the
kernel's reference speed, so that the shared host's drift cancels.  With
``--trace 1`` it instead runs the first ``MIN_OPS`` ops of the same op
stream under the span tracer and reports the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("transport", "simulate", "cli")
MIN_OPS = 100  # so that ten latency samples lie beyond the 90th percentile
SETUP_REPS = 5  # set-up repeats per run; setup_s reports their median
IMPORT_PROBE = "import time; t = time.perf_counter(); import tanlift; print(time.perf_counter() - t)"
HARD_LIMIT_S = 150.0  # ops stop this long after main() started, even short of MIN_OPS
SHOWN_FAILURES = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def lookup(report, path):
    for key in path:
        report = report[key]
    return report


def golden_preflight(root: Path) -> list:
    """Run every golden check through ``tanlift.cli.main``; return the failures."""
    import numpy as np
    import tanlift.cli

    files = sorted((root / "tests" / "golden").glob("*.json"))
    if not files:
        return ["no golden files under tests/golden"]
    failures = []
    for golden in files:
        spec = json.loads(golden.read_text())
        for run in spec["runs"]:
            label = f"{golden.stem}/{run['command']}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tanlift.cli.main([run["command"], "--scenario", str(root / spec["scenario"])])
            if code != 0:
                failures.append(f"{label}: exit code {code}: {err.getvalue().strip()}")
                continue
            report = json.loads(out.getvalue())
            for check in run["checks"]:
                actual, expected = lookup(report, check["path"]), check["value"]
                if "tol" in check:
                    ok = np.allclose(actual, expected, atol=check["tol"], rtol=0.0)
                else:
                    ok = actual == expected
                if not ok:
                    failures.append(f"{label}: {check['path']} = {actual!r}, expected {expected!r}")
    return failures


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    import sympy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": sympy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": git_commit(root),
    }


def import_seconds(root: Path) -> float:
    """Time of ``import tanlift`` in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout)


def quantile(values: list, q: int) -> float:
    """The q-th percentile, by the inclusive method of ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_ops(workload, seconds: float, tracer, hard_stop: float) -> tuple:
    """Closed loop: issue the next op when the previous one returned.

    Returns (latencies, scaled, failed, kinds): the wall time of each op
    and that time at the reference host speed.  An op fails when it
    raises or its check reports a problem; its latency is kept either way.
    """
    import hostspeed

    latencies, scaled, kinds = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    for op in workload.ops():
        n = len(latencies)
        whole_round = n % workload.round_size == 0
        if tracer is not None:
            if n >= MIN_OPS and whole_round:
                break
        elif n >= MIN_OPS and whole_round and time.perf_counter() >= deadline:
            break
        if whole_round and time.perf_counter() > hard_stop:
            print(f"perfbench: stopped at the {HARD_LIMIT_S:.0f} s limit after {n} ops", file=sys.stderr)
            break
        error = None
        before = hostspeed.sample()
        if tracer is not None:
            tracer.op, tracer.active = n, True
        started = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as err:  # an op failure is counted, not fatal
            error = err
        latencies.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.active = False
        scaled.append(hostspeed.normalize(latencies[-1], [before, hostspeed.sample()]))
        kinds.append(workload.kind(op))
        problems = ["".join(traceback.format_exception(error))] if error else workload.check(op, result)
        if problems:
            failed += 1
            if failed <= SHOWN_FAILURES:
                print(f"perfbench: op {n} ({kinds[-1]}) failed: {'; '.join(problems)}", file=sys.stderr)
    return latencies, scaled, failed, kinds


def main(argv=None) -> int:
    hard_stop = time.perf_counter() + HARD_LIMIT_S
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tanlift" / "__init__.py").is_file():
        print("perfbench: run from the root of a tanlift checkout (no src/tanlift here)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    started = time.perf_counter()
    import tanlift

    import_s = time.perf_counter() - started
    if not Path(tanlift.__file__).resolve().is_relative_to(root / "src"):
        print(f"perfbench: imported tanlift from {tanlift.__file__}, not from ./src", file=sys.stderr)
        return 2
    failures = golden_preflight(root)
    if failures:
        print("perfbench: golden preflight failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1

    import sympy.core.cache

    import gen
    import hostspeed
    import tracer as tracing
    import workloads

    workload = workloads.make(args.workload, args.seed, workdir=root / ".perfbench")
    tracer = tracing.Tracer() if args.trace else None
    setup_times, import_times = [], []
    hostspeed.warm_up()
    setup_kernel_times = [hostspeed.sample()]
    try:
        if tracer is not None:
            tracer.install()
        for rep in range(SETUP_REPS):
            import_times.append(import_seconds(root))
            setup_kernel_times.append(hostspeed.sample())
            sympy.core.cache.clear_cache()
            if tracer is not None and rep == SETUP_REPS - 1:
                tracer.active = True
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            setup_kernel_times.append(hostspeed.sample())
        latencies, scaled, failed, kinds = run_ops(workload, args.seconds, tracer, hard_stop)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    attempted = len(latencies)
    completed = attempted - failed
    info = {
        "workload": args.workload,
        "why": gen.WORKLOADS[args.workload]["why"],
        "params": workload.params,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "error_rate": failed / attempted if attempted else 1.0,
        "import_in_process_s": import_s,
        "import_reps_s": import_times,
        "setup_reps_s": setup_times,
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "setup_kernel_s": setup_kernel_times,
        "wall_ops_per_s": completed / sum(latencies),
        "median_s_by_kind": {
            kind: statistics.median(t for t, k in zip(scaled, kinds) if k == kind)
            for kind in sorted(set(kinds))
        },
        "env": environment(root),
    }
    if tracer is not None:
        import numpy as np

        spans = tracer.arrays()
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        np.savez_compressed(span_file, **spans)
        info["span_file"] = str(span_file.relative_to(root))
        info["untraced_targets"] = tracer.missing
        values = tracing.layer_metrics(spans, statistics.median(import_times), kinds, sum(latencies))
        units = tracing.METRIC_UNITS
    else:
        values = {
            "setup_s": hostspeed.normalize(
                statistics.median(import_times) + statistics.median(setup_times), setup_kernel_times
            ),
            "latency_p50_s": statistics.median(scaled),
            "latency_p90_s": quantile(scaled, 90),
            "ops_per_s": completed / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"perfbench": info}))
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={attempted} failed={failed} "
          f"error_rate={info['error_rate']:.4g} ratio")
    for key, value in values.items():
        print(f"  {key:40s} {value:.6g} {units[key]}")
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
