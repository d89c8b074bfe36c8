"""Repeat benchmark runs and report how steady each end-to-end metric is.

Run from the root of a tanlift checkout:

    python3 perfbench/steady.py --workload all --runs 10 --trace

For each workload it runs ``perfbench/run.py`` once per seed (seeds
``--first-seed`` onwards), one process after another, and prints every
end-to-end metric's median, quartiles and quartile spread as a share of
the median, next to the bound in ``BENCHMARK.json``.  The spread should
stay below a third of the bound (``setup_s`` is exempt).  It also prints
each run's op count and error rate, a histogram of all op latencies (at
the reference host speed of ``hostspeed.py``) with
the median marked, so that a median sitting in a gap between clusters
shows, and with ``--trace`` one traced run per workload with its
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300
HISTOGRAM_BINS = 24
BAR_WIDTH = 50


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark process; returns (info, result) parsed from its stdout.

    ``info["wall_s"]`` is the process's wall time, set-up and checks included.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line)["perfbench"] for line in lines if line.startswith('{"perfbench"'))
    info["wall_s"] = wall
    return info, json.loads(lines[-1])


def spread_table(results: list, bounds: dict) -> list:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "exempt"
        else:
            verdict = "ok" if spread < bound / 3 else "WIDE"
        rows.append((name, unit, median, q1, q3, spread, bound, verdict))
    return rows


def histogram(latencies: list) -> list:
    """Log-spaced histogram lines of op latencies, the median's bin marked."""
    low, high = min(latencies), max(latencies)
    if high <= low:
        return [f"  all {len(latencies)} ops took {low * 1e3:.3f} ms"]
    edges = [low * (high / low) ** (i / HISTOGRAM_BINS) for i in range(HISTOGRAM_BINS + 1)]
    counts = [0] * HISTOGRAM_BINS
    for t in latencies:
        counts[min(HISTOGRAM_BINS - 1, int(HISTOGRAM_BINS * math.log(t / low) / math.log(high / low)))] += 1
    median = statistics.median(latencies)
    peak = max(counts)
    lines = []
    for i, c in enumerate(counts):
        mark = " <- median" if edges[i] <= median < edges[i + 1] or (i == HISTOGRAM_BINS - 1 and median >= edges[i]) else ""
        bar = "#" * max(1 if c else 0, round(BAR_WIDTH * c / peak))
        lines.append(f"  {edges[i] * 1e3:9.2f}-{edges[i + 1] * 1e3:9.2f} ms {c:5d} {bar}{mark}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = tuple(w["name"] for w in spec["workloads"])
    parser.add_argument("--workload", default="all", choices=("all",) + workload_names)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workload_names if args.workload == "all" else (args.workload,)
    for workload in names:
        runs = [run_once(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        print(f"== {workload}: {args.runs} runs of {seconds:g} s, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for info, result in runs:
            kinds = ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in info["median_s_by_kind"].items())
            print(f"  seed {info['seed']:4d}: wall {info['wall_s']:5.1f} s  ops {result['attempted']:4d}  failed {result['failed']}  "
                  f"error_rate {info['error_rate']:.3g} ratio  median by kind: {kinds}")
        print(f"  {'metric':16s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, unit, median, q1, q3, spread, bound, verdict in spread_table([r for _, r in runs], bounds):
            print(f"  {name:16s} {unit:5s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else f'{bound:6.3f}'} {verdict}")
        print("  op latency histogram at reference host speed, all runs pooled:")
        print("\n".join(histogram([t for info, _ in runs for t in info["scaled_latencies_s"]])))
        if args.trace:
            info, result = run_once(workload, args.first_seed, seconds, 1)
            traced = result["metrics"]["trace.ops_per_s"]["value"]
            untraced = statistics.median(info["wall_ops_per_s"] for info, _ in runs)
            print(f"  traced run, seed {args.first_seed}: wall {info['wall_s']:.1f} s, {result['attempted']} ops, "
                  f"spans in {info['span_file']}")
            for name, metric in result["metrics"].items():
                print(f"    {name:40s} {metric['value']:14.6g} {metric['unit']}")
            print(f"  tracing overhead (wall time): untraced {untraced:.4g} ops/s, traced {traced:.4g} ops/s, "
                  f"traced op time x{untraced / traced:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
