"""Host-speed calibration: a fixed kernel timed next to every measurement.

On a shared host the same op runs up to about 30% faster or slower from
one minute to the next, because neighbours load the machine.  The
kernel below is a small fixed mix of what tanlift ops spend their time
on: 2x2 numpy algebra and ufuncs, Python float math, dict work, and
float formatting.  It uses no tanlift code, so a change to the
library never changes it.  Timed right before and right after an op, it
tracks the host's speed during that op (their correlation is about 0.9
on a 2-vCPU shared host).  ``normalize`` rescales a measured time to
the host speed at which one kernel pass takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.0015  # one kernel pass on the reference host speed
ROUNDS = 260  # kernel loop length; about 2 ms on a 2-vCPU x86-64 VM
PASSES = 2  # passes per sample; the fastest counts
WARMUP = 5

_MATRIX = np.array([[0.9, 0.1], [-0.2, 1.1]])


def kernel() -> str:
    x = np.array([0.3, -0.4])
    counts = {}
    acc = 0.0
    out = []
    for i in range(ROUNDS):
        x = _MATRIX @ x + np.sin(x) * 1e-3
        key = i % 31
        counts[key] = counts.get(key, 0) + 1
        acc += math.cos(acc + i * 1e-3) * 0.5
        out.append(repr(float(x[0]) + acc))
    return ",".join(out)


def sample() -> float:
    """Wall time of the fastest of ``PASSES`` kernel passes.

    An interrupt or a preemption during one pass only makes that pass
    slower, so the fastest pass is the host's speed.  The garbage
    collector is off during the passes: a full collection of a heap that
    holds sympy takes longer than the kernel itself, and says nothing
    about the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PASSES):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
        return min(times)
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    for _ in range(WARMUP):
        kernel()


def normalize(seconds: float, kernel_times: list) -> float:
    """``seconds`` at reference speed, given kernel passes timed around the measurement."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)
