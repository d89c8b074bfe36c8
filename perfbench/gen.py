"""Seeded input generator shared by every benchmark workload.

Everything produced here is plain data (expression strings, nested lists
of floats, scenario documents), so two generators built from the same
seed can be compared with ``==`` and the library only ever receives
generated inputs.  Trajectories stay inside the chart by construction:
on ``S2-spherical`` the drift's polar component is scaled so that its
amplitude times the longest horizon the workload draws is at most half
the distance from the start point to the polar-angle margin.
"""

from __future__ import annotations

import math

import numpy as np

MANIFOLDS = ("R2", "S2-spherical")
S2_MARGIN = 0.01  # polar-angle margin of the built-in spherical chart
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Why each workload exists and the parameters its inputs are drawn with.
# ``run.py`` prints the entry of the workload it runs.
WORKLOADS = {
    "transport": {
        "why": (
            "closed-form analysis: joint flow/variational RK4, field and Jacobian "
            "evaluation, pullback solves and Simpson quadrature; no sympy in an op"
        ),
        "params": {
            "pool_size": 12,
            "controls": [1, 2],
            "horizon": [0.1, 0.3],
            "control_segments": [1, 2, 4],
            "grid_segments": 8,
            "steer_segments": 8,
            "fiber_scale": 1.0,
        },
    },
    "simulate": {
        "why": (
            "direct integration and export: plain-state integrate_fixed with every "
            "state stored, no variational block, plus 17-digit CSV formatting"
        ),
        "params": {
            "lifted_pool": 8,
            "affine_pool": 4,
            "damping_pool": 4,
            "controls": [1, 2],
            "horizon": [0.2, 0.6],
            "control_segments": [1, 2, 4],
            "damping_rate": [0.5, 2.0],
            "damping_wobble": 0.4,
            "fiber_scale": 1.0,
        },
    },
    "cli": {
        "why": (
            "compile-heavy command layer: scenario parsing, sympy differentiation and "
            "lambdify, bracket recursion, identity battery, SVD and JSON output"
        ),
        "params": {
            "commands": [
                "simulate",
                "controllability",
                "lift-check",
                "reachable",
                "bump-convergence",
                "brackets",
            ],
            "fields": [3, 3, 4],
            "lift_check_fields": 2,
            "lift_check_samples": [10, 50],
            "k_max": [2, 4],
            "horizon": [0.03, 0.12],
            "grid": [8, 16, 32],
            "control_segments": [1, 2, 4],
        },
    },
}


class Generator:
    """Seeded source of fields, points, controls, systems and scenarios.

    ``stream`` separates independent sequences drawn from one seed (the
    compiled pool and the op stream), so that drawing more ops never
    changes the pool.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.rng = np.random.default_rng([int(seed), int(stream)])

    def uniform(self, low: float, high: float) -> float:
        return float(self.rng.uniform(low, high))

    def even_sequence(self, low: float, high: float):
        """Endless values in [low, high) that fill it evenly from a seeded start.

        The golden-ratio sequence spreads any run of n values over the
        range with gaps of order 1/n, so every run of a workload draws
        nearly the same distribution of sizes while seeds still differ.
        """
        position = self.uniform(0.0, 1.0)
        while True:
            yield low + (high - low) * position
            position = (position + GOLDEN) % 1.0

    def cycle(self, count: int):
        """Endless indices 0..count-1, each seeded permutation used whole."""
        while True:
            yield from (int(i) for i in self.rng.permutation(count))

    def draws(self, options):
        """Endless values of ``options``, each seeded permutation used whole.

        Any run of n draws holds each option n / len(options) times, to
        within one, so seeds change the order of sizes but not the mix.
        """
        for index in self.cycle(len(options)):
            yield options[index]

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends included."""
        return int(self.rng.integers(low, high + 1))

    def vector(self, low: float, high: float, size: int) -> list:
        return [float(v) for v in self.rng.uniform(low, high, size=size)]

    def trig_component(self, limit: float = math.inf) -> str:
        """c0 + c1*sin(xa) + c2*cos(xb): smooth, bounded, with bounded derivatives.

        The coefficients are scaled so that |c0| + |c1| + |c2|, a bound on
        the component's magnitude, is at most ``limit``.
        """
        c = self.rng.uniform(-1.0, 1.0, size=3)
        c *= min(1.0, limit / float(np.sum(np.abs(c))))
        a, b = self.integer(1, 2), self.integer(1, 2)
        return f"{c[0]:.6f} + {c[1]:.6f}*sin(x{a}) + {c[2]:.6f}*cos(x{b})"

    def trig_field(self) -> list:
        return [self.trig_component(), self.trig_component()]

    def base_point(self, manifold: str) -> list:
        if manifold == "R2":
            return self.vector(-1.5, 1.5, 2)
        return [self.uniform(0.6, math.pi - 0.6), self.uniform(-math.pi, math.pi)]

    def drift(self, manifold: str, base: list, horizon_max: float) -> list:
        """A trig drift whose flow from ``base`` stays in the chart up to ``horizon_max``."""
        if manifold == "R2":
            return self.trig_field()
        room = min(base[0] - S2_MARGIN, math.pi - S2_MARGIN - base[0])
        return [self.trig_component(0.5 * room / horizon_max), self.trig_component()]

    def control(self, segments: int, channels: int) -> list:
        return [self.vector(-1.0, 1.0, channels) for _ in range(segments)]

    def lifted_system(self, horizon_max: float, manifold: str, m: int) -> dict:
        base = self.base_point(manifold)
        return {
            "kind": "lifted",
            "manifold": manifold,
            "base": base,
            "drift": self.drift(manifold, base, horizon_max),
            "controls": [self.trig_field() for _ in range(m)],
        }

    def affine_vertical_system(self, manifold: str, m: int) -> dict:
        return {
            "kind": "affine",
            "manifold": manifold,
            "base": self.base_point(manifold),
            "drift": self.trig_field(),
            "controls": [self.trig_field() for _ in range(m)],
        }

    def damping_system(self, manifold: str, rate: list, wobble: float) -> dict:
        """Diagonal linear fiber damping y_i' = -k_i(x) y_i + g_i u_i.

        With the base frozen each k_i is a constant, so the benchmark can
        check the integration against the exact exponential solution.
        """
        rates = [round(self.uniform(*rate), 6) for _ in range(2)]
        wobbles = [round(self.uniform(-wobble, wobble), 6) for _ in range(2)]
        gains = [round(self.uniform(0.5, 1.5), 6) for _ in range(2)]
        exprs = [
            f"-({rates[i]:.6f} + {wobbles[i]:.6f}*sin(x{i + 1}))*y{i + 1} + {gains[i]:.6f}*u{i + 1}"
            for i in range(2)
        ]
        return {
            "kind": "damping",
            "manifold": manifold,
            "base": self.base_point(manifold),
            "exprs": exprs,
            "rates": rates,
            "wobbles": wobbles,
            "gains": gains,
        }

    def scenario(self, name: str, params: dict, shape: dict, horizon: float, samples: int) -> dict:
        """A scenario document with a lifted and an affine vertical block.

        ``shape`` fixes its discrete sizes: ``manifold``, ``fields``,
        ``grid``, ``k_max`` and the number of control ``segments``.
        """
        manifold = shape["manifold"]
        base = self.base_point(manifold)
        names = ["Y"] + [f"X{i}" for i in range(1, shape["fields"])]
        fields = {"Y": self.drift(manifold, base, params["horizon"][1])}
        for extra in names[1:]:
            fields[extra] = self.trig_field()
        controls = names[1 : 1 + min(2, shape["fields"] - 1)]
        m = len(controls)
        return {
            "schema": "tanlift-scenario-v1",
            "name": name,
            "manifold": manifold,
            "fields": fields,
            "lift_check": {
                "fields": names[: params["lift_check_fields"]],
                "samples": samples,
            },
            "lifted_system": {
                "drift": "Y",
                "controls": controls,
                "initial": {"base": base, "fiber": self.vector(-1.0, 1.0, 2)},
                "horizon": horizon,
                "control_values": self.control(shape["segments"], m),
                "grid": shape["grid"],
                "k_max": shape["k_max"],
            },
            "vertical_system": {
                "drift": names[-1],
                "controls": controls,
                "initial": {"base": base, "fiber": self.vector(-1.0, 1.0, 2)},
                "horizon": horizon,
                "control_values": self.control(shape["segments"], m),
            },
        }


def balanced(count: int, *options) -> list:
    """``count`` combinations that use every combination of the options equally.

    Pools built this way have the same make-up on every seed, so a run's
    cost does not hinge on how many two-control or sphere systems a seed
    happened to draw.
    """
    combos = [()]
    for values in options:
        combos = [c + (v,) for v in values for c in combos]
    return [combos[k % len(combos)] for k in range(count)]

