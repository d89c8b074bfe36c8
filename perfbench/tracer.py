"""Span tracing of tanlift from outside the package.

``Tracer.install`` replaces each traced public function at every
``tanlift`` module attribute that binds it (``tanlift.flows.integrate_fixed``
and ``tanlift.lifted.integrate_fixed`` share one wrapper), wraps the
right-hand side handed to ``integrate_fixed``, and wraps the methods
``VectorField.at``, ``VectorField.jacobian_at`` and ``ChartManifold.check``.
``uninstall`` puts every original back.

Each span records its name, start, end, parent span and op id in flat
arrays held in memory; ``arrays`` hands them over once the run has
ended, and ``layer_metrics`` reduces them to the per-layer metrics.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute): the attribute is a function of the module
# or "Class.method".  The prefix of the span name before the first dot is
# the layer the span belongs to.
TARGETS = (
    ("expressions.field_from_expressions", "tanlift.expressions", "field_from_expressions"),
    ("expressions.field_from_symbolic", "tanlift.expressions", "field_from_symbolic"),
    ("expressions.fiber_dynamics_from_expressions", "tanlift.expressions", "fiber_dynamics_from_expressions"),
    ("scenario.load_scenario", "tanlift.scenario", "load_scenario"),
    ("manifold.at", "tanlift.manifold", "VectorField.at"),
    ("manifold.jacobian_at", "tanlift.manifold", "VectorField.jacobian_at"),
    ("manifold.check", "tanlift.manifold", "ChartManifold.check"),
    ("flows.integrate_fixed", "tanlift.flows", "integrate_fixed"),
    ("flows.pullback_vector", "tanlift.flows", "pullback_vector"),
    ("lifted.endpoint_closed_form", "tanlift.lifted", "endpoint_closed_form"),
    ("lifted.build_transport_grid", "tanlift.lifted", "build_transport_grid"),
    ("lifted.apply_LT", "tanlift.lifted", "apply_LT"),
    ("lifted.steer_lifted", "tanlift.lifted", "steer_lifted"),
    ("lifted.simulate_lifted_ode", "tanlift.lifted", "simulate_lifted_ode"),
    ("lifted.ad_criterion", "tanlift.lifted", "ad_criterion"),
    ("lifted.fiber_controllability_report", "tanlift.lifted", "fiber_controllability_report"),
    ("vertical.simulate_vertical_ode", "tanlift.vertical", "simulate_vertical_ode"),
    ("vertical.solve_vertical_closed_form", "tanlift.vertical", "solve_vertical_closed_form"),
    ("vertical.reachable_vertical", "tanlift.vertical", "reachable_vertical"),
    ("lifts.base_lie_bracket", "tanlift.lifts", "base_lie_bracket"),
    ("lifts.lie_bracket", "tanlift.lifts", "lie_bracket"),
    ("battery.run_identity_battery", "tanlift.battery", "run_identity_battery"),
    ("subspace.span_basis", "tanlift.subspace", "span_basis"),
    ("reportio.dumps", "tanlift.reportio", "dumps"),
    ("reportio.write_csv", "tanlift.reportio", "write_csv"),
    ("cli.main", "tanlift.cli", "main"),
)
RHS = "flows.rhs"
SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (RHS,)

# Units of the per-layer metrics, in the order they are reported.
METRIC_UNITS = {
    "tanlift.import_s": "s",
    "expressions.compile_s": "s",
    "expressions.fields_compiled": "count",
    "scenario.load_s": "s",
    "scenario.loads": "count",
    "manifold.eval_s": "s",
    "manifold.field_evals": "count",
    "manifold.jacobian_evals": "count",
    "manifold.domain_checks": "count",
    "manifold.domain_checks_per_rk4_step": "ratio",
    "flows.integrate_s": "s",
    "flows.rhs_s": "s",
    "flows.rk4_steps": "count",
    "flows.rhs_evals": "count",
    "flows.pullback_solves": "count",
    "flows.pullback_s": "s",
    "flows.pullback_solves_per_rk4_step": "ratio",
    "lifted.endpoint_closed_form_s": "s",
    "lifted.build_transport_grid_s": "s",
    "lifted.apply_LT_s": "s",
    "lifted.steer_lifted_s": "s",
    "lifted.simulate_lifted_ode_s": "s",
    "lifted.ad_criterion_s": "s",
    "lifted.fiber_controllability_report_s": "s",
    "vertical.simulate_vertical_ode_s": "s",
    "vertical.solve_vertical_closed_form_s": "s",
    "vertical.reachable_vertical_s": "s",
    "lifts.symbolic_bracket_s": "s",
    "lifts.brackets_built": "count",
    "lifts.brackets_built_per_op": "ratio",
    "lifts.numeric_bracket_s": "s",
    "lifts.numeric_brackets": "count",
    "battery.run_s": "s",
    "battery.sample_points": "count",
    "subspace.span_basis_s": "s",
    "subspace.svd_calls": "count",
    "reportio.dumps_s": "s",
    "reportio.write_csv_s": "s",
    "reportio.bytes_out": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.ops": "count",
    "trace.spans": "count",
}


def _n_steps(args, kwargs, result):
    return kwargs.get("n_steps", args[4] if len(args) > 4 else 0)


def _samples(args, kwargs, result):
    if "samples" in kwargs:
        return kwargs["samples"]
    return args[2] if len(args) > 2 else 50


def _text_length(args, kwargs, result):
    return len(result)


# Work attached to a span (RK4 steps, battery samples, characters of JSON),
# read from the call's arguments or result.  ``write_csv`` spans carry the
# characters written, read from the stream position.
_WORK = {
    "flows.integrate_fixed": _n_steps,
    "battery.run_identity_battery": _samples,
    "reportio.dumps": _text_length,
}


class Tracer:
    """Records spans while ``active``; one instance per traced run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self._stack = []
        self.name = array("h")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("d")
        self._bindings = []  # (owner, attribute, original)
        self.missing = []  # targets the library no longer has

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op)
        self.work.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = SPAN_NAMES.index(name)
        work = _WORK.get(name)
        traced_rhs = name == "flows.integrate_fixed"
        counts_stream = name == "reportio.write_csv"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if traced_rhs:
                args = (tracer._wrap(RHS, args[0]),) + args[1:]
            before = args[0].tell() if counts_stream else 0
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts_stream:
                tracer.work[idx] = float(args[0].tell() - before)
            elif work is not None:
                tracer.work[idx] = float(work(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every tanlift module attribute that binds it.

        A target the library no longer defines is listed in ``missing``
        and its metrics read 0, so a refactor cannot break the traced run.
        """
        modules = [m for key, m in sorted(sys.modules.items()) if key == "tanlift" or key.startswith("tanlift.")]
        for name, module_name, attribute in TARGETS:
            module = sys.modules.get(module_name)
            cls_name, _, member = attribute.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or member not in vars(owner):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            original = vars(owner)[member]
            wrapper = self._wrap(name, original)
            if cls_name:
                self._bindings.append((owner, member, original))
                setattr(owner, member, wrapper)
                continue
            for bound_in in modules:
                for attr, value in list(vars(bound_in).items()):
                    if value is original:
                        self._bindings.append((bound_in, attr, original))
                        setattr(bound_in, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        self.active = False
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting -------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "span_names": np.array(SPAN_NAMES),
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }


def layer_metrics(spans: dict, import_s: float, op_kinds: list, op_seconds: float) -> dict:
    """Reduce recorded spans to the per-layer metrics, as {name: value}.

    Times are sums over the traced run in seconds: inclusive of child
    spans unless named ``self``; ``*.eval_s`` and ``compile_s`` count only
    the outermost span of their layer so nesting is not counted twice.
    ``op_kinds[i]`` names the kind of op ``i`` (the CLI command on the
    ``cli`` workload) and ``op_seconds`` is the summed op wall time.
    """
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64) * 1e-9
    work = spans["work"]
    n_spans = name.size
    layer_of = np.array([s.split(".")[0] for s in SPAN_NAMES])
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n_spans)
    self_time = dur - covered
    parent_layer = np.where(has_parent, layer_of[name[np.maximum(parent, 0)]], "")
    outermost = parent_layer != layer_of[name]

    def mask(span: str):
        return name == SPAN_NAMES.index(span)

    def count(span: str) -> float:
        return float(np.count_nonzero(mask(span)))

    def total(span: str) -> float:
        return float(dur[mask(span)].sum())

    def layer_total(layer: str) -> float:
        return float(dur[(layer_of[name] == layer) & outermost].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rk4_steps = float(work[mask("flows.integrate_fixed")].sum())
    domain_checks = count("manifold.check")
    pullbacks = count("flows.pullback_vector")
    reachable_ops = [i for i, kind in enumerate(op_kinds) if kind == "reachable"]
    reachable_brackets = np.count_nonzero(
        mask("lifts.base_lie_bracket") & np.isin(spans["op"], reachable_ops)
    )
    n_ops = len(op_kinds)
    metrics = {
        "tanlift.import_s": import_s,
        "expressions.compile_s": layer_total("expressions"),
        "expressions.fields_compiled": count("expressions.field_from_symbolic")
        + count("expressions.fiber_dynamics_from_expressions"),
        "scenario.load_s": total("scenario.load_scenario"),
        "scenario.loads": count("scenario.load_scenario"),
        "manifold.eval_s": layer_total("manifold"),
        "manifold.field_evals": count("manifold.at"),
        "manifold.jacobian_evals": count("manifold.jacobian_at"),
        "manifold.domain_checks": domain_checks,
        "manifold.domain_checks_per_rk4_step": ratio(domain_checks, rk4_steps),
        "flows.integrate_s": float(self_time[mask("flows.integrate_fixed")].sum()),
        "flows.rhs_s": total(RHS),
        "flows.rk4_steps": rk4_steps,
        "flows.rhs_evals": count(RHS),
        "flows.pullback_solves": pullbacks,
        "flows.pullback_s": total("flows.pullback_vector"),
        "flows.pullback_solves_per_rk4_step": ratio(pullbacks, rk4_steps),
        "lifted.endpoint_closed_form_s": total("lifted.endpoint_closed_form"),
        "lifted.build_transport_grid_s": total("lifted.build_transport_grid"),
        "lifted.apply_LT_s": total("lifted.apply_LT"),
        "lifted.steer_lifted_s": total("lifted.steer_lifted"),
        "lifted.simulate_lifted_ode_s": total("lifted.simulate_lifted_ode"),
        "lifted.ad_criterion_s": total("lifted.ad_criterion"),
        "lifted.fiber_controllability_report_s": total("lifted.fiber_controllability_report"),
        "vertical.simulate_vertical_ode_s": total("vertical.simulate_vertical_ode"),
        "vertical.solve_vertical_closed_form_s": total("vertical.solve_vertical_closed_form"),
        "vertical.reachable_vertical_s": total("vertical.reachable_vertical"),
        "lifts.symbolic_bracket_s": total("lifts.base_lie_bracket"),
        "lifts.brackets_built": count("lifts.base_lie_bracket"),
        "lifts.brackets_built_per_op": ratio(float(reachable_brackets), float(len(reachable_ops))),
        "lifts.numeric_bracket_s": total("lifts.lie_bracket"),
        "lifts.numeric_brackets": count("lifts.lie_bracket"),
        "battery.run_s": total("battery.run_identity_battery"),
        "battery.sample_points": float(work[mask("battery.run_identity_battery")].sum()),
        "subspace.span_basis_s": total("subspace.span_basis"),
        "subspace.svd_calls": count("subspace.span_basis"),
        "reportio.dumps_s": total("reportio.dumps"),
        "reportio.write_csv_s": total("reportio.write_csv"),
        "reportio.bytes_out": float(work[mask("reportio.dumps") | mask("reportio.write_csv")].sum()),
        "cli.main_s": total("cli.main"),
        "cli.self_s": float(self_time[mask("cli.main")].sum()),
        "trace.ops_per_s": ratio(float(n_ops), op_seconds),
        "trace.ops": float(n_ops),
        "trace.spans": float(n_spans),
    }
    return metrics
