"""Scenario documents: JSON descriptions of fields, systems, and run inputs.

A scenario names a built-in chart, defines vector fields through
coefficient expressions, and optionally configures a vertical system
block, a lifted system block, and parameters for the identity battery
and the bump-convergence study.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .controls import ControlSignal
from .errors import ExpressionError, ScenarioError
from .expressions import fiber_dynamics_from_expressions, field_from_expressions
from .lifted import LiftedSystem
from .manifold import ChartManifold, TangentPoint, builtin_manifold
from .vertical import GeneralVerticalSystem, VerticalAffineSystem

SCHEMA = "tanlift-scenario-v1"


@dataclass(frozen=True)
class BumpStudy:
    """Parameters for the bump-control convergence study."""

    t0_fraction: float = 0.5
    epsilon_fractions: tuple = (0.125, 0.0625, 0.03125)
    channel: int = 0


@dataclass(frozen=True)
class VerticalBlock:
    system: object
    initial: TangentPoint
    horizon: float
    control: Optional[ControlSignal]

    @property
    def is_affine(self) -> bool:
        return isinstance(self.system, VerticalAffineSystem)


@dataclass(frozen=True)
class LiftedBlock:
    system: LiftedSystem
    initial: TangentPoint
    horizon: float
    control: Optional[ControlSignal]
    grid: Optional[int] = None
    k_max: Optional[int] = None
    bump: BumpStudy = field(default_factory=BumpStudy)


@dataclass(frozen=True)
class Scenario:
    name: str
    manifold: ChartManifold
    fields: dict
    vertical: Optional[VerticalBlock]
    lifted: Optional[LiftedBlock]
    lift_check_fields: tuple
    lift_check_samples: int


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _object(raw, key: str) -> dict:
    """The JSON object read from the scenario key ``key``."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{key} must be a JSON object, got {raw!r}")
    return raw


def _initial_point(manifold: ChartManifold, block: dict, context: str) -> TangentPoint:
    spec = _object(_require(block, "initial", context), f"{context}.initial")
    base = _require(spec, "base", f"{context}.initial")
    fiber = _require(spec, "fiber", f"{context}.initial")
    try:
        return manifold.tangent_point(base, fiber)
    except Exception as err:
        raise ScenarioError(f"{context}.initial: {err}") from err


def _horizon(block: dict, context: str) -> float:
    raw = _require(block, "horizon", context)
    try:
        horizon = float(raw)
    except (TypeError, ValueError):
        horizon = math.nan
    if not 0 < horizon < math.inf:
        raise ScenarioError(f"{context}: horizon must be a finite positive number, got {raw!r}")
    return horizon


def _control(block: dict, horizon: float, channels: int, context: str) -> Optional[ControlSignal]:
    values = block.get("control_values")
    if values is None:
        return None
    try:
        arr = np.atleast_2d(np.asarray(values, dtype=float))
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"{context}: control_values must be rows of numbers: {err}") from err
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{context}: control_values must be rows of finite numbers")
    if arr.shape[1] != channels:
        raise ScenarioError(
            f"{context}: control rows have {arr.shape[1]} entries, system has {channels} controls"
        )
    return ControlSignal(horizon=horizon, values=arr)


def _number(raw, key: str, requirement: str, accept, integer: bool = False):
    """A JSON number (an integer if ``integer``) that ``accept`` passes.

    ``key`` names the scenario key in the ScenarioError raised otherwise.
    """
    kinds = int if integer else (int, float)
    if isinstance(raw, bool) or not isinstance(raw, kinds) or not accept(raw):
        raise ScenarioError(f"{key} must be {requirement}, got {raw!r}")
    return raw if integer else float(raw)


def _named_fields(fields: dict, names, context: str, key: str) -> list:
    """The fields named by the list ``names``, read from the scenario key ``key``."""
    if not isinstance(names, (list, tuple)):
        raise ScenarioError(f"{context}.{key} must be a list of field names, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in fields:
            raise ScenarioError(f"{context}: field {name!r} is not defined")
    return [fields[name] for name in names]


def load_scenario(source) -> Scenario:
    """Parse a scenario from a path, JSON string, or already-loaded dict."""
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        if not path.exists():
            raise ScenarioError(f"scenario file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ScenarioError(f"scenario is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(
            f"unsupported scenario schema {doc.get('schema')!r}; expected {SCHEMA!r}"
        )
    name = doc.get("name", "unnamed")
    try:
        manifold = builtin_manifold(_require(doc, "manifold", "scenario"))
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    specs = doc.get("fields", {})
    if not isinstance(specs, dict):
        raise ScenarioError(f"fields must map names to lists of expressions, got {specs!r}")
    fields = {}
    for fname, exprs in specs.items():
        if not isinstance(exprs, (list, tuple)) or not all(isinstance(e, str) for e in exprs):
            raise ScenarioError(f"field {fname!r}: coefficients must be a list of strings, got {exprs!r}")
        try:
            fields[fname] = field_from_expressions(manifold, exprs, name=fname)
        except ExpressionError as err:
            raise ScenarioError(f"field {fname!r}: {err}") from err
        except ValueError as err:
            raise ScenarioError(f"field {fname!r}: {err}") from err

    vertical = None
    if "vertical_system" in doc:
        context = "vertical_system"
        block = _object(doc[context], context)
        horizon = _horizon(block, context)
        initial = _initial_point(manifold, block, context)
        if "fiber_dynamics" in block:
            control_dim = block.get("control_dim", 0)
            _number(control_dim, f"{context}.control_dim", "an integer >= 0", lambda v: v >= 0, True)
            try:
                dynamics = fiber_dynamics_from_expressions(
                    manifold, block["fiber_dynamics"], control_dim
                )
            except ExpressionError as err:
                raise ScenarioError(f"{context}.fiber_dynamics: {err}") from err
            system = GeneralVerticalSystem(
                manifold=manifold, dynamics=dynamics, control_dim=control_dim
            )
            control = _control(block, horizon, control_dim, context) if control_dim else None
        else:
            drift = _named_fields(fields, [_require(block, "drift", context)], context, "drift")[0]
            names = _require(block, "controls", context)
            controls = _named_fields(fields, names, context, "controls")
            system = VerticalAffineSystem(manifold=manifold, drift=drift, controls=tuple(controls))
            control = _control(block, horizon, len(controls), context)
        vertical = VerticalBlock(system=system, initial=initial, horizon=horizon, control=control)

    lifted = None
    if "lifted_system" in doc:
        context = "lifted_system"
        block = _object(doc[context], context)
        horizon = _horizon(block, context)
        initial = _initial_point(manifold, block, context)
        drift = _named_fields(fields, [_require(block, "drift", context)], context, "drift")[0]
        names = _require(block, "controls", context)
        controls = _named_fields(fields, names, context, "controls")
        system = LiftedSystem(manifold=manifold, drift=drift, controls=tuple(controls))
        control = _control(block, horizon, len(controls), context)
        where = f"{context}.bump"
        spec = _object(block.get("bump", {}), where)
        t0 = spec.get("t0_fraction", 0.5)
        fractions = spec.get("epsilon_fractions", [0.125, 0.0625, 0.03125])
        channel = spec.get("channel", 0)
        if not isinstance(fractions, (list, tuple)) or not fractions:
            raise ScenarioError(f"{where}.epsilon_fractions must be a non-empty list, got {fractions!r}")
        bump = BumpStudy(
            t0_fraction=_number(t0, f"{where}.t0_fraction", "a number in [0, 1)", lambda v: 0 <= v < 1),
            epsilon_fractions=tuple(
                _number(e, f"{where}.epsilon_fractions[{i}]", "a number in (0, 1]", lambda v: 0 < v <= 1)
                for i, e in enumerate(fractions)
            ),
            channel=_number(channel, f"{where}.channel", "an integer >= 0", lambda v: v >= 0, True),
        )
        grid, k_max = block.get("grid"), block.get("k_max")
        if grid is not None:
            _number(grid, f"{context}.grid", "an integer >= 2", lambda v: v >= 2, True)
        if k_max is not None:
            _number(k_max, f"{context}.k_max", "an integer >= 0", lambda v: v >= 0, True)
        lifted = LiftedBlock(
            system=system,
            initial=initial,
            horizon=horizon,
            control=control,
            grid=grid,
            k_max=k_max,
            bump=bump,
        )

    check_spec = _object(doc.get("lift_check", {}), "lift_check")
    check_fields = check_spec.get("fields", sorted(fields))
    _named_fields(fields, check_fields, "lift_check", "fields")
    samples = check_spec.get("samples", 50)
    _number(samples, "lift_check.samples", "an integer >= 1", lambda v: v >= 1, True)

    return Scenario(
        name=name,
        manifold=manifold,
        fields=fields,
        vertical=vertical,
        lifted=lifted,
        lift_check_fields=tuple(check_fields),
        lift_check_samples=samples,
    )
