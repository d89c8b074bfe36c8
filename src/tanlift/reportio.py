"""Deterministic JSON and CSV serialization for run reports.

Floats are written with 17 significant digits so every value
round-trips exactly; object keys are emitted in sorted order so two
runs with the same inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable

import numpy as np

from .errors import NumericalError


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _serialize(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _serialize(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _serialize(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _serialize(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as JSON")


def dumps(obj) -> str:
    """Serialize to a compact, key-sorted, round-trip-exact JSON string."""
    out: list = []
    _serialize(obj, out)
    return "".join(out)


def write_csv(stream: IO[str], header: Iterable[str], rows: Iterable[Iterable[float]]) -> None:
    """Write numeric rows with the same 17-digit formatting as the JSON output.

    A row is formatted by one ``"%.17g,...\n"`` template, which gives each
    value the bytes of ``format_float``.  Only "nan" and "inf" put an "n"
    in a line: such a row is not written, and ``format_float`` raises on
    its first non-finite value.
    """
    stream.write(",".join(header) + "\n")
    templates = {}
    for row in rows:
        row = tuple(row)
        template = templates.get(len(row))
        if template is None:
            template = templates[len(row)] = ",".join(["%.17g"] * len(row)) + "\n"
        line = template % row
        if "n" in line:
            for v in row:
                format_float(v)
        stream.write(line)


def trajectory_rows(times, bases, fibers):
    """One row (t, x..., y...) of Python floats per node."""
    yield from np.column_stack([times, bases, fibers]).tolist()
