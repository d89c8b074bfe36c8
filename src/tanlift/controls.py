"""Piecewise-constant control signals on a uniform grid over [0, T]."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ControlSignal:
    """A vector-valued control, constant on each of N equal subintervals.

    ``values`` has one row per segment and one column per control
    channel.  Running integrals are exact: full segments contribute
    (T/N) * value and the trailing partial segment its exact fraction.
    """

    horizon: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        _check_horizon(self.horizon)
        if vals.shape[0] < 1:
            raise ValueError("control needs at least one segment")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")

    @property
    def segments(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def segment_length(self) -> float:
        return self.horizon / self.segments

    @property
    def boundaries(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.segments + 1)

    def integral(self, t: float) -> np.ndarray:
        """Exact running integral of every channel over [0, t]."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        dt = self.segment_length
        full = int(t / dt)
        full = min(full, self.segments)
        total = self.values[:full].sum(axis=0) * dt
        if full < self.segments:
            total = total + self.values[full] * (t - full * dt)
        return total

    @classmethod
    def constant(cls, value, horizon: float, segments: int = 1) -> "ControlSignal":
        row = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(horizon=horizon, values=np.tile(row, (segments, 1)))

    @classmethod
    def zero(cls, channels: int, horizon: float, segments: int = 1) -> "ControlSignal":
        return cls(horizon=horizon, values=np.zeros((segments, channels)))

    @classmethod
    def bump(cls, horizon: float, segments: int, segment: int, channel: int, channels: int) -> "ControlSignal":
        """Unit-integral pulse occupying one segment of one channel."""
        values = np.zeros((segments, channels))
        values[segment, channel] = segments / horizon
        return cls(horizon=horizon, values=values)


def _check_horizon(horizon, what: str = "control horizon") -> None:
    if not 0 < horizon < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {horizon}")


def _check_channels(u: ControlSignal, channels: int) -> None:
    if u.channels != channels:
        raise ValueError(f"control has {u.channels} channels, system expects {channels}")


def segment_boundaries(u: Optional[ControlSignal], horizon: Optional[float], channels: int):
    """Boundaries of the segments of u, or [0, horizon] when there is no control.

    A horizon given with a control must equal the control's horizon.
    """
    if u is None:
        if horizon is None:
            raise ValueError("need a control signal or an explicit horizon")
        _check_horizon(horizon)
        return np.array([0.0, horizon])
    if horizon is not None and horizon != u.horizon:
        raise ValueError(f"horizon {horizon} differs from the control horizon {u.horizon}")
    _check_channels(u, channels)
    return u.boundaries
