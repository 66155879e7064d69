"""Uniform-grid signal containers shared by the sampled continuous-time and
discrete-time code paths.

A :class:`Trajectory` stores one sample per grid point; samples are scalars,
m-vectors, or m-by-m matrices. Trajectories are immutable after construction
and safe to share across concurrent readers.

Every stage takes its records under one contract, checked by
:func:`check_records`: each record has the shape class the stage names
(scalar, vector or matrix), all share one kind (CT or DT, the one the stage
needs when it is CT-only or DT-only) and one grid. A violation raises
``ValueError`` naming the stage and the record.

Every function of time, a channel coefficient or a plant input, is read by
one evaluator, :func:`sample_values`: a constant is broadcast to every
sample, and a callable is called once on the whole array of sample
arguments (times in seconds, or DT sample indices) and must return one
value per argument along a leading axis, or a ``ValueError`` names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

SignalKind = Literal["ct", "dt"]

# Sampling times used when none is given. The discrete-time theory is stated
# per step, so the DT step only fixes the time axis.
DEFAULT_DT_STEP = 0.01
DEFAULT_CT_STEP = 1e-3


def require_positive(value, name: str) -> None:
    """Raise ValueError unless every entry of ``value`` is finite and > 0."""
    values = np.asarray(value, dtype=float)
    if not (np.isfinite(values).all() and (values > 0).all()):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def whole_steps(value: float, step: float) -> int | None:
    """``value / step`` when ``value`` is a whole number of steps of ``step``,
    to within ``1e-9 * max(step, |value|)``; None otherwise."""
    ratio = value / step
    if not np.isfinite(ratio):
        return None
    steps = int(round(ratio))
    return steps if abs(value - steps * step) <= 1e-9 * max(step, abs(value)) else None


def sample_values(value, args: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """A constant (a number or an array of ``shape``) or a function of time
    at every sample argument, as an array of shape ``(len(args),) + shape``.
    A callable is called once, on the whole array ``args``; ``name`` names
    it in the ValueError raised when it does not return one value per
    sample argument."""
    n = len(args)
    if not callable(value):
        return np.broadcast_to(np.asarray(value, dtype=float).reshape(shape), (n,) + shape).copy()
    values = np.asarray(value(args), dtype=float)
    if values.shape[:1] != (n,) or values.size != n * np.prod(shape):
        raise ValueError(
            f"{name} must return one value per sample argument, an array of shape"
            f" {(n,) + shape}; got shape {values.shape}"
        )
    return values.reshape((n,) + shape)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: times ``t0 + k*step`` for ``k = 0..count-1``."""

    t0: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.count < 1:
            raise ValueError(f"grid count must be >= 1, got {self.count}")

    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.count)

    @property
    def horizon(self) -> float:
        """Length of the covered interval in seconds (0 for a single sample)."""
        return self.step * (self.count - 1)

    @classmethod
    def from_horizon(cls, horizon: float, step: float, t0: float = 0.0) -> "TimeGrid":
        steps = whole_steps(horizon, step)
        if steps is None:
            raise ValueError(f"horizon {horizon!r} is not a whole number of steps of {step!r} s")
        return cls(t0=t0, step=step, count=steps + 1)

    def index_of(self, t: float) -> int:
        """Nearest grid index for time ``t`` (clipped to the grid)."""
        return int(np.clip(round((t - self.t0) / self.step), 0, self.count - 1))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled signal on a :class:`TimeGrid`.

    ``values`` has shape ``(count,)`` for scalar signals, ``(count, m)`` for
    vector signals and ``(count, m, m)`` for matrix signals. The array is
    frozen read-only on construction.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: SignalKind = "ct"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2, 3):
            raise ValueError(f"values must have 1, 2 or 3 axes, got {vals.ndim}")
        if vals.shape[0] != self.grid.count:
            raise ValueError(
                f"sample count {vals.shape[0]} does not match grid count {self.grid.count}"
            )
        if vals.ndim == 3 and vals.shape[1] != vals.shape[2]:
            raise ValueError(f"matrix samples must be square, got {vals.shape[1:]}")
        if self.kind not in ("ct", "dt"):
            raise ValueError(f"kind must be 'ct' or 'dt', got {self.kind!r}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def is_scalar(self) -> bool:
        return self.values.ndim == 1

    @property
    def dim(self) -> int:
        """Component dimension m (1 for scalar signals)."""
        return 1 if self.is_scalar else self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.grid.times()

    def with_values(self, values: np.ndarray) -> "Trajectory":
        return Trajectory(self.grid, values, self.kind)


def check_records(name: str, kind: SignalKind | None = None, **records) -> TimeGrid:
    """Check the record contract of stage ``name`` and return the shared grid.

    ``records`` maps each record's label to ``(trajectory, shapes)``, where
    ``shapes`` is the shape class it needs ("scalar", "vector" or "matrix",
    or two joined by " or "). Every record must have one of its shape
    classes, the kind ``kind`` (or, when it is None, the first record's kind)
    and the first record's grid; otherwise ValueError names ``name`` and the
    record.
    """
    grid = None
    for label, (record, shapes) in records.items():
        shape = ("scalar", "vector", "matrix")[record.values.ndim - 1]
        if shape not in shapes.split(" or "):
            raise ValueError(f"{name}: {label} is a {shape} record, not {shapes}")
        kind, grid = kind or record.kind, grid or record.grid
        if record.kind != kind:
            raise ValueError(f"{name}: {label} is a {record.kind} record, not {kind}")
        if record.grid != grid:
            raise ValueError(f"{name}: {label} lies on {record.grid}, not on {grid}")
    return grid
