"""Uniform-grid signal containers shared by the sampled continuous-time and
discrete-time code paths.

A :class:`Trajectory` stores one sample per grid point; samples are scalars,
m-vectors, or m-by-m matrices. Trajectories are immutable after construction
and safe to share across concurrent readers.
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
        return cls(t0=t0, step=step, count=int(round(horizon / step)) + 1)

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
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == 3

    @property
    def dim(self) -> int:
        """Component dimension m (1 for scalar signals)."""
        return 1 if self.is_scalar else self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.grid.times()

    def with_values(self, values: np.ndarray) -> "Trajectory":
        return Trajectory(self.grid, values, self.kind)
