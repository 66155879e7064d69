"""Uniform-grid signal containers shared by the sampled continuous-time and
discrete-time code paths, plus elementary generators.

A :class:`Trajectory` stores one sample per grid point; samples are scalars,
m-vectors, or m-by-m matrices. Trajectories are immutable after construction
and safe to share across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

SignalKind = Literal["ct", "dt"]

# Sampling time used by discrete-time helpers when none is given. The
# discrete-time theory is stated per step, so this only fixes the time axis.
DEFAULT_DT_STEP = 0.01


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

    def _check_compatible(self, other: "Trajectory") -> None:
        if self.grid != other.grid or self.kind != other.kind:
            raise ValueError("trajectories live on different grids")
        if self.values.shape != other.values.shape:
            raise ValueError(
                f"shape mismatch {self.values.shape} vs {other.values.shape}"
            )

    def __add__(self, other: "Trajectory") -> "Trajectory":
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar: float) -> "Trajectory":
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__


def values_at(fn: Callable, args: np.ndarray) -> np.ndarray:
    """``fn`` at every entry of ``args``, stacked along a leading axis.

    A callable with an ``evaluate`` method (the named signals of
    :mod:`dremkit.scenarios`, the sampled columns of
    :func:`dremkit.operators.kre_as_drem_bank`) is evaluated on the whole
    array in one call; any other callable is called once per entry.
    """
    if hasattr(fn, "evaluate"):
        return np.asarray(fn.evaluate(args), dtype=float)
    return np.array([fn(a) for a in args], dtype=float)


def sample_function(
    grid: TimeGrid, fn: Callable[[float], float | np.ndarray], kind: SignalKind = "ct"
) -> Trajectory:
    """Sample ``fn`` at every grid time. ``fn`` may return scalars or arrays."""
    return Trajectory(grid, values_at(fn, grid.times()), kind)


def pointwise_outer(phi: Trajectory) -> Trajectory:
    """Per-sample outer product, turning an m-vector signal into an m-by-m one."""
    if not phi.is_vector:
        raise ValueError("pointwise_outer expects a vector trajectory")
    vals = np.einsum("ki,kj->kij", phi.values, phi.values)
    return phi.with_values(vals)


def eval_lre(theta: np.ndarray, phi: np.ndarray) -> float:
    """Scalar regression output ``phi . theta`` for one sample."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.shape != phi.shape or theta.ndim != 1:
        raise ValueError(
            f"theta and phi must be vectors of equal length, got {theta.shape} and {phi.shape}"
        )
    return float(phi @ theta)


@dataclass(frozen=True, eq=False)
class SchedulePiece:
    """One segment of a piecewise parameter profile, active from ``start`` on.

    ``slope`` is a per-second drift vector; ``None`` means the piece holds
    ``value`` constant.
    """

    start: float
    value: np.ndarray
    slope: np.ndarray | None = None

    def __post_init__(self) -> None:
        value = np.atleast_1d(np.asarray(self.value, dtype=float))
        object.__setattr__(self, "value", value)
        if self.slope is not None:
            slope = np.atleast_1d(np.asarray(self.slope, dtype=float))
            if slope.shape != value.shape:
                raise ValueError("slope and value must have the same shape")
            object.__setattr__(self, "slope", slope)


@dataclass(frozen=True, eq=False)
class ThetaSchedule:
    """Piecewise-constant / piecewise-ramp parameter profile.

    Evaluation is right-continuous: at a piece boundary the new piece's value
    is used.
    """

    pieces: tuple[SchedulePiece, ...]

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("schedule needs at least one piece")
        starts = [p.start for p in pieces]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("piece start times must be strictly increasing")
        dims = {p.value.shape for p in pieces}
        if len(dims) != 1:
            raise ValueError("all pieces must share one parameter dimension")
        object.__setattr__(self, "pieces", pieces)

    @property
    def dim(self) -> int:
        return self.pieces[0].value.shape[0]

    def value_at(self, t: float) -> np.ndarray:
        return self._values(np.array([t], dtype=float))[0]

    def _values(self, times: np.ndarray) -> np.ndarray:
        """The profile at every entry of ``times``, one m-vector per row.

        Each piece fills the samples it covers with ``value + slope*(t -
        start)`` in one array expression; samples before the first start
        take the first piece.
        """
        starts = np.array([p.start for p in self.pieces])
        idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, None)
        out = np.empty((len(times), self.dim))
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if piece.slope is None:
                out[mask] = piece.value
            else:
                out[mask] = piece.value + piece.slope * (times[mask, None] - piece.start)
        return out


def sample_schedule(
    sched: ThetaSchedule, grid: TimeGrid, kind: SignalKind = "ct"
) -> Trajectory:
    """Sample a parameter schedule on a grid, one m-vector per grid time."""
    return Trajectory(grid, sched._values(grid.times()), kind)
