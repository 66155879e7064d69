"""Regressor-extension operators.

Each channel is a SISO linear time-varying state-space filter with an
optional feedthrough and a single delay tap:

    CT:  x' = A(t) x + b(t) u,   z = c(t).x + d(t) u(t) + mu(t) u(t - T)
    DT:  x(k+1) = A(k) x(k) + b(k) u(k),
         z(k) = c(k).x(k) + d(k) u(k) + mu(k) u(k - K)

A bank of m channels applied to the scalar output y and to every component
of the regressor phi produces the extended pair (Y, Phi) with Y = Phi theta.
Every channel and filter state starts at rest, where that identity is exact.

Continuous-time channels integrate by fixed-step RK4 with the input and any
time-varying coefficients held at the left grid point over each step
(zero-order hold). Each step is an affine map of the state; the maps are
built for the whole record at once and composed by a prefix scan
(:mod:`dremkit.integrate`). A channel runs every input column in one scan,
as state columns under the same maps, for every n; each column gets the
bits a one-column run would. A scalar-state channel is a 1x1 matrix map,
whose planar arithmetic is the elementwise arithmetic of the single-filter
path of :func:`kre_ct`, so the two agree bit for bit. Discrete-time channels
compose their exact per-step maps ``(A(k), b(k) u(k))`` with the same scan,
so they match the sample-by-sample recursion up to rounding; ``drem_dt`` in
:mod:`dremkit.estimators` stays sequential. Signals are taken to vanish
before time zero (:func:`dremkit.signals.delayed`), so delayed taps read 0
until the delay window fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrate import affine_scan, rk4_affine
from .signals import (SignalKind, TimeGrid, Trajectory, check_records, delayed,
                      require_positive, sample_values, whole_samples, whole_steps)

Coefficient = float | Sequence | np.ndarray | Callable


@dataclass(frozen=True, eq=False)
class LtvChannelSpec:
    """One SISO extension channel.

    ``A``, ``b``, ``c``, ``d`` and ``delay_gain`` may be constants or
    callables, read by :func:`dremkit.signals.sample_values`: a callable is
    called once per record, on the array of every sample's argument (times
    in seconds for CT channels, sample indices for DT ones), and returns one
    value per entry along a leading axis.
    ``delay`` is in seconds for CT channels and in whole steps for DT
    channels; a CT delay must be a whole number of grid steps.
    ``n = 0`` is a static channel: feedthrough and the delay tap, and no
    ``A``, ``b`` or ``c``. The state starts at rest. Stability of a
    time-varying ``A`` is the caller's responsibility; a constant ``A`` is
    checked at construction.
    """

    n: int = 0
    A: Coefficient | None = None
    b: Coefficient | None = None
    c: Coefficient | None = None
    d: Coefficient = 0.0
    delay_gain: Coefficient = 0.0
    delay: float = 0.0
    kind: SignalKind = "ct"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("state dimension must be nonnegative")
        if self.kind not in ("ct", "dt"):
            raise ValueError(f"kind must be 'ct' or 'dt', got {self.kind!r}")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if self.kind == "dt" and not float(self.delay).is_integer():
            raise ValueError(f"a DT delay is a whole number of steps, got {self.delay}")
        if not np.isfinite(self.delay):
            raise ValueError(f"delay must be finite, got {self.delay}")
        required = ("A", "b", "c") if self.n > 0 else ()
        for name in ("A", "b", "c"):
            if name in required and getattr(self, name) is None:
                raise ValueError(f"{name} is required for a channel with state")
            if name not in required and getattr(self, name) is not None:
                raise ValueError(f"a static channel (n = 0) has no state, so no {name}")
        sizes = {"d": 1, "delay_gain": 1, **dict(zip(required, (self.n**2, self.n, self.n)))}
        for name, size in sizes.items():
            value = getattr(self, name)
            if not callable(value) and np.size(value) != size:
                raise ValueError(
                    f"constant {name} has size {np.size(value)}, expected {size} for n = {self.n}"
                )
        if self.n == 0:
            return
        if not callable(self.A):
            eig = np.linalg.eigvals(np.asarray(self.A, dtype=float).reshape(self.n, self.n))
            if self.kind == "ct":
                if np.max(eig.real) >= 0:
                    raise ValueError(f"constant A must be Hurwitz, eigenvalues {eig}")
            elif np.max(np.abs(eig)) >= 1:
                raise ValueError(f"constant A must be Schur stable, eigenvalues {eig}")

    def has_zero_feedthrough(self) -> bool:
        return not callable(self.d) and float(np.asarray(self.d)) == 0.0


@dataclass(frozen=True, eq=False)
class OperatorBank:
    """m SISO channels, one per row of the extended regressor."""

    channels: tuple[LtvChannelSpec, ...]

    def __post_init__(self) -> None:
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("bank needs at least one channel")
        kinds = {ch.kind for ch in channels}
        if len(kinds) != 1:
            raise ValueError("all channels in a bank must share one signal kind")
        object.__setattr__(self, "channels", channels)

    @property
    def m(self) -> int:
        return len(self.channels)

    @property
    def kind(self) -> SignalKind:
        return self.channels[0].kind


@dataclass(frozen=True)
class SlidingWindowSpec:
    """Window length (in steps) for the delay-line extension."""

    window: int

    def __post_init__(self) -> None:
        window = whole_samples(self.window, "window")
        if window < 1:
            raise ValueError("window must be a positive number of steps")
        object.__setattr__(self, "window", window)


@dataclass(frozen=True, eq=False)
class KreSpec:
    """Single first-order filter 1/(p + pole) applied to phi*y and phi*phi^T,
    from rest."""

    pole: float

    def __post_init__(self) -> None:
        require_positive(self.pole, "pole")


def _delay_steps(delay: float, step: float) -> int:
    """A CT delay in grid steps; ValueError unless it is a whole number of them."""
    lag = whole_steps(delay, step)
    if lag is None:
        raise ValueError(f"delay {delay!r} is not a whole number of grid steps of {step!r} s")
    return lag


def _run_channel(spec: LtvChannelSpec, grid: TimeGrid, U: np.ndarray, index: int) -> np.ndarray:
    """Channel output for every column of ``U`` (shape ``(count, c)``).

    The coefficients are tabulated once for all columns; ``index``, the
    channel's place in its bank, names it in the error raised for a callable
    that breaks the array contract. The state advances by one affine map per
    step, composed by :func:`affine_scan`: the held-coefficient RK4 map for
    a CT channel, the exact map ``(A(k), b(k) u(k))`` for a DT one. The c
    columns are stacked as state columns ``(n, c)`` under the same maps, so
    one scan serves them all.
    """
    if spec.kind == "ct":
        args, lag = grid.times(), _delay_steps(spec.delay, grid.step)
    else:
        args, lag = np.arange(grid.count), int(spec.delay)

    def table(coef: str, shape: tuple) -> np.ndarray:
        return sample_values(getattr(spec, coef), args, shape, f"{coef} of channel {index}")

    Z = table("d", (1,)) * U + table("delay_gain", (1,)) * delayed(U, lag)
    if spec.n == 0:
        return Z

    A = table("A", (spec.n, spec.n))[:-1]
    b = table("b", (spec.n,))[:-1]
    c = table("c", (spec.n,))
    # time-innermost tables, so the step-map products and the scan run long inner loops
    A, b, U = (np.asfortranarray(v) for v in (A, b, U))
    force = b[:, :, None] * U[:-1, None, :]
    if spec.kind == "ct":
        A, force = rk4_affine(A, A, A, force, force, force, grid.step)
    X = affine_scan(A, force, 0.0)
    # summed over a contiguous (count, c, n) state, c x adds the same terms
    # in the same order, from +0, as a single column's einsum("ki,ki->k"),
    # so every column and signed zero matches a one-column run
    return Z + np.einsum("ki,kci->kc", c, np.ascontiguousarray(X.transpose(0, 2, 1)))


def extend(bank: OperatorBank, y: Trajectory, phi: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Build the extended pair Y = H[y], Phi = H[phi^T].

    Row i of Phi holds channel i applied to each component of phi, so when
    y = phi.theta holds sample-wise the output satisfies Y = Phi theta up to
    channel transients. Each channel runs once over the columns ``[y | phi]``.
    """
    grid = check_records("extend", bank.kind, y=(y, "scalar"), phi=(phi, "vector"))
    m = phi.dim
    if bank.m != m:
        raise ValueError(f"bank has {bank.m} channels but phi has dimension {m}")
    U = np.column_stack([y.values, phi.values])
    Z = np.stack([_run_channel(ch, grid, U, i) for i, ch in enumerate(bank.channels)], axis=1)
    return y.with_values(Z[:, :, 0]), y.with_values(Z[:, :, 1:])


def sliding_window_phi(
    y: Trajectory, phi: Trajectory, spec: SlidingWindowSpec
) -> tuple[Trajectory, Trajectory]:
    """Delay-line extension over the last ``window`` samples:

        Phi(k) = sum_{j=1..window} phi(k-j) phi(k-j)^T
        Y(k)   = sum_{j=1..window} phi(k-j) y(k-j)

    Samples before the start of the record count as zero. Terms are
    accumulated in ascending j so the result matches a per-sample loop
    bit for bit.
    """
    grid = check_records("sliding_window_phi", "dt", y=(y, "scalar"), phi=(phi, "vector"))
    m = phi.dim
    if spec.window < m:
        raise ValueError(f"window {spec.window} must be at least the dimension {m}")
    count = grid.count
    outer = np.einsum("ki,kj->kij", phi.values, phi.values)
    weighted = phi.values * y.values[:, None]
    Phi = np.zeros((count, m, m))
    Y = np.zeros((count, m))
    for j in range(1, spec.window + 1):
        if j >= count:
            break
        Phi[j:] += outer[:-j]
        Y[j:] += weighted[:-j]
    return Trajectory(grid, Y, "dt"), Trajectory(grid, Phi, "dt")


def kre_ct(spec: KreSpec, y: Trajectory, phi: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Single-filter extension: integrate

        Omega' = -pole*Omega + phi phi^T,   Z' = -pole*Z + phi y

    from rest by the same held-coefficient RK4 step maps used for channel
    banks, as one scan over the flattened Omega and Z entries.
    """
    grid = check_records("kre_ct", "ct", y=(y, "scalar"), phi=(phi, "vector"))
    h = grid.step
    m = phi.dim
    pole = spec.pole
    # Omega and Z share the scalar pole, so they run as one elementwise scan
    # over the m*m + m flattened columns
    P = np.einsum("ki,kj->kij", phi.values, phi.values).reshape(grid.count, m * m)
    q = phi.values * y.values[:, None]
    force = np.concatenate([P, q], axis=1)[:-1]
    states = affine_scan(*rk4_affine(-pole, -pole, -pole, force, force, force, h), 0.0)
    Omega = states[:, : m * m].reshape(grid.count, m, m)
    Z = states[:, m * m :]
    return Trajectory(grid, Z, "ct"), Trajectory(grid, Omega, "ct")


@dataclass(frozen=True, eq=False)
class _SampledColumn:
    """A sampled signal read back as a function of time: the sample nearest
    to each time (ties to even), clamped to the record."""

    column: np.ndarray
    t0: float
    step: float

    def __call__(self, times: np.ndarray) -> np.ndarray:
        k = np.rint((np.asarray(times, float) - self.t0) / self.step)
        return self.column[np.clip(k, 0, len(self.column) - 1).astype(np.intp)]


def kre_as_drem_bank(phi: Trajectory, pole: float) -> OperatorBank:
    """Channel bank whose :func:`extend` output reproduces :func:`kre_ct`:
    channel i is the first-order filter x' = -pole*x + phi_i(t)*u, z = x."""
    grid = check_records("kre_as_drem_bank", "ct", phi=(phi, "vector"))
    require_positive(pole, "pole")
    channels = tuple(
        LtvChannelSpec(
            n=1,
            A=-pole,
            b=_SampledColumn(phi.values[:, i].copy(), grid.t0, grid.step),
            c=1.0,
            kind="ct",
        )
        for i in range(phi.dim)
    )
    return OperatorBank(channels)

