"""Regressor-extension operators.

Each channel is a SISO linear time-varying state-space filter with an
optional feedthrough and a single delay tap:

    CT:  x' = A(t) x + b(t) u,   z = c(t).x + d(t) u(t) + mu(t) u(t - T)
    DT:  x(k+1) = A(k) x(k) + b(k) u(k),
         z(k) = c(k).x(k) + d(k) u(k) + mu(k) u(k - K)

A bank of m channels applied to the scalar output y and to every component
of the regressor phi produces the extended pair (Y, Phi) with Y = Phi theta
(exact for zero initial conditions, up to transients otherwise).

Continuous-time channels integrate by fixed-step RK4 with the input and any
time-varying coefficients held at the left grid point over each step
(zero-order hold). Each step is an affine map of the state; the maps are
built for the whole record at once and composed by a prefix scan
(:mod:`dremkit.integrate`). A scalar-state channel and the single-filter
path of :func:`kre_ct` go through the same elementwise maps, so the two
agree bit for bit. Discrete-time channels run the exact state recursion
sample by sample. Signals are taken to vanish before time zero, so delayed
taps read 0 until the delay window fills.

Coefficients are tabulated once per record. A callable coefficient that
offers an ``evaluate`` method (the named signals of
:mod:`dremkit.scenarios`, the sampled columns of :func:`kre_as_drem_bank`)
is evaluated on the whole time (or index) array at once; any other
callable is called once per sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrate import affine_scan, rk4_affine
from .signals import SignalKind, TimeGrid, Trajectory, values_at

Coefficient = float | Sequence | np.ndarray | Callable


def _coefficient_table(value: Coefficient, args: np.ndarray, shape: tuple) -> np.ndarray:
    """Evaluate a constant or callable coefficient at every sample argument.

    CT coefficients are functions of time in seconds, DT coefficients are
    functions of the sample index (see :func:`~dremkit.signals.values_at`).
    """
    n = len(args)
    if callable(value):
        return values_at(value, args).reshape((n,) + shape)
    const = np.asarray(value, dtype=float).reshape(shape)
    return np.broadcast_to(const, (n,) + shape).copy()


@dataclass(frozen=True, eq=False)
class LtvChannelSpec:
    """One SISO extension channel.

    ``A``, ``b``, ``c``, ``d`` and ``delay_gain`` may be constants or
    callables (of time for CT channels, of the sample index for DT ones).
    ``delay`` is in seconds for CT channels and in steps for DT channels.
    Stability of a time-varying ``A`` is the caller's responsibility; a
    constant ``A`` is checked at construction.
    """

    n: int
    A: Coefficient | None = None
    b: Coefficient | None = None
    c: Coefficient | None = None
    d: Coefficient = 0.0
    delay_gain: Coefficient = 0.0
    delay: float = 0.0
    x0: np.ndarray | None = None
    kind: SignalKind = "ct"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("state dimension must be nonnegative")
        if self.kind not in ("ct", "dt"):
            raise ValueError(f"kind must be 'ct' or 'dt', got {self.kind!r}")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if self.n > 0:
            for name in ("A", "b", "c"):
                if getattr(self, name) is None:
                    raise ValueError(f"{name} is required for a channel with state")
            if not callable(self.A):
                A = np.asarray(self.A, dtype=float).reshape(self.n, self.n)
                eig = np.linalg.eigvals(A)
                if self.kind == "ct":
                    if np.max(eig.real) >= 0:
                        raise ValueError(
                            f"constant A must be Hurwitz, eigenvalues {eig}"
                        )
                elif np.max(np.abs(eig)) >= 1:
                    raise ValueError(
                        f"constant A must be Schur stable, eigenvalues {eig}"
                    )
            x0 = np.zeros(self.n) if self.x0 is None else np.asarray(self.x0, float)
            if x0.shape != (self.n,):
                raise ValueError(f"x0 must have shape ({self.n},)")
            object.__setattr__(self, "x0", x0.copy())

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
        if self.window < 1:
            raise ValueError("window must be a positive number of steps")


@dataclass(frozen=True, eq=False)
class KreSpec:
    """Single first-order filter 1/(p + pole) applied to phi*y and phi*phi^T."""

    pole: float
    omega0: np.ndarray | None = None
    z0: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.pole > 0:
            raise ValueError("pole must be positive")


def _delay_steps(delay: float, step: float) -> int:
    """Round a CT delay to grid steps, warning when the request was off-grid."""
    lag = int(round(delay / step))
    if abs(delay - lag * step) > 1e-9 * max(step, abs(delay), 1e-300):
        warnings.warn(
            f"delay {delay} rounded to {lag} grid steps ({lag * step})",
            stacklevel=3,
        )
    return max(lag, 0)


def _delayed_input(u: np.ndarray, lag: int) -> np.ndarray:
    out = np.zeros_like(u)
    if lag == 0:
        out[:] = u
    elif lag < len(u):
        out[lag:] = u[:-lag]
    return out


def apply_channel_ct(spec: LtvChannelSpec, u: Trajectory) -> Trajectory:
    """Run one channel over a sampled CT input, returning z on the same grid."""
    if spec.kind != "ct":
        raise ValueError("channel is not a CT channel")
    if u.kind != "ct" or not u.is_scalar:
        raise ValueError("input must be a scalar CT trajectory")
    grid = u.grid
    h = grid.step
    times = grid.times()
    uv = u.values
    lag = _delay_steps(spec.delay, h)
    u_del = _delayed_input(uv, lag)

    d_tab = _coefficient_table(spec.d, times, ())
    mu_tab = _coefficient_table(spec.delay_gain, times, ())
    z = d_tab * uv + mu_tab * u_del
    if spec.n == 0:
        return Trajectory(grid, z, "ct")

    A_tab = _coefficient_table(spec.A, times, (spec.n, spec.n))
    b_tab = _coefficient_table(spec.b, times, (spec.n,))
    c_tab = _coefficient_table(spec.c, times, (spec.n,))

    if spec.n == 1:
        # scalar state: elementwise maps, the same arithmetic as kre_ct
        A, force, x0 = A_tab[:-1, 0, 0], b_tab[:-1, 0] * uv[:-1], spec.x0[0]
    else:
        A, force, x0 = A_tab[:-1], b_tab[:-1] * uv[:-1, None], spec.x0
    xs = affine_scan(*rk4_affine(A, A, A, force, force, force, h), x0)
    z = z + np.einsum("ki,ki->k", c_tab, xs.reshape(grid.count, spec.n))
    return Trajectory(grid, z, "ct")


def apply_channel_dt(spec: LtvChannelSpec, u: Trajectory) -> Trajectory:
    """Run one channel over a DT input by the exact state recursion."""
    if spec.kind != "dt":
        raise ValueError("channel is not a DT channel")
    if u.kind != "dt" or not u.is_scalar:
        raise ValueError("input must be a scalar DT trajectory")
    grid = u.grid
    ks = np.arange(grid.count)
    uv = u.values
    lag = int(round(spec.delay))
    u_del = _delayed_input(uv, lag)

    d_tab = _coefficient_table(spec.d, ks, ())
    mu_tab = _coefficient_table(spec.delay_gain, ks, ())
    z = d_tab * uv + mu_tab * u_del
    if spec.n == 0:
        return Trajectory(grid, z, "dt")

    A_tab = _coefficient_table(spec.A, ks, (spec.n, spec.n))
    b_tab = _coefficient_table(spec.b, ks, (spec.n,))
    c_tab = _coefficient_table(spec.c, ks, (spec.n,))

    x = spec.x0.copy()
    xs = np.empty((grid.count, spec.n))
    xs[0] = x
    for k in range(grid.count - 1):
        x = A_tab[k] @ x + b_tab[k] * uv[k]
        xs[k + 1] = x
    z = z + np.einsum("ki,ki->k", c_tab, xs)
    return Trajectory(grid, z, "dt")


def _apply(spec: LtvChannelSpec, u: Trajectory) -> Trajectory:
    return apply_channel_ct(spec, u) if spec.kind == "ct" else apply_channel_dt(spec, u)


def extend(bank: OperatorBank, y: Trajectory, phi: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Build the extended pair Y = H[y], Phi = H[phi^T].

    Row i of Phi holds channel i applied to each component of phi, so when
    y = phi.theta holds sample-wise the output satisfies Y = Phi theta up to
    channel transients.
    """
    if not y.is_scalar or not phi.is_vector:
        raise ValueError("extend expects scalar y and vector phi")
    if y.grid != phi.grid or y.kind != phi.kind:
        raise ValueError("y and phi must share one grid and kind")
    if bank.kind != y.kind:
        raise ValueError("bank kind does not match the signals")
    m = phi.dim
    if bank.m != m:
        raise ValueError(f"bank has {bank.m} channels but phi has dimension {m}")
    count = y.grid.count
    Y = np.empty((count, m))
    Phi = np.empty((count, m, m))
    for i, ch in enumerate(bank.channels):
        Y[:, i] = _apply(ch, y).values
        for j in range(m):
            comp = Trajectory(phi.grid, phi.values[:, j], phi.kind)
            Phi[:, i, j] = _apply(ch, comp).values
    return Trajectory(y.grid, Y, y.kind), Trajectory(y.grid, Phi, y.kind)


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
    if not y.is_scalar or not phi.is_vector:
        raise ValueError("sliding_window_phi expects scalar y and vector phi")
    if y.grid != phi.grid or y.kind != phi.kind or y.kind != "dt":
        raise ValueError("signals must be DT and share one grid")
    m = phi.dim
    if spec.window < m:
        raise ValueError(f"window {spec.window} must be at least the dimension {m}")
    count = y.grid.count
    outer = np.einsum("ki,kj->kij", phi.values, phi.values)
    weighted = phi.values * y.values[:, None]
    Phi = np.zeros((count, m, m))
    Y = np.zeros((count, m))
    for j in range(1, spec.window + 1):
        if j >= count:
            break
        Phi[j:] += outer[:-j]
        Y[j:] += weighted[:-j]
    return Trajectory(y.grid, Y, "dt"), Trajectory(y.grid, Phi, "dt")


def kre_ct(spec: KreSpec, y: Trajectory, phi: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Single-filter extension: integrate

        Omega' = -pole*Omega + phi phi^T,   Z' = -pole*Z + phi y

    by the same held-coefficient RK4 step maps used for channel banks, as
    one scan over the flattened Omega and Z entries.
    """
    if not y.is_scalar or not phi.is_vector:
        raise ValueError("kre_ct expects scalar y and vector phi")
    if y.grid != phi.grid or y.kind != "ct" or phi.kind != "ct":
        raise ValueError("signals must be CT and share one grid")
    grid = y.grid
    h = grid.step
    m = phi.dim
    pole = spec.pole
    omega = np.zeros((m, m)) if spec.omega0 is None else np.asarray(spec.omega0, float)
    zvec = np.zeros(m) if spec.z0 is None else np.asarray(spec.z0, float)
    if omega.shape != (m, m) or zvec.shape != (m,):
        raise ValueError("initial conditions have the wrong shape")

    # Omega and Z share the scalar pole, so they run as one elementwise scan
    # over the m*m + m flattened columns
    P = np.einsum("ki,kj->kij", phi.values, phi.values).reshape(grid.count, m * m)
    q = phi.values * y.values[:, None]
    force = np.concatenate([P, q], axis=1)[:-1]
    x0 = np.concatenate([omega.ravel(), zvec])
    states = affine_scan(*rk4_affine(-pole, -pole, -pole, force, force, force, h), x0)
    Omega = states[:, : m * m].reshape(grid.count, m, m)
    Z = states[:, m * m :]
    return Trajectory(grid, Z, "ct"), Trajectory(grid, Omega, "ct")


@dataclass(frozen=True, eq=False)
class _SampledColumn:
    """A sampled signal read back as a function of time: the sample nearest
    to t (ties to even), clamped to the record. Call it at one time, or at
    an array of times with :meth:`evaluate`."""

    column: np.ndarray
    t0: float
    step: float

    def __call__(self, t: float) -> float:
        k = int(round((t - self.t0) / self.step))
        return float(self.column[min(max(k, 0), len(self.column) - 1)])

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        k = np.rint((np.asarray(times, float) - self.t0) / self.step)
        return self.column[np.clip(k, 0, len(self.column) - 1).astype(np.intp)]


def kre_as_drem_bank(phi: Trajectory, pole: float) -> OperatorBank:
    """Channel bank whose :func:`extend` output reproduces :func:`kre_ct`:
    channel i is the first-order filter x' = -pole*x + phi_i(t)*u, z = x."""
    if not phi.is_vector or phi.kind != "ct":
        raise ValueError("kre_as_drem_bank expects a CT vector phi")
    if not pole > 0:
        raise ValueError("pole must be positive")
    grid = phi.grid
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


def channel_gain_bound(spec: LtvChannelSpec, grid: TimeGrid) -> float:
    """l1 norm of the channel's realized impulse response over the horizon.

    A constant-coefficient channel acts on grid samples as a convolution with
    this kernel, so the value bounds |z| for any input with |u| <= 1 run over
    the same grid.
    """
    pulse = np.zeros(grid.count)
    pulse[0] = 1.0
    u = Trajectory(grid, pulse, spec.kind)
    response = _apply(spec, u).values
    return float(np.sum(np.abs(response)))
