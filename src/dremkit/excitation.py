"""Numerical excitation analysis.

Persistency of excitation is an asymptotic property and cannot be decided
from a finite record, so these checks report finite-horizon certificates:
``alpha_hat`` is the infimum, over every window start inside the record, of
the smallest eigenvalue of the windowed Gramian

    CT: int_t^{t+T} phi phi^T ds        DT: sum_{j=k+1}^{k+K} phi(j) phi(j)^T

and ``is_pe`` just compares it against the caller's threshold. Divergence of
the excitation energy is not decided either: :func:`counterexample_suite`
only checks that its decaying construction's mixed energy reaches
0.9 ln(horizon) at the end of the record, and that its excited forward
direction's reaches 0.9 (horizon - 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (
    cumulative_energy,
    cumulative_simpson,
    lagged_difference,
    window_steps,
)
from .signals import Trajectory, check_records, whole_samples

DEFAULT_THRESHOLD = 1e-3
DEFAULT_DT_HORIZON = 100_000


@dataclass(frozen=True, eq=False)
class PeReport:
    """Finite-horizon excitation certificate for one window size."""

    window: float | int
    threshold: float
    alpha_hat: float
    is_pe: bool
    min_eigenvalues: np.ndarray
    start_times: np.ndarray


def _smallest_eigenvalues(grams: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric Gramian: the entry itself for
    m = 1, the closed form (a + c)/2 - hypot((a - c)/2, b) for m = 2 and
    ``eigvalsh`` above that."""
    m = grams.shape[1]
    if m == 1:
        return grams[:, 0, 0].copy()
    if m == 2:
        a, b, c = grams[:, 0, 0], grams[:, 1, 0], grams[:, 1, 1]
        # halving each term first keeps a + c from overflowing
        return (0.5 * a + 0.5 * c) - np.hypot(0.5 * (a - c), b)
    return np.linalg.eigvalsh(grams)[:, 0]


def _report(name: str, window, threshold: float, grams: np.ndarray, times: np.ndarray) -> PeReport:
    """Certificate from the windowed Gramians, one per start time.

    ``phi`` is finite when this runs, so a non-finite Gramian means that an
    outer product or a window sum overflowed; ``name`` names the check in
    the ``FloatingPointError`` raised then.
    """
    if not np.isfinite(grams).all():
        raise FloatingPointError(f"{name}: phi phi^T or its window sums overflow")
    eigs = _smallest_eigenvalues(grams)
    alpha = float(eigs.min())
    return PeReport(
        window=window,
        threshold=threshold,
        alpha_hat=alpha,
        is_pe=bool(alpha > threshold),
        min_eigenvalues=eigs,
        start_times=times[: len(eigs)],
    )


def pe_check_ct(
    phi: Trajectory, window: float, threshold: float = DEFAULT_THRESHOLD
) -> PeReport:
    """Scan every admissible start of a length-``window`` Gramian (Simpson
    quadrature) and report the worst smallest eigenvalue."""
    check_records("pe_check_ct", "ct", phi=(phi, "scalar or vector"))
    vals = phi.values.reshape(phi.grid.count, -1)
    lag = window_steps(window, phi.grid.step, "window")
    if phi.grid.horizon < 2 * window:
        raise ValueError("horizon must cover at least two windows")
    with np.errstate(over="ignore", invalid="ignore"):  # _report raises on overflow
        outer = np.einsum("ki,kj->kij", vals, vals)
        grams = lagged_difference(cumulative_simpson(outer, phi.grid.step), lag)[lag:]
    return _report("pe_check_ct", window, threshold, grams, phi.times())


def _pe_scan_dt(phi: Trajectory, windows, threshold: float):
    """Yield one ``PeReport`` per distinct window, in ascending order.

    One sums buffer serves the whole sweep: S_1 = outer[1:] and
    S_K = S_{K-1}[:-1] + outer[K:], added in place, so a sweep up to Kmax
    costs O(N Kmax) and holds one window's sums at a time.
    """
    check_records("pe_check_dt", "dt", phi=(phi, "scalar or vector"))
    vals = phi.values.reshape(phi.grid.count, -1)
    n, m = vals.shape
    windows = sorted({whole_samples(w, "window") for w in windows})
    if windows and windows[0] < m:
        raise ValueError(f"window {windows[0]} must be at least the dimension {m}")
    if windows and n < windows[-1] + 1:
        raise ValueError("record too short for this window")
    with np.errstate(over="ignore"):  # _report raises on overflow
        outer = np.einsum("ki,kj->kij", vals, vals)
    times = phi.times()
    sums, filled = outer[1:].copy(), 1
    for window in windows:
        # the errstate must not span the yield, or the caller would run under it
        with np.errstate(over="ignore", invalid="ignore"):
            for K in range(filled + 1, window + 1):
                sums = sums[:-1]
                sums += outer[K:]
        filled = window
        yield _report("pe_check_dt", window, threshold, sums, times)


def pe_check_dt(
    phi: Trajectory, window: int, threshold: float = DEFAULT_THRESHOLD
) -> PeReport:
    """Exact windowed sums over every admissible start, windows
    [k+1, k+K] for starts k with the window inside the record."""
    return next(_pe_scan_dt(phi, [window], threshold))


@dataclass(frozen=True)
class CounterexampleReport:
    """Windowed-excitation scan and energy growth for the decaying regressor
    phi(k) = (k+1)^(-1/4) with a one-step extension window, plus the forward
    direction (an excited signal produces diverging mixed energy)."""

    horizon: int
    threshold: float
    alpha_by_window: dict[int, float]
    all_below_threshold: bool
    energy_final: float
    energy_bound: float
    energy_diverges: bool
    forward_alpha: float
    forward_energy_final: float
    forward_energy_linear: bool


def counterexample_suite(
    horizon: int = DEFAULT_DT_HORIZON,
    max_window: int = 100,
    threshold: float = DEFAULT_THRESHOLD,
) -> CounterexampleReport:
    """Build the decaying-regressor construction and measure both directions.

    The regressor phi(k) = (k+1)^(-1/4) tends to zero, so its windowed sums
    decay toward zero while the mixed signal Delta(k) = phi(k-1)^2 has
    energy sum ~ ln(horizon). The forward direction uses alternating basis
    vectors, which are excited at window 2 and give linearly growing energy.
    """
    from .mixing import mix
    from .operators import SlidingWindowSpec, sliding_window_phi
    from .signals import TimeGrid

    if max_window < 1:
        raise ValueError(f"max_window must be at least 1, got {max_window}")
    # the widest scanned window and the forward direction's window of 2 each
    # need one start inside the record
    shortest = max(max_window, 2) + 1
    if horizon < shortest:
        raise ValueError(
            f"horizon must be at least {shortest} for max_window {max_window}, got {horizon}"
        )
    grid = TimeGrid(t0=0.0, step=1.0, count=horizon)
    k = np.arange(horizon)
    phi_vals = (k + 1.0) ** -0.25
    phi = Trajectory(grid, phi_vals[:, None], "dt")
    y = Trajectory(grid, np.zeros(horizon), "dt")
    Y, Phi = sliding_window_phi(y, phi, SlidingWindowSpec(window=1))
    mixed = mix(Y, Phi)

    alpha_by_window = {
        report.window: report.alpha_hat
        for report in _pe_scan_dt(phi, range(1, max_window + 1), threshold)
    }
    all_below = all(a < threshold for a in alpha_by_window.values())

    energy = cumulative_energy(mixed.Delta)
    energy_final = float(energy.values[-1])
    energy_bound = 0.9 * float(np.log(horizon))
    energy_diverges = energy_final >= energy_bound

    # forward direction: alternating basis vectors, window 2
    fwd_vals = np.zeros((horizon, 2))
    fwd_vals[0::2, 0] = 1.0
    fwd_vals[1::2, 1] = 1.0
    fwd = Trajectory(grid, fwd_vals, "dt")
    fy = Trajectory(grid, np.zeros(horizon), "dt")
    fY, fPhi = sliding_window_phi(fy, fwd, SlidingWindowSpec(window=2))
    fmixed = mix(fY, fPhi)
    fwd_alpha = pe_check_dt(fwd, 2, threshold).alpha_hat
    fwd_energy = cumulative_energy(fmixed.Delta)
    fwd_final = float(fwd_energy.values[-1])
    # Delta = 1 once the window fills, so the sum grows like the horizon
    fwd_linear = fwd_final >= 0.9 * (horizon - 2)

    return CounterexampleReport(
        horizon=horizon,
        threshold=threshold,
        alpha_by_window=alpha_by_window,
        all_below_threshold=all_below,
        energy_final=energy_final,
        energy_bound=energy_bound,
        energy_diverges=energy_diverges,
        forward_alpha=float(fwd_alpha),
        forward_energy_final=fwd_final,
        forward_energy_linear=bool(fwd_linear),
    )
