"""Fixed-grid quadrature helpers.

``cumulative_energy`` is the only integral of Delta^2: the error envelopes,
the finite-time weights and activation times and the excitation-energy
checks all read it, so quotient identities between them hold to rounding
error, and its overflow check is theirs. Its CT rule,
``cumulative_simpson``, also integrates the Gramians.
"""

from __future__ import annotations

import numpy as np

from .signals import Trajectory, check_records, delayed, whole_steps


def cumulative_simpson(samples: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled data.

    Even indices accumulate composite Simpson pairs; each odd index adds a
    trapezoid over its trailing interval. Works on the leading axis, so
    ``samples`` may be ``(n,)``, ``(n, m)`` or ``(n, m, m)``.
    """
    f = np.asarray(samples, dtype=float)
    n = f.shape[0]
    out = np.zeros_like(f)
    if n < 2:
        return out
    pair = (step / 3.0) * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    n_odd = f[1::2].shape[0]
    out[1::2] = out[0::2][:n_odd] + (step / 2.0) * (f[0:-1:2][:n_odd] + f[1::2][:n_odd])
    return out


def cumulative_energy(delta: Trajectory) -> Trajectory:
    """Cumulative squared signal: Simpson integral of Delta^2 for CT data,
    running sum for DT data.

    The DT sum is exactly non-decreasing; the CT integral is non-decreasing
    up to the Simpson rule's local truncation error (order step^3) near
    zeros of the signal.

    Raises ``FloatingPointError`` when Delta is not finite (the record
    contract), or when Delta^2 or its integral overflows.
    """
    check_records("cumulative_energy", delta=(delta, "scalar"))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = delta.values * delta.values
        if delta.kind == "ct":
            out = cumulative_simpson(sq, delta.grid.step)
        else:
            out = np.cumsum(sq)
    if not (np.isfinite(sq).all() and np.isfinite(out).all()):
        raise FloatingPointError(
            "cumulative_energy: non-finite Delta^2 (Delta^2 or its integral overflows)"
        )
    return delta.with_values(out)


def window_steps(window: float, step: float, field: str) -> int:
    """Number of grid steps in ``window`` seconds; ``field`` names the window
    in the error raised when it is not a positive grid multiple."""
    lag = whole_steps(window, step)
    if lag is None or lag < 1:
        raise ValueError(f"{field} must be a positive grid multiple")
    return lag


def lagged_difference(cumulative: np.ndarray, lag: int) -> np.ndarray:
    """Moving-window integral ``C[k] - C[k-lag]`` with ``C`` treated as 0
    before the start of the record (signals vanish before time zero)."""
    return cumulative - delayed(cumulative, lag)
