"""Finite-time recovery layer on top of the scalar mixed estimators.

The decoupled error obeys err(t) = w(t) err(0) with

    w(t) = exp(-gamma * int_0^t Delta^2(s) ds),

so once enough excitation has accumulated (w below the threshold mu) the
constant parameter can be solved for algebraically:

    theta_ftc(t) = [theta_hat(t) - w(t) theta_hat(0)] / (1 - w(t)).

The delayed-window variant replaces the full-history weight by

    w_delayed(t) = exp(-gamma * int_{t-T}^t Delta^2(s) ds),

which rises again when excitation fades and falls when it returns; the
matching identity uses the snapshot theta_hat(t - T) and therefore keeps
recovering parameters that changed, as long as the window carries enough
excitation.

Both weights are computed from their closed-form exponential solutions via
cumulative Simpson quadrature rather than by stepping the weight ODEs; this
keeps w consistent with the error envelopes built from the same integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import cumulative_simpson, lagged_difference
from .signals import Trajectory

# below this window weight deficit the delayed identity divides by ~0 and the
# sample is reported as inactive instead
MIN_WINDOW_DEFICIT = 1e-9


class ClipContractError(RuntimeError):
    """A weight fed to the recovery formula reached 1, so 1 - w is not
    invertible; clipped weights can never trigger this."""


@dataclass(frozen=True)
class FtcConfig:
    """Recovery settings for one scalar channel.

    ``gamma`` must equal the gain of the underlying scalar estimator, since
    the weight reconstructs that estimator's own decay. ``delay_window`` (in
    seconds, a positive grid multiple) only matters for the alert variant.
    ``use_delayed_snapshot=False`` switches the alert formula to reference
    theta_hat(0) instead of theta_hat(t - T); that form only recovers
    parameters that never changed.
    """

    gamma: float
    clip_threshold: float = 0.98
    delay_window: float = 0.2
    use_delayed_snapshot: bool = True

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.clip_threshold < 1.0:
            raise ValueError("clip_threshold must lie in (0, 1)")
        if self.delay_window <= 0:
            raise ValueError("delay_window must be positive")


@dataclass(frozen=True, eq=False)
class FtcRun:
    """One recovery pipeline: weights, the recovered estimate, the first
    activation time, and the per-sample active mask (inactive samples output
    the raw estimate)."""

    theta_ftc: Trajectory
    w: Trajectory
    w_clipped: Trajectory
    w_delayed: Trajectory | None
    t_c: float | None
    active: np.ndarray


def _check_scalar_ct(delta: Trajectory) -> None:
    if not delta.is_scalar or delta.kind != "ct":
        raise ValueError("expected a scalar CT trajectory")


def _energy(delta: Trajectory, gamma: float) -> np.ndarray:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma * cumulative_simpson(delta.values * delta.values, delta.grid.step)


def update_w(delta: Trajectory, gamma: float) -> Trajectory:
    """Full-history weight w = exp(-gamma * int_0^t Delta^2); non-increasing,
    in (0, 1]."""
    _check_scalar_ct(delta)
    w = np.exp(-_energy(delta, gamma))
    return Trajectory(delta.grid, np.minimum(w, 1.0), "ct")


def clip_w(w: Trajectory, mu: float) -> Trajectory:
    """Clip the weight at mu: w_c = mu where w >= mu, else w."""
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return w.with_values(np.where(w.values >= mu, mu, w.values))


def ftc_estimate(
    theta_hat: Trajectory, w_clipped: Trajectory, theta_hat0: np.ndarray
) -> Trajectory:
    """Algebraic recovery [theta_hat - w_c theta_hat(0)] / (1 - w_c).

    Exact whenever theta_hat follows its error envelope: the weight then
    cancels the remaining transient sample for sample.
    """
    if theta_hat.grid != w_clipped.grid:
        raise ValueError("theta_hat and w_clipped must share one grid")
    wc = w_clipped.values
    if np.any(wc >= 1.0):
        raise ClipContractError("clipped weight reached 1; cannot invert 1 - w")
    th0 = np.atleast_1d(np.asarray(theta_hat0, dtype=float))
    hat = theta_hat.values
    if hat.ndim == 1:
        return theta_hat.with_values((hat - wc * th0[0]) / (1.0 - wc))
    return theta_hat.with_values((hat - wc[:, None] * th0) / (1.0 - wc[:, None]))


def update_w_delayed(delta: Trajectory, gamma: float, delay_window: float) -> Trajectory:
    """Moving-window weight w_d = exp(-gamma * int_{t-T}^t Delta^2), with the
    signal treated as zero before time zero."""
    _check_scalar_ct(delta)
    lag = _window_steps(delta, delay_window)
    energy = lagged_difference(_energy(delta, gamma), lag)
    return Trajectory(delta.grid, np.minimum(np.exp(-energy), 1.0), "ct")


def _window_steps(delta: Trajectory, delay_window: float) -> int:
    step = delta.grid.step
    lag = int(round(delay_window / step))
    if lag < 1 or abs(delay_window - lag * step) > 1e-9 * max(step, delay_window):
        raise ValueError("delay_window must be a positive grid multiple")
    return lag


def _delayed_snapshot(theta_hat: Trajectory, lag: int) -> np.ndarray:
    hat = theta_hat.values
    snap = np.empty_like(hat)
    snap[:lag] = hat[0]  # signals vanish before 0, so the estimate was at rest
    snap[lag:] = hat[:-lag]
    return snap


def ftc_alert_estimate(
    theta_hat: Trajectory,
    w_delayed: Trajectory,
    delay_window: float,
    use_delayed_snapshot: bool = True,
) -> Trajectory:
    """Delayed-window recovery [theta_hat(t) - w_d theta_hat(t-T)] / (1 - w_d).

    Exact for constant parameters over [t-T, t] when theta_hat follows its
    envelope. Samples whose window carries essentially no excitation
    (1 - w_d below ``MIN_WINDOW_DEFICIT``) pass the raw estimate through,
    since the identity degenerates there. With ``use_delayed_snapshot=False``
    the reference is theta_hat(0) instead of the delayed snapshot.
    """
    if theta_hat.grid != w_delayed.grid:
        raise ValueError("theta_hat and w_delayed must share one grid")
    wd = w_delayed.values
    lag = _window_steps(w_delayed, delay_window)
    hat = theta_hat.values
    if use_delayed_snapshot:
        snap = _delayed_snapshot(theta_hat, lag)
    else:
        snap = np.broadcast_to(hat[0], hat.shape)
    usable = 1.0 - wd > MIN_WINDOW_DEFICIT
    out = hat.copy()
    if hat.ndim == 1:
        out[usable] = (hat[usable] - wd[usable] * snap[usable]) / (1.0 - wd[usable])
    else:
        wcol = wd[usable][:, None]
        out[usable] = (hat[usable] - wcol * snap[usable]) / (1.0 - wcol)
    return theta_hat.with_values(out)


def interval_excitation_time(
    delta: Trajectory, gamma: float, mu: float
) -> float | None:
    """First grid time where gamma * int_0^t Delta^2 >= -ln(mu), or None."""
    _check_scalar_ct(delta)
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    cond = _energy(delta, gamma) >= -np.log(mu)
    if not cond.any():
        return None
    return float(delta.times()[int(np.argmax(cond))])


def interval_excitation_time_delayed(
    delta: Trajectory, gamma: float, mu: float, delay_window: float
) -> float | None:
    """First grid time t >= T with gamma * int_{t-T}^t Delta^2 >= -ln(mu)."""
    _check_scalar_ct(delta)
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    lag = _window_steps(delta, delay_window)
    window = lagged_difference(_energy(delta, gamma), lag)
    cond = window >= -np.log(mu)
    cond[:lag] = False
    if not cond.any():
        return None
    return float(delta.times()[int(np.argmax(cond))])


def run_ftc(theta_hat: Trajectory, delta: Trajectory, cfg: FtcConfig) -> FtcRun:
    """Full-history recovery pipeline.

    Samples before the activation time output the raw estimate and are
    flagged inactive; after activation the clipped weight equals the true
    weight and the recovery formula applies.
    """
    w = update_w(delta, cfg.gamma)
    wc = clip_w(w, cfg.clip_threshold)
    t_c = interval_excitation_time(delta, cfg.gamma, cfg.clip_threshold)
    active = w.values < cfg.clip_threshold
    estimate = ftc_estimate(theta_hat, wc, theta_hat.values[0])
    out = np.where(
        active if theta_hat.values.ndim == 1 else active[:, None],
        estimate.values,
        theta_hat.values,
    )
    return FtcRun(
        theta_ftc=theta_hat.with_values(out),
        w=w,
        w_clipped=wc,
        w_delayed=None,
        t_c=t_c,
        active=active,
    )


def run_ftc_alert(theta_hat: Trajectory, delta: Trajectory, cfg: FtcConfig) -> FtcRun:
    """Delayed-window recovery pipeline.

    Activation latches at the first time the window excitation test passes;
    from then on the identity is evaluated with the raw (unclipped) window
    weight, since clipping it would break the cancellation the recovery
    relies on. Samples where the window carries essentially no excitation
    (1 - w_d below ``MIN_WINDOW_DEFICIT``) fall back to the raw estimate.
    """
    w = update_w(delta, cfg.gamma)
    wd = update_w_delayed(delta, cfg.gamma, cfg.delay_window)
    wdc = clip_w(wd, cfg.clip_threshold)
    t_c = interval_excitation_time_delayed(
        delta, cfg.gamma, cfg.clip_threshold, cfg.delay_window
    )
    active = np.zeros(theta_hat.grid.count, dtype=bool)
    out = theta_hat.values.copy()
    if t_c is not None:
        start = theta_hat.grid.index_of(t_c)
        active[start:] = 1.0 - wd.values[start:] > MIN_WINDOW_DEFICIT
        estimate = ftc_alert_estimate(theta_hat, wd, cfg.delay_window, cfg.use_delayed_snapshot)
        out[start:] = estimate.values[start:]
    return FtcRun(
        theta_ftc=theta_hat.with_values(out),
        w=w,
        w_clipped=wdc,
        w_delayed=wd,
        t_c=t_c,
        active=active,
    )
