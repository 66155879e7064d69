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

Both weights are closed-form exponentials of one energy array per pipeline,
integrated by :func:`dremkit.quadrature.cumulative_energy` like the error
envelopes, so w stays consistent with them; the activation times come from
the same array, and both identities share one recovery routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import cumulative_energy, lagged_difference, window_steps
from .signals import Trajectory, check_records, delayed, require_positive

# below this window weight deficit the delayed identity divides by ~0 and the
# sample is reported as inactive instead
MIN_WINDOW_DEFICIT = 1e-9


def _require_fraction(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")


class ClipContractError(RuntimeError):
    """A weight fed to the recovery formula reached 1, so 1 - w is not
    invertible; clipped weights can never trigger this."""


@dataclass(frozen=True)
class FtcConfig:
    """Recovery settings for one scalar channel.

    ``gamma`` must equal the gain of the underlying scalar estimator, since
    the weight reconstructs that estimator's own decay. ``delay_window`` (in
    seconds, a positive grid multiple) only matters for the alert variant.
    """

    gamma: float
    clip_threshold: float = 0.98
    delay_window: float = 0.2

    def __post_init__(self) -> None:
        require_positive(self.gamma, "gamma")
        _require_fraction(self.clip_threshold, "clip_threshold")
        require_positive(self.delay_window, "delay_window")


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


def _energy(name: str, delta: Trajectory, gamma: float, **records) -> np.ndarray:
    """gamma * int_0^t Delta^2 on the grid: minus the log of the weight.
    ``delta`` and any other ``records`` are checked for the stage ``name``."""
    check_records(name, "ct", delta=(delta, "scalar"), **records)
    require_positive(gamma, "gamma")
    return gamma * cumulative_energy(delta).values


def _weight(delta: Trajectory, energy: np.ndarray) -> Trajectory:
    return Trajectory(delta.grid, np.minimum(np.exp(-energy), 1.0), "ct")


def _activation(
    delta: Trajectory, energy: np.ndarray, mu: float, start: int = 0
) -> float | None:
    """First grid time from sample ``start`` on with energy >= -ln(mu)."""
    _require_fraction(mu, "mu")
    cond = energy[start:] >= -np.log(mu)
    if not cond.any():
        return None
    return float(delta.times()[start + int(np.argmax(cond))])


def _recover(
    theta_hat: Trajectory, w: Trajectory, usable: np.ndarray, ref0, lag: int | None = None
) -> Trajectory:
    """[theta_hat - w ref] / (1 - w) on the ``usable`` samples, the raw
    estimate elsewhere (never divided); w broadcasts over the components.
    ``ref`` is the snapshot theta_hat(t - lag), which is ``ref0`` while
    t < lag (signals vanish before time zero, so the estimate was at rest);
    with no ``lag`` it is ``ref0`` throughout."""
    hat = theta_hat.values
    ref = delayed(hat, len(hat) if lag is None else lag, ref0)
    wk = w.values[usable]
    out = hat.copy()
    # transposed, the sample axis is last and wk broadcasts over components
    out[usable] = ((hat[usable].T - wk * ref[usable].T) / (1.0 - wk)).T
    return theta_hat.with_values(out)


def update_w(delta: Trajectory, gamma: float) -> Trajectory:
    """Full-history weight w = exp(-gamma * int_0^t Delta^2), in (0, 1]; it can
    rise on a rough Delta, where Simpson's odd-index trapezoid outweighs the
    next pair (Delta = [3, 0, 0, 0, 0], h = 0.1, gamma = 1: w = 1, 0.638, 0.741)."""
    return _weight(delta, _energy("update_w", delta, gamma))


def clip_w(w: Trajectory, mu: float) -> Trajectory:
    """Clip the weight at mu: w_c = mu where w >= mu, else w."""
    check_records("clip_w", w=(w, "scalar"))
    _require_fraction(mu, "mu")
    return w.with_values(np.where(w.values >= mu, mu, w.values))


def ftc_estimate(
    theta_hat: Trajectory, w_clipped: Trajectory, theta_hat0: np.ndarray
) -> Trajectory:
    """Algebraic recovery [theta_hat - w_c theta_hat(0)] / (1 - w_c).

    Exact whenever theta_hat follows its error envelope: the weight then
    cancels the remaining transient sample for sample.
    """
    estimate = (theta_hat, "scalar or vector")
    check_records("ftc_estimate", "ct", theta_hat=estimate, w_clipped=(w_clipped, "scalar"))
    if np.any(w_clipped.values >= 1.0):
        raise ClipContractError("clipped weight reached 1; cannot invert 1 - w")
    every = np.ones(w_clipped.grid.count, dtype=bool)
    return _recover(theta_hat, w_clipped, every, theta_hat0)


def interval_excitation_time(
    delta: Trajectory, gamma: float, mu: float
) -> float | None:
    """First grid time where gamma * int_0^t Delta^2 >= -ln(mu), or None."""
    return _activation(delta, _energy("interval_excitation_time", delta, gamma), mu)


def run_ftc(theta_hat: Trajectory, delta: Trajectory, cfg: FtcConfig) -> FtcRun:
    """Full-history recovery pipeline.

    A sample is active where w < mu: there the clipped weight equals the true
    weight and the recovery formula applies, elsewhere the raw estimate is
    output. w can rise (see ``update_w``), so a sample after t_c may be inactive.
    """
    energy = _energy("run_ftc", delta, cfg.gamma, theta_hat=(theta_hat, "scalar or vector"))
    w = _weight(delta, energy)
    wc = clip_w(w, cfg.clip_threshold)
    active = w.values < cfg.clip_threshold
    return FtcRun(
        theta_ftc=_recover(theta_hat, wc, active, theta_hat.values[0]),
        w=w,
        w_clipped=wc,
        w_delayed=None,
        t_c=_activation(delta, energy, cfg.clip_threshold),
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
    energy = _energy("run_ftc_alert", delta, cfg.gamma, theta_hat=(theta_hat, "scalar or vector"))
    lag = window_steps(cfg.delay_window, delta.grid.step, "delay_window")
    window = lagged_difference(energy, lag)
    wd = _weight(delta, window)
    t_c = _activation(delta, window, cfg.clip_threshold, start=lag)
    active = np.zeros(theta_hat.grid.count, dtype=bool)
    if t_c is not None:
        start = theta_hat.grid.index_of(t_c)
        active[start:] = 1.0 - wd.values[start:] > MIN_WINDOW_DEFICIT
    return FtcRun(
        theta_ftc=_recover(theta_hat, wd, active, theta_hat.values[0], lag),
        w=_weight(delta, energy),
        w_clipped=clip_w(wd, cfg.clip_threshold),
        w_delayed=wd,
        t_c=t_c,
        active=active,
    )
