"""Gradient-descent estimators for vector and mixed scalar regressions.

Continuous-time estimators integrate with fixed-step RK4, reading the data
signals at half steps by linear interpolation between grid samples (the data
only exists on the grid). Their dynamics are linear in the estimate, so every
RK4 step is an affine map; the maps are built for the whole record at once
and composed by a prefix scan (:mod:`dremkit.integrate`). The DT vector
gradient is linear in the estimate too, and its exact step maps go through
the same scan. Only ``drem_dt`` stays a sequential recursion over Python
floats, one bounded block at a time, because c07's exact monotonicity and
c06's DT 1e-12 envelope depend on its order of summation. Non-finite data
raise ``FloatingPointError`` naming the signal, as does a DT |phi|^2 or
Delta^2 that overflows; overflow while building the CT step maps reaches
the scan's non-finite check. The closed-form error envelopes

    CT:  err(t) = exp(-gamma * int_0^t Delta^2) * err(0)
    DT:  err(k) = prod_{j=1..k} [1 / (1 + Delta(j)^2 / gamma)] * err(0)

serve as independent oracles for the mixed estimators; the DT product starts
at j = 1 because the sample at index 0 is the initial condition and triggers
no update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ftc import FtcRun
from .integrate import affine_scan, rk4_affine
from .mixing import MixedRegression
from .quadrature import cumulative_energy
from .signals import Trajectory, check_records, require_positive

# samples per block of drem_dt's sequential recursion; bounds the Python
# floats alive at once
_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class GradientConfig:
    """Adaptation gain(s) and initial estimate.

    ``gamma`` is a single positive gain for the vector estimators, or one
    positive gain per component for the mixed scalar estimators.
    """

    gamma: float | np.ndarray
    theta_hat0: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        require_positive(gamma, "every gain")
        theta0 = np.atleast_1d(np.asarray(self.theta_hat0, dtype=float))
        if not np.isfinite(theta0).all():
            raise ValueError(f"theta_hat0 must be finite, got {self.theta_hat0}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "theta_hat0", theta0)

    def gains(self, m: int) -> np.ndarray:
        g = self.gamma
        if g.shape == (1,):
            return np.full(m, g[0])
        if g.shape != (m,):
            raise ValueError(f"expected {m} gains, got shape {g.shape}")
        return g

    def initial(self, m: int) -> np.ndarray:
        th0 = self.theta_hat0
        if th0.shape != (m,):
            raise ValueError(f"theta_hat0 must have shape ({m},)")
        return th0.copy()


@dataclass(frozen=True, eq=False)
class EstimatorRun:
    """Estimate, optional error and per-sample excitation, the latter named by
    ``diagnostics_name``: "delta" (Delta) for mixed runs, "phi_norm_sq" (|phi|^2)
    for vector runs. ``recovery`` is the finite-time recovery that made it, if any."""

    theta_hat: Trajectory
    theta_tilde: Trajectory | None
    diagnostics: Trajectory
    diagnostics_name: str
    recovery: FtcRun | None = None


def _error_trajectory(name: str, theta_hat: Trajectory, theta_true) -> Trajectory | None:
    """theta_hat - theta_true, or None without a truth. A truth record keeps
    the record contract with the estimate of the estimator ``name``."""
    if isinstance(theta_true, Trajectory):
        check_records(name, theta_hat=(theta_hat, "vector"), theta_true=(theta_true, "vector"))
        theta_true = theta_true.values
    if theta_true is None:
        return None
    return theta_hat.with_values(theta_hat.values - np.asarray(theta_true, dtype=float))


def _blocks(count: int):
    """(start, stop) ranges of at most ``_BLOCK`` samples covering 1..count-1."""
    for start in range(1, count, _BLOCK):
        yield start, min(start + _BLOCK, count)


def _midpoints(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def _vector_gain(y: Trajectory, phi: Trajectory, cfg: GradientConfig, kind: str) -> float:
    """The single gain of a vector estimator on scalar ``y`` and vector ``phi``
    of ``kind`` on one grid."""
    check_records(f"{kind}_gradient", kind, y=(y, "scalar"), phi=(phi, "vector"))
    gamma = cfg.gains(phi.dim)
    if not np.all(gamma == gamma[0]):
        raise ValueError("the vector estimator uses a single gain")
    return gamma[0]


def _require_finite(name: str, **signals: np.ndarray) -> None:
    for label, values in signals.items():
        if not np.isfinite(values).all():
            raise FloatingPointError(f"{name}: non-finite {label} samples")


def ct_gradient(
    y: Trajectory, phi: Trajectory, cfg: GradientConfig, theta_true=None
) -> EstimatorRun:
    """Vector gradient estimator theta_hat' = gamma * phi * (y - phi.theta_hat)."""
    g = _vector_gain(y, phi, cfg, "ct")
    m = phi.dim
    pv, yv = phi.values, y.values
    _require_finite("ct_gradient", y=yv, phi=pv)

    # theta_hat' = L theta_hat + f with L = -g phi phi^T and f = g phi y
    def stage(p, yy):
        return -g * np.einsum("ki,kj->kij", p, p), g * p * yy[:, None]

    with np.errstate(over="ignore", invalid="ignore"):  # affine_scan raises on overflow
        pm, ym = _midpoints(pv), _midpoints(yv)
        (L0, f0), (Lm, fm), (L1, f1) = stage(pv[:-1], yv[:-1]), stage(pm, ym), stage(pv[1:], yv[1:])
    th = affine_scan(*rk4_affine(L0, Lm, L1, f0, fm, f1, y.grid.step), cfg.initial(m))
    hat = Trajectory(y.grid, th, "ct")
    diag = Trajectory(y.grid, np.einsum("ki,ki->k", pv, pv), "ct")
    return EstimatorRun(hat, _error_trajectory("ct_gradient", hat, theta_true), diag, "phi_norm_sq")


def dt_gradient(
    y: Trajectory, phi: Trajectory, cfg: GradientConfig, theta_true=None
) -> EstimatorRun:
    """Normalized DT gradient estimator

        theta_hat(k) = theta_hat(k-1)
                       + phi(k) / (gamma + |phi(k)|^2) * [y(k) - phi(k).theta_hat(k-1)]

    run exactly for k >= 1; index 0 carries the initial estimate.
    """
    g = _vector_gain(y, phi, cfg, "dt")
    m = phi.dim
    pv, yv = phi.values, y.values
    _require_finite("dt_gradient", y=yv, phi=pv)

    # theta_hat(k) = (I - g(k) phi(k)^T) theta_hat(k-1) + g(k) y(k) for k >= 1
    # |phi|^2 is checked below, and affine_scan raises on any other overflow
    with np.errstate(over="ignore", invalid="ignore"):
        pp = np.einsum("ki,ki->k", pv, pv)
        gain = pv[1:] / (g + pp[1:])[:, None]
        a = np.eye(m) - np.einsum("ki,kj->kij", gain, pv[1:])
        b = gain * yv[1:, None]
    _require_finite("dt_gradient", **{"|phi|^2": pp})
    th = affine_scan(a, b, cfg.initial(m))
    hat = Trajectory(y.grid, th, "dt")
    diag = Trajectory(y.grid, pp, "dt")
    return EstimatorRun(hat, _error_trajectory("dt_gradient", hat, theta_true), diag, "phi_norm_sq")


def drem_ct(mixed: MixedRegression, cfg: GradientConfig, theta_true=None) -> EstimatorRun:
    """Decoupled scalar estimators

        theta_hat_i' = gamma_i * Delta * (calY_i - Delta * theta_hat_i),

    one independent RK4 integration per component (elementwise step maps).
    """
    grid = check_records("drem_ct", "ct", calY=(mixed.calY, "vector"))
    m = mixed.dim
    gamma = cfg.gains(m)
    D, Yc = mixed.Delta.values, mixed.calY.values
    _require_finite("drem_ct", Delta=D, calY=Yc)

    # per component: theta_hat_i' = -gamma_i Delta^2 theta_hat_i + gamma_i Delta calY_i
    def stage(d, yy):
        return -gamma * (d * d)[:, None], gamma * d[:, None] * yy

    with np.errstate(over="ignore", invalid="ignore"):  # affine_scan raises on overflow
        Dm, Ym = _midpoints(D), _midpoints(Yc)
        (L0, f0), (Lm, fm), (L1, f1) = stage(D[:-1], Yc[:-1]), stage(Dm, Ym), stage(D[1:], Yc[1:])
    th = affine_scan(*rk4_affine(L0, Lm, L1, f0, fm, f1, grid.step), cfg.initial(m))
    hat = Trajectory(grid, th, "ct")
    return EstimatorRun(hat, _error_trajectory("drem_ct", hat, theta_true), mixed.Delta, "delta")


def drem_dt(mixed: MixedRegression, cfg: GradientConfig, theta_true=None) -> EstimatorRun:
    """Decoupled scalar DT estimators

        theta_hat_i(k) = theta_hat_i(k-1)
                         + Delta(k) / (gamma_i + Delta(k)^2)
                           * [calY_i(k) - Delta(k) * theta_hat_i(k-1)]

    run exactly for k >= 1.
    """
    grid = check_records("drem_dt", "dt", calY=(mixed.calY, "vector"))
    m = mixed.dim
    gamma = cfg.gains(m)
    D, Yc = mixed.Delta.values, mixed.calY.values
    _require_finite("drem_dt", Delta=D, calY=Yc)
    with np.errstate(over="ignore"):
        D2 = D * D
    _require_finite("drem_dt", **{"Delta^2": D2})

    th = np.empty((grid.count, m))
    th[0] = cfg.initial(m)
    for i in range(m):
        x = float(th[0, i])
        for start, stop in _blocks(grid.count):
            d_blk = D[start:stop]
            gains = d_blk / (gamma[i] + D2[start:stop])
            lane = []
            for g, yk, d in zip(gains.tolist(), Yc[start:stop, i].tolist(), d_blk.tolist()):
                x = x + g * (yk - d * x)
                lane.append(x)
            th[start:stop, i] = lane
    hat = Trajectory(grid, th, "dt")
    return EstimatorRun(hat, _error_trajectory("drem_dt", hat, theta_true), mixed.Delta, "delta")


def closed_form_error_ct(
    delta: Trajectory, gamma: float, theta_tilde0: float
) -> Trajectory:
    """Error envelope exp(-gamma * int_0^t Delta^2) * err0 on the grid, with
    the integral from :func:`dremkit.quadrature.cumulative_energy`."""
    check_records("closed_form_error_ct", "ct", delta=(delta, "scalar"))
    require_positive(gamma, "gamma")
    energy = cumulative_energy(delta).values
    return Trajectory(delta.grid, np.exp(-gamma * energy) * theta_tilde0, "ct")


def closed_form_error_dt(
    delta: Trajectory, gamma: float, theta_tilde0: float
) -> Trajectory:
    """Running-product error envelope matching the DT recursion exactly.

    Raises ``FloatingPointError`` when Delta is not finite or Delta^2
    overflows, as :func:`drem_dt` does.
    """
    check_records("closed_form_error_dt", "dt", delta=(delta, "scalar"))
    require_positive(gamma, "gamma")
    _require_finite("closed_form_error_dt", Delta=delta.values)
    with np.errstate(over="ignore"):
        d2 = delta.values * delta.values
        _require_finite("closed_form_error_dt", **{"Delta^2": d2})
        # a finite Delta^2 / gamma that overflows gives the factor's limit, 0
        factors = 1.0 / (1.0 + d2 / gamma)
    factors = factors.copy()
    factors[0] = 1.0  # index 0 is the initial condition, no update
    return Trajectory(delta.grid, np.cumprod(factors) * theta_tilde0, "dt")
