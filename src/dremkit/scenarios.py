"""End-to-end simulation studies.

Two studies are wired up:

* ``run_identification_scenario`` estimates the two parameters of the
  first-order plant y' = a y + b u from filtered measurements, comparing the
  vector gradient estimator against the mixed estimators with and without
  the determinant-boosting feedthrough.

* ``run_ftc_scenario`` tracks a piecewise time-varying parameter through a
  scalar regression y = Delta * theta, comparing the plain estimator with
  the two finite-time recovery pipelines.

The plant and the regressor filters are linear ODEs integrated by RK4; their
step maps are composed by the prefix scan of :mod:`dremkit.integrate`.

All initial conditions default to zero and are configurable; the stated
convergence properties are sensitive to them because the constant-input case
draws all of its excitation from the startup transient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorRun, GradientConfig, ct_gradient, drem_ct
from .ftc import FtcConfig, FtcRun, run_ftc, run_ftc_alert
from .integrate import affine_scan, rk4_affine
from .mixing import MixedRegression, extend_with_feedforward, mix
from .operators import LtvChannelSpec, OperatorBank, extend
from .signals import (
    DEFAULT_CT_STEP,
    TimeGrid,
    Trajectory,
    check_records,
    require_positive,
    sample_values,
)

CONVERGENCE_TOL = 0.01
TRACKING_FTC = FtcConfig(gamma=2.0)  # the tracking study's recovery and estimator gain


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(frequency * t + phase) at a time or an array of times."""

    amplitude: float
    frequency: float  # rad/s
    phase: float = 0.0

    def __call__(self, times: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(self.frequency * np.asarray(times, float) + self.phase)


@dataclass(frozen=True)
class Constant:
    """A constant level at a time or an array of times."""

    level: float

    def __call__(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), float(self.level))


@dataclass(frozen=True)
class PlantSpec:
    """First-order plant y' = a y + b u driven by a named input signal."""

    a: float
    b: float
    y0: float = 0.0
    input: Sinusoid | Constant = Constant(0.0)


@dataclass(frozen=True, eq=False)
class RegressorSpec:
    """First-order measurement filters 1/(p + pole) applied to y and u.

    Filtering the plant equation gives y = (a + pole) * phi_1 + b * phi_2
    exactly for zero filter and plant initial conditions, so the true
    parameter vector is (a + pole, b).
    """

    pole: float
    phi0: np.ndarray | None = None

    def __post_init__(self) -> None:
        require_positive(self.pole, "filter pole")


def simulate_plant(spec: PlantSpec, grid: TimeGrid) -> tuple[Trajectory, Trajectory]:
    """RK4 simulation with the input evaluated analytically at half steps."""
    h = grid.step
    times = grid.times()
    u = sample_values(spec.input, times, (), "plant.input")
    um = sample_values(spec.input, times[:-1] + 0.5 * h, (), "plant.input")
    a, b = spec.a, spec.b
    y = affine_scan(*rk4_affine(a, a, a, b * u[:-1], b * um, b * u[1:], h), spec.y0)
    return Trajectory(grid, u, "ct"), Trajectory(grid, y, "ct")


def build_regressor(
    reg: RegressorSpec, plant: PlantSpec, u: Trajectory, y: Trajectory
) -> tuple[Trajectory, np.ndarray]:
    """Filter y and u through 1/(p + pole) and return (phi, theta_true).

    The filters integrate with RK4 and half-step linear interpolation of the
    sampled drive, which keeps the residual y - phi.theta at discretization
    level rather than inheriting a half-step bias.
    """
    grid = check_records("build_regressor", "ct", u=(u, "scalar"), y=(y, "scalar"))
    pole = reg.pole
    drives = np.stack([y.values, u.values], axis=1)
    mids = 0.5 * (drives[:-1] + drives[1:])
    x0 = np.zeros(2) if reg.phi0 is None else np.asarray(reg.phi0, float)
    phi = affine_scan(
        *rk4_affine(-pole, -pole, -pole, drives[:-1], mids, drives[1:], grid.step), x0
    )
    theta_true = np.array([plant.a + pole, plant.b])
    return Trajectory(grid, phi, "ct"), theta_true


def identification_bank() -> OperatorBank:
    """The two first-order extension channels used by the identification
    study: 1/(p+1) and 2/(p+2)."""
    return OperatorBank(
        (
            LtvChannelSpec(n=1, A=-1.0, b=1.0, c=1.0, kind="ct"),
            LtvChannelSpec(n=1, A=-2.0, b=2.0, c=1.0, kind="ct"),
        )
    )


def _tracking_truth(t: np.ndarray) -> np.ndarray:
    """The tracking study's parameter at every time: 10, a jump to 15 at
    t = 10, a ramp back down from t = 20, then 10 again from t = 30. Each
    jump takes the new value at its own time."""
    return np.select([t < 10.0, t < 20.0, t < 30.0], [10.0, 15.0, 15.0 + -0.5 * (t - 20.0)], 10.0)


def convergence_time(
    theta_tilde: Trajectory, tol: float = CONVERGENCE_TOL, from_time: float | None = None
) -> float | None:
    """First grid time after which every component error stays within ``tol``
    for the rest of the horizon; None when that never happens.

    ``from_time`` clips the search to later times (transient cutoff).
    """
    err = np.abs(theta_tilde.values)
    if err.ndim > 1:
        err = err.max(axis=1)
    tail_max = np.maximum.accumulate(err[::-1])[::-1]
    ok = tail_max <= tol
    if from_time is not None:
        ok &= theta_tilde.times() >= from_time
    if not ok.any():
        return None
    return float(theta_tilde.times()[int(np.argmax(ok))])


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """The runs of one study by name, with its grid."""

    grid: TimeGrid
    runs: dict[str, EstimatorRun]

    @property
    def ftc_runs(self) -> dict[str, FtcRun]:
        """The recovery of every run that has one, by run name."""
        return {name: run.recovery for name, run in self.runs.items() if run.recovery is not None}

    @property
    def final_errors(self) -> dict[str, np.ndarray]:
        """|theta_tilde| at the last sample of every run with a truth, by run name."""
        return {
            name: np.abs(np.atleast_1d(run.theta_tilde.values[-1]))
            for name, run in self.runs.items() if run.theta_tilde is not None
        }


def run_identification_scenario(
    input_kind: str = "rich",
    horizon: float = 20.0,
    step: float = DEFAULT_CT_STEP,
    gamma: float = 1.0,
    theta_hat0: np.ndarray | None = None,
    plant: PlantSpec | None = None,
    regressor: RegressorSpec | None = None,
    bank: OperatorBank | None = None,
) -> ScenarioResult:
    """Identification study: gradient vs mixed estimation, with and without
    the determinant-boosting feedthrough.

    ``input_kind`` selects the plant input: "rich" is 15 sin(2.5 t + 1),
    "constant" is 15.
    """
    if input_kind == "rich":
        drive = Sinusoid(amplitude=15.0, frequency=2.5, phase=1.0)
    elif input_kind == "constant":
        drive = Constant(15.0)
    else:
        raise ValueError(f"unknown input kind {input_kind!r}")
    plant = plant or PlantSpec(a=-0.4, b=0.4, input=drive)
    if plant.input is None:
        raise ValueError("plant spec needs an input signal")
    regressor = regressor or RegressorSpec(pole=5.0)
    bank = bank or identification_bank()
    grid = TimeGrid.from_horizon(horizon, step)

    u, y = simulate_plant(plant, grid)
    phi, theta_true = build_regressor(regressor, plant, u, y)

    cfg = GradientConfig(gamma=gamma, theta_hat0=np.zeros(2) if theta_hat0 is None else theta_hat0)

    gradient = ct_gradient(y, phi, cfg, theta_true=theta_true)

    Y0, Phi0 = extend(bank, y, phi)
    drem_plain = drem_ct(mix(Y0, Phi0), cfg, theta_true=theta_true)

    YN, PhiN = extend_with_feedforward(bank, y, phi)
    drem_boost = drem_ct(mix(YN, PhiN), cfg, theta_true=theta_true)

    return ScenarioResult(
        grid=grid,
        runs={"gradient": gradient, "drem_d0": drem_plain, "drem_dN": drem_boost},
    )


def run_ftc_scenario(
    delta_kind: str,
    horizon: float = 40.0,
    step: float = DEFAULT_CT_STEP,
    theta_hat0: float = 0.0,
    ftc: FtcConfig = TRACKING_FTC,
) -> ScenarioResult:
    """Tracking study on the scalar regression y = Delta * theta(t).

    ``delta_kind`` selects the excitation: "pe" is sin(2 pi t), "nonpe" is
    1/(t+1), which fades and eventually starves the delayed window. ``ftc``
    sets both recoveries, and its ``gamma`` is the estimator's gain too.
    """
    grid = TimeGrid.from_horizon(horizon, step)
    times = grid.times()
    if delta_kind == "pe":
        delta_vals = np.sin(2.0 * np.pi * times)
    elif delta_kind == "nonpe":
        delta_vals = 1.0 / (times + 1.0)
    else:
        raise ValueError(f"unknown delta kind {delta_kind!r}")
    delta = Trajectory(grid, delta_vals, "ct")

    theta = _tracking_truth(times)
    truth = Trajectory(grid, theta[:, None], "ct")
    y = delta_vals * theta

    mixed = MixedRegression(
        calY=Trajectory(grid, y[:, None], "ct"),
        Delta=delta,
    )
    cfg = GradientConfig(gamma=ftc.gamma, theta_hat0=np.array([theta_hat0]))
    gradient = drem_ct(mixed, cfg, theta_true=truth)

    # theta_ftc stays 1-D, so it meets a 1-D array without broadcasting to N x N
    hat_scalar = Trajectory(grid, gradient.theta_hat.values[:, 0], "ct")
    plain = run_ftc(hat_scalar, delta, ftc)
    alert = run_ftc_alert(hat_scalar, delta, ftc)

    def as_run(recovery: FtcRun) -> EstimatorRun:
        hat = Trajectory(grid, recovery.theta_ftc.values[:, None], "ct")
        tilde = hat.with_values(hat.values - truth.values)
        return EstimatorRun(hat, tilde, delta, "delta", recovery)

    return ScenarioResult(
        grid=grid,
        runs={"gradient": gradient, "ftc": as_run(plain), "ftc_d": as_run(alert)},
    )
