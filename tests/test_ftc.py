import numpy as np
import pytest

from dremkit.estimators import GradientConfig, closed_form_error_ct, drem_ct
from dremkit.ftc import (
    MIN_WINDOW_DEFICIT,
    ClipContractError,
    FtcConfig,
    clip_w,
    ftc_estimate,
    interval_excitation_time,
    run_ftc,
    run_ftc_alert,
    update_w,
)
from dremkit.mixing import MixedRegression
from dremkit.quadrature import cumulative_simpson, lagged_difference
from dremkit.scenarios import run_ftc_scenario
from dremkit.signals import TimeGrid, Trajectory


def ct_scalar(values, step=1e-3):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(0.0, step, len(values)), values, "ct")


def sine_delta(horizon=3.0, step=1e-3):
    grid = TimeGrid.from_horizon(horizon, step)
    return Trajectory(grid, np.sin(2 * np.pi * grid.times()), "ct")


def envelope_estimate(delta, gamma, theta, theta_hat0):
    """Estimate following its exact error envelope (shared quadrature)."""
    env = closed_form_error_ct(delta, gamma, theta_hat0 - theta)
    return ct_scalar(theta + env.values, step=delta.grid.step)


def alert_run(delta, gamma, delay_window=0.2, theta_hat=None, **settings):
    """``run_ftc_alert`` on ``delta``, recovering ``theta_hat`` (zero if None)."""
    if theta_hat is None:
        theta_hat = delta.with_values(np.zeros(delta.grid.count))
    cfg = FtcConfig(gamma=gamma, delay_window=delay_window, **settings)
    return run_ftc_alert(theta_hat, delta, cfg)


class TestUpdateW:
    def test_zero_delta(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        w = update_w(Trajectory(grid, np.zeros(grid.count), "ct"), 1.0)
        np.testing.assert_array_equal(w.values, np.ones(grid.count))

    def test_unit_delta(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        w = update_w(Trajectory(grid, np.ones(grid.count), "ct"), 1.0)
        np.testing.assert_allclose(w.values, np.exp(-grid.times()), rtol=1e-10)

    def test_sine_delta_value_at_one(self):
        delta = sine_delta(1.0)
        w = update_w(delta, 2.0)
        assert abs(w.values[-1] - np.exp(-1.0)) <= 1e-8

    def test_monotone_and_in_unit_interval(self):
        delta = sine_delta(2.0)
        w = update_w(delta, 2.0)
        assert np.all(np.diff(w.values) <= 0)
        assert np.all((w.values > 0) & (w.values <= 1.0))


class TestClipW:
    def test_clips_above_threshold(self):
        grid = TimeGrid.from_horizon(0.1, 1e-3)
        w = Trajectory(grid, np.ones(grid.count), "ct")
        np.testing.assert_array_equal(clip_w(w, 0.98).values, np.full(grid.count, 0.98))

    def test_crossing_time(self):
        grid = TimeGrid.from_horizon(0.1, 1e-3)
        t = grid.times()
        w = Trajectory(grid, np.exp(-t), "ct")
        wc = clip_w(w, 0.98)
        crossing = -np.log(0.98)  # about 0.020203
        np.testing.assert_array_equal(wc.values[t < crossing], 0.98)
        below = t >= crossing
        np.testing.assert_array_equal(wc.values[below], w.values[below])

    def test_untouched_below_threshold(self):
        grid = TimeGrid.from_horizon(0.01, 1e-3)
        w = Trajectory(grid, np.full(grid.count, 0.5), "ct")
        np.testing.assert_array_equal(clip_w(w, 0.98).values, w.values)

    def test_mu_validation(self):
        grid = TimeGrid.from_horizon(0.01, 1e-3)
        w = Trajectory(grid, np.ones(grid.count), "ct")
        with pytest.raises(ValueError):
            clip_w(w, 1.0)


class TestFtcEstimate:
    def test_zero_weight_returns_estimate(self, rng):
        grid = TimeGrid.from_horizon(0.01, 1e-3)
        hat = Trajectory(grid, rng.normal(size=grid.count), "ct")
        w = Trajectory(grid, np.zeros(grid.count), "ct")
        out = ftc_estimate(hat, w, np.array([hat.values[0]]))
        np.testing.assert_array_equal(out.values, hat.values)

    def test_frozen_estimate_is_fixed_point(self):
        grid = TimeGrid.from_horizon(0.01, 1e-3)
        hat = Trajectory(grid, np.full(grid.count, 2.5), "ct")
        w = Trajectory(grid, np.full(grid.count, 0.5), "ct")
        out = ftc_estimate(hat, w, np.array([2.5]))
        np.testing.assert_allclose(out.values, np.full(grid.count, 2.5), rtol=1e-15)

    def test_algebraic_exactness_on_envelope(self):
        # theta = 10, start at 0, Delta = 1, gamma = 2: the identity cancels
        # the transient exactly once w dips under the threshold
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        t = grid.times()
        delta = Trajectory(grid, np.ones(grid.count), "ct")
        hat = envelope_estimate(delta, 2.0, theta=10.0, theta_hat0=0.0)
        w = update_w(delta, 2.0)
        wc = clip_w(w, 0.98)
        out = ftc_estimate(hat, wc, np.array([0.0]))
        active = w.values < 0.98
        assert np.abs(out.values[active] - 10.0).max() <= 1e-9 * 10.0

    def test_weight_at_one_rejected(self):
        grid = TimeGrid.from_horizon(0.01, 1e-3)
        hat = Trajectory(grid, np.zeros(grid.count), "ct")
        w = Trajectory(grid, np.ones(grid.count), "ct")
        with pytest.raises(ClipContractError):
            ftc_estimate(hat, w, np.array([0.0]))


class TestUpdateWDelayed:
    """The moving-window weight w_d = exp(-gamma * int_{t-T}^t Delta^2) that
    ``run_ftc_alert`` returns as ``w_delayed``."""

    def test_zero_delta(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        run = alert_run(Trajectory(grid, np.zeros(grid.count), "ct"), 1.0)
        np.testing.assert_array_equal(run.w_delayed.values, np.ones(grid.count))
        assert run.t_c is None and not run.active.any()

    def test_constant_delta_saturates(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        t = grid.times()
        c, gamma, TD = 1.5, 0.8, 0.2
        run = alert_run(Trajectory(grid, np.full(grid.count, c), "ct"), gamma, TD)
        wd = run.w_delayed
        early = t <= TD + 1e-12
        np.testing.assert_allclose(wd.values[early], np.exp(-gamma * c * c * t[early]), rtol=1e-9)
        late = t >= TD
        np.testing.assert_allclose(
            wd.values[late], np.full(late.sum(), np.exp(-gamma * c * c * TD)), rtol=1e-9
        )
        # gamma c^2 TD = 0.36 > -ln(0.98): the full window activates at T
        assert run.t_c == pytest.approx(TD, abs=1e-12)

    def test_periodic_for_periodic_delta(self):
        delta = sine_delta(3.0)
        wd = alert_run(delta, 2.0, 0.2).w_delayed
        t = delta.times()
        k_period = 500  # sin(2 pi t)^2 has period 1/2
        sel = t >= 0.2
        a = wd.values[sel][:-k_period]
        b = wd.values[sel][k_period:]
        assert np.abs(a - b).max() <= 1e-8

    def test_moving_window_quadrature_oracle(self):
        # independent oracle: windowed Simpson integral per sample
        delta = sine_delta(1.0)
        gamma, TD = 2.0, 0.2
        wd = alert_run(delta, gamma, TD).w_delayed
        energy = cumulative_simpson(delta.values**2, delta.grid.step)
        lag = 200
        expected = np.exp(-gamma * (energy - np.concatenate([np.zeros(lag), energy[:-lag]])))
        np.testing.assert_allclose(wd.values, np.minimum(expected, 1.0), rtol=1e-12)

    def test_quotient_identity(self):
        delta = sine_delta(2.0)
        gamma, TD = 2.0, 0.2
        w = update_w(delta, gamma)
        wd = alert_run(delta, gamma, TD).w_delayed
        lag = 200
        quotient = w.values[lag:] / w.values[:-lag]
        assert np.abs(wd.values[lag:] - quotient).max() <= 1e-9

    def test_off_grid_window_rejected(self):
        delta = sine_delta(1.0)
        with pytest.raises(ValueError):
            alert_run(delta, 1.0, 0.00015)


class TestAlertEstimate:
    """The delayed-window recovery [theta_hat(t) - w_d theta_hat(t-T)] / (1 - w_d)
    that ``run_ftc_alert`` returns as ``theta_ftc``."""

    def test_zero_weight_returns_estimate(self, rng):
        # exp(-1e4 * 0.2) underflows, so every full window weighs exactly 0
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        hat = Trajectory(grid, rng.normal(size=grid.count), "ct")
        run = alert_run(Trajectory(grid, np.ones(grid.count), "ct"), 1e4, 0.2, hat)
        full = grid.times() >= 0.2
        assert np.all(run.w_delayed.values[full] == 0.0) and run.active[full].all()
        np.testing.assert_array_equal(run.theta_ftc.values, hat.values)

    def test_exact_recovery_constant_theta(self):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        delta = Trajectory(grid, np.ones(grid.count), "ct")
        gamma, TD, theta = 2.0, 0.2, 7.0
        hat = envelope_estimate(delta, gamma, theta=theta, theta_hat0=0.0)
        run = alert_run(delta, gamma, TD, hat)
        t = grid.times()
        usable = t >= TD
        assert run.active[usable].all()
        assert np.abs(run.theta_ftc.values[usable] - theta).max() <= 1e-9 * theta


class TestIntervalExcitation:
    def test_zero_delta_never(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        assert interval_excitation_time(Trajectory(grid, np.zeros(grid.count), "ct"), 1.0, 0.5) is None

    def test_unit_delta_log_threshold(self):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        delta = Trajectory(grid, np.ones(grid.count), "ct")
        tc = interval_excitation_time(delta, 1.0, float(np.exp(-1.0)))
        assert tc == pytest.approx(1.0, abs=1.1e-3)

    def test_sine_against_root_oracle(self):
        # bisect t/2 - sin(4 pi t)/(8 pi) = -ln(mu)/gamma on the analytic
        # antiderivative and compare with the grid detection
        gamma, mu = 2.0, 0.98
        target = -np.log(mu) / gamma

        def F(t):
            return t / 2.0 - np.sin(4 * np.pi * t) / (8 * np.pi) - target

        lo, hi = 0.0, 0.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if F(mid) >= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        delta = sine_delta(1.0)
        tc = interval_excitation_time(delta, gamma, mu)
        assert tc is not None and abs(tc - root) <= 1e-3 + 1e-9
        assert tc <= 0.1  # small activation time for this excitation

    def test_delayed_zero_never(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        delta = Trajectory(grid, np.zeros(grid.count), "ct")
        assert alert_run(delta, 1.0, 0.2, clip_threshold=0.5).t_c is None

    def test_delayed_constant_saturates_at_window(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        delta = Trajectory(grid, np.full(grid.count, 2.0), "ct")
        # gamma c^2 TD = 0.8 * 4 * 0.2 > -ln(0.98): triggers right at the window
        tc = alert_run(delta, 0.8, 0.2, clip_threshold=0.98).t_c
        assert tc == pytest.approx(0.2, abs=1e-12)

    def test_delayed_sine_finite(self):
        delta = sine_delta(1.0)
        tc = alert_run(delta, 2.0, 0.2, clip_threshold=0.98).t_c
        assert tc is not None and tc <= 0.5


class TestPipelines:
    def test_plain_pipeline_exact_after_activation(self):
        delta = sine_delta(3.0)
        theta = 10.0
        hat = envelope_estimate(delta, 2.0, theta=theta, theta_hat0=0.0)
        run = run_ftc(hat, delta, FtcConfig(gamma=2.0, clip_threshold=0.98))
        assert run.t_c is not None and run.t_c <= 0.1
        t = delta.times()
        after = t >= run.t_c
        assert np.abs(run.theta_ftc.values[after] - theta).max() <= 1e-9 * theta
        # inactive samples pass the raw estimate through
        before = ~run.active
        np.testing.assert_array_equal(run.theta_ftc.values[before], hat.values[before])

    def test_alert_pipeline_exact_after_activation(self):
        delta = sine_delta(3.0)
        theta = 10.0
        hat = envelope_estimate(delta, 2.0, theta=theta, theta_hat0=0.0)
        run = run_ftc_alert(hat, delta, FtcConfig(gamma=2.0, clip_threshold=0.98, delay_window=0.2))
        assert run.t_c == pytest.approx(0.2, abs=1e-12)
        t = delta.times()
        after = t >= run.t_c
        assert np.abs(run.theta_ftc.values[after] - theta).max() <= 1e-8 * theta

    def test_alertness_contrast(self):
        # with persistent excitation the full-history weight dies out and the
        # plain recovery collapses onto the raw estimate, while the windowed
        # weight keeps oscillating strictly inside (0, 1)
        grid = TimeGrid.from_horizon(25.0, 1e-3)
        t = grid.times()
        delta = Trajectory(grid, np.sin(2 * np.pi * t), "ct")
        theta = 10.0
        hat = envelope_estimate(delta, 2.0, theta=theta, theta_hat0=0.0)
        cfg = FtcConfig(gamma=2.0, clip_threshold=0.98, delay_window=0.2)
        plain = run_ftc(hat, delta, cfg)
        alert = run_ftc_alert(hat, delta, cfg)
        late = t >= 20.0
        gap = np.abs(plain.theta_ftc.values[late] - hat.values[late])
        assert gap.max() <= 1e-6 * (1.0 + theta)
        wd_late = alert.w_delayed.values[late]
        assert wd_late.min() >= 0.5
        assert wd_late.max() <= 0.97

    def test_alert_reacquires_after_jump(self):
        # parameter jumps mid-run: the plain recovery stays glued to the raw
        # estimate, the windowed one recovers the new value
        grid = TimeGrid.from_horizon(20.0, 1e-3)
        t = grid.times()
        delta_vals = np.sin(2 * np.pi * t)
        delta = Trajectory(grid, delta_vals, "ct")
        theta = np.where(t < 10.0, 10.0, 15.0)
        y = delta_vals * theta
        mixed = MixedRegression(
            calY=Trajectory(grid, y[:, None], "ct"), Delta=delta
        )
        est = drem_ct(mixed, GradientConfig(2.0, np.array([0.0])))
        hat = Trajectory(grid, est.theta_hat.values[:, 0], "ct")
        cfg = FtcConfig(gamma=2.0, clip_threshold=0.98, delay_window=0.2)
        plain = run_ftc(hat, delta, cfg)
        alert = run_ftc_alert(hat, delta, cfg)
        settle = (t >= 11.0) & (t <= 19.0)
        assert np.abs(alert.theta_ftc.values[settle] - 15.0).max() <= 1e-3
        tail = t >= 12.0
        assert np.abs(plain.theta_ftc.values[tail] - hat.values[tail]).max() <= 1e-3


class TestBadDelta:
    # cumulative_energy integrates Delta^2 for every reader, so its check is
    # theirs: a NaN, an infinity or a square that overflows raises, and no
    # RuntimeWarning escapes
    READERS = {
        "run_ftc": lambda hat, delta: run_ftc(hat, delta, FtcConfig(gamma=2.0)),
        "run_ftc_alert": lambda hat, delta: run_ftc_alert(hat, delta, FtcConfig(gamma=2.0)),
        "closed_form_error_ct": lambda hat, delta: closed_form_error_ct(delta, 2.0, 1.0),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("reader", list(READERS))
    def test_raises(self, reader, bad):
        delta = sine_delta(1.0)
        values = delta.values.copy()
        values[400] = bad
        hat = ct_scalar(np.ones(delta.grid.count))
        with pytest.raises(FloatingPointError, match=r"cumulative_energy: non-finite Delta\^2"):
            self.READERS[reader](hat, delta.with_values(values))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_vector_estimates_equal_per_column_calls(rng):
    # Delta switches off at t = 1, so the late windows are unusable samples
    grid = TimeGrid.from_horizon(2.0, 1e-3)
    t = grid.times()
    delta = Trajectory(grid, np.where(t < 1.0, np.sin(2 * np.pi * t), 0.0), "ct")
    hat = Trajectory(grid, rng.normal(size=(grid.count, 3)), "ct")
    theta_hat0 = rng.normal(size=3)
    wc = clip_w(update_w(delta, 2.0), 0.98)
    alert = alert_run(delta, 2.0, 0.2, hat)
    assert np.any(1.0 - alert.w_delayed.values <= MIN_WINDOW_DEFICIT)
    plain = ftc_estimate(hat, wc, theta_hat0).values
    for i in range(3):
        column = Trajectory(grid, hat.values[:, i].copy(), "ct")
        assert same_bits(plain[:, i], ftc_estimate(column, wc, theta_hat0[i : i + 1]).values)
        column_run = alert_run(delta, 2.0, 0.2, column)
        assert same_bits(alert.theta_ftc.values[:, i], column_run.theta_ftc.values)
        assert same_bits(alert.active, column_run.active)


# Reference copies of the recovery pipelines as they were when each one
# integrated Delta^2 once per weight and once per activation search.


def old_energy(delta, gamma):
    return gamma * cumulative_simpson(delta.values * delta.values, delta.grid.step)


def old_activation(cond, times):
    return float(times[int(np.argmax(cond))]) if cond.any() else None


def old_run_ftc(theta_hat, delta, cfg):
    """(theta_ftc, w, w_clipped, w_delayed, t_c, active) of the old run_ftc."""
    mu = cfg.clip_threshold
    w = np.minimum(np.exp(-old_energy(delta, cfg.gamma)), 1.0)
    wc = np.where(w >= mu, mu, w)
    t_c = old_activation(old_energy(delta, cfg.gamma) >= -np.log(mu), delta.times())
    active = w < mu
    hat = theta_hat.values
    th0 = np.atleast_1d(np.asarray(hat[0], dtype=float))
    estimate = (hat - wc * th0[0]) / (1.0 - wc)
    return np.where(active, estimate, hat), w, wc, None, t_c, active


def old_alert_recovery(theta_hat, wd, t_c, cfg):
    """Copy of the recovery body run_ftc_alert had before the two pipelines
    shared one recovery routine: (theta_ftc, active)."""
    hat = theta_hat.values
    active = np.zeros(theta_hat.grid.count, dtype=bool)
    out = hat.copy()
    if t_c is not None:
        start = theta_hat.grid.index_of(t_c)
        usable = 1.0 - wd > MIN_WINDOW_DEFICIT
        active[start:] = usable[start:]
        lag = int(round(cfg.delay_window / theta_hat.grid.step))
        snap = np.empty_like(hat)
        snap[:lag] = hat[0]
        snap[lag:] = hat[:-lag]
        sel = active
        out[sel] = (hat[sel] - wd[sel] * snap[sel]) / (1.0 - wd[sel])
    return out, active


def old_run_ftc_alert(theta_hat, delta, cfg):
    """(theta_ftc, w, w_clipped, w_delayed, t_c, active) of the old run_ftc_alert."""
    mu = cfg.clip_threshold
    lag = int(round(cfg.delay_window / delta.grid.step))
    w = np.minimum(np.exp(-old_energy(delta, cfg.gamma)), 1.0)
    wd = np.minimum(np.exp(-lagged_difference(old_energy(delta, cfg.gamma), lag)), 1.0)
    wdc = np.where(wd >= mu, mu, wd)
    cond = lagged_difference(old_energy(delta, cfg.gamma), lag) >= -np.log(mu)
    cond[:lag] = False
    t_c = old_activation(cond, delta.times())
    out, active = old_alert_recovery(theta_hat, wd, t_c, cfg)
    return out, w, wdc, wd, t_c, active


PIPELINE_SETTINGS = [
    {"gamma": 2.0, "clip_threshold": 0.98, "delay_window": 0.2},
    {"gamma": 3.5, "clip_threshold": 0.9, "delay_window": 0.35},
]


@pytest.mark.parametrize("kind", ["pe", "nonpe", "random"])
def test_alert_pipeline_matches_old_recovery_body(kind):
    # both pipelines against the old copies, every FtcRun field bit for bit,
    # at the default and at non-default gain, threshold and window
    for settings in PIPELINE_SETTINGS:
        cfg = FtcConfig(**settings)
        if kind == "random":
            # a silent stretch longer than the window leaves unusable samples
            rng = np.random.default_rng(2024)
            grid = TimeGrid.from_horizon(6.0, 1e-3)
            t = grid.times()
            delta = Trajectory(grid, rng.normal(size=grid.count) * ((t < 2.0) | (t > 3.5)), "ct")
            hat = Trajectory(grid, np.cumsum(rng.normal(scale=1e-2, size=grid.count)), "ct")
            runs = {"ftc": run_ftc(hat, delta, cfg), "ftc_d": run_ftc_alert(hat, delta, cfg)}
        else:
            result = run_ftc_scenario(kind, ftc=cfg)
            delta = result.runs["gradient"].diagnostics
            hat = Trajectory(result.grid, result.runs["gradient"].theta_hat.values[:, 0], "ct")
            runs = result.ftc_runs
        for name, old_pipeline in (("ftc", old_run_ftc), ("ftc_d", old_run_ftc_alert)):
            run = runs[name]
            theta_ftc, w, w_clipped, w_delayed, t_c, active = old_pipeline(hat, delta, cfg)
            assert run.t_c is not None and run.t_c == t_c
            assert same_bits(run.theta_ftc.values, theta_ftc)
            assert same_bits(run.w.values, w)
            assert same_bits(run.w_clipped.values, w_clipped)
            assert (run.w_delayed is None) == (w_delayed is None)
            assert w_delayed is None or same_bits(run.w_delayed.values, w_delayed)
            assert same_bits(run.active, active)
