import numpy as np
import pytest

from dremkit.estimators import (
    _BLOCK,
    GradientConfig,
    closed_form_error_ct,
    closed_form_error_dt,
    ct_gradient,
    drem_ct,
    drem_dt,
    dt_gradient,
)
from dremkit.ftc import FtcConfig, update_w
from dremkit.mixing import MixedRegression
from dremkit.scenarios import RegressorSpec, run_ftc_scenario
from dremkit.signals import TimeGrid, Trajectory


def ct_scalar(values, step=1e-3):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(0.0, step, len(values)), values, "ct")


def dt_scalar(values):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(0.0, 1.0, len(values)), values, "dt")


def exact_mixed(delta: Trajectory, theta: np.ndarray) -> MixedRegression:
    """Mixed data satisfying calY_i = Delta * theta_i exactly."""
    calY = delta.values[:, None] * np.asarray(theta, float)
    return MixedRegression(
        calY=Trajectory(delta.grid, calY, delta.kind), Delta=delta
    )


def smooth_random_delta(rng, grid, n_terms=3, max_freq=np.pi, amp=1.0):
    t = grid.times()
    out = np.zeros(grid.count)
    for _ in range(n_terms):
        out += (
            rng.uniform(-amp, amp)
            * np.sin(rng.uniform(0.1, max_freq) * t + rng.uniform(0, 2 * np.pi))
            / n_terms
        )
    return Trajectory(grid, out, "ct")


class TestConfig:
    def test_gain_validation(self):
        with pytest.raises(ValueError):
            GradientConfig(gamma=0.0, theta_hat0=np.zeros(2))
        with pytest.raises(ValueError):
            GradientConfig(gamma=[1.0, -1.0], theta_hat0=np.zeros(2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: GradientConfig(gamma=g, theta_hat0=np.zeros(1)),
            lambda g: GradientConfig(gamma=[1.0, g], theta_hat0=np.zeros(2)),
            lambda g: FtcConfig(gamma=g),
            lambda g: FtcConfig(gamma=1.0, delay_window=g),
            lambda g: RegressorSpec(pole=g),
            lambda g: closed_form_error_ct(ct_scalar(np.ones(5)), g, 1.0),
            lambda g: closed_form_error_dt(dt_scalar(np.ones(5)), g, 1.0),
            lambda g: update_w(ct_scalar(np.ones(5)), g),
        ],
        ids=["gradient", "gradient-vector", "ftc", "ftc-window", "pole", "envelope-ct",
             "envelope-dt", "ftc-energy"],
    )
    def test_gain_must_be_finite_and_positive(self, build):
        # NaN compares False with 0, so a `gain <= 0` check lets it through
        for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                build(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_initial_estimate_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="theta_hat0"):
            GradientConfig(gamma=1.0, theta_hat0=np.array([0.0, bad]))
        with pytest.raises(ValueError, match="theta_hat0"):
            run_ftc_scenario("pe", horizon=0.1, theta_hat0=bad)


class TestCtGradient:
    def test_zero_regressor_freezes_estimate(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        y = Trajectory(grid, np.zeros(grid.count), "ct")
        phi = Trajectory(grid, np.zeros((grid.count, 2)), "ct")
        run = ct_gradient(y, phi, GradientConfig(1.0, np.array([1.0, -2.0])))
        np.testing.assert_array_equal(run.theta_hat.values[-1], [1.0, -2.0])

    def test_scalar_exponential_closed_form(self):
        # phi = 1, y = theta: error decays as exp(-gamma t)
        theta = 3.0
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        y = Trajectory(grid, np.full(grid.count, theta), "ct")
        phi = Trajectory(grid, np.ones((grid.count, 1)), "ct")
        run = ct_gradient(y, phi, GradientConfig(1.0, np.array([0.0])), theta_true=[theta])
        expected = np.exp(-1.0) * (0.0 - theta)
        assert abs(run.theta_tilde.values[-1, 0] - expected) <= 1e-6

    def test_norm_monotone_for_exact_regression(self, rng):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        t = grid.times()
        theta = np.array([1.0, -0.5])
        phi_vals = np.stack([np.sin(2 * t) + 0.3, np.cos(3 * t)], axis=1)
        phi = Trajectory(grid, phi_vals, "ct")
        y = Trajectory(grid, phi_vals @ theta, "ct")
        run = ct_gradient(y, phi, GradientConfig(1.0, np.zeros(2)), theta_true=theta)
        norms = np.linalg.norm(run.theta_tilde.values, axis=1)
        assert np.all(np.diff(norms) <= 1e-6)


class TestDtGradient:
    def test_zero_regressor_freezes_estimate(self):
        grid = TimeGrid(0.0, 1.0, 10)
        y = Trajectory(grid, np.zeros(10), "dt")
        phi = Trajectory(grid, np.zeros((10, 2)), "dt")
        run = dt_gradient(y, phi, GradientConfig(1.0, np.array([2.0, 3.0])))
        np.testing.assert_array_equal(run.theta_hat.values[-1], [2.0, 3.0])

    def test_scalar_halving(self):
        # phi = 1, gamma = 1: error halves every step, no update at index 0
        theta = 2.0
        grid = TimeGrid(0.0, 1.0, 8)
        y = Trajectory(grid, np.full(8, theta), "dt")
        phi = Trajectory(grid, np.ones((8, 1)), "dt")
        run = dt_gradient(y, phi, GradientConfig(1.0, np.array([0.0])), theta_true=[theta])
        err0 = -theta
        for k in range(8):
            assert run.theta_tilde.values[k, 0] == pytest.approx(err0 * 0.5**k, rel=1e-12)

    def test_matches_transition_matrix_product(self, rng):
        # oracle: err(k) = prod of [I - phi phi^T / (gamma + |phi|^2)] err(0)
        n, gamma = 60, 1.5
        grid = TimeGrid(0.0, 1.0, n)
        theta = np.array([0.7, -1.2])
        phi_vals = rng.normal(size=(n, 2))
        y_vals = phi_vals @ theta
        run = dt_gradient(
            Trajectory(grid, y_vals, "dt"),
            Trajectory(grid, phi_vals, "dt"),
            GradientConfig(gamma, np.zeros(2)),
            theta_true=theta,
        )
        err = -theta.copy()
        for k in range(1, n):
            p = phi_vals[k]
            err = (np.eye(2) - np.outer(p, p) / (gamma + p @ p)) @ err
            np.testing.assert_allclose(run.theta_tilde.values[k], err, atol=1e-12)
        # geometric decay under an excited regressor
        assert np.linalg.norm(run.theta_tilde.values[-1]) < 1e-3

    def test_norm_never_increases(self, rng):
        n = 200
        grid = TimeGrid(0.0, 1.0, n)
        theta = np.zeros(2)
        phi_vals = rng.uniform(-3, 3, size=(n, 2))
        run = dt_gradient(
            Trajectory(grid, phi_vals @ theta, "dt"),
            Trajectory(grid, phi_vals, "dt"),
            GradientConfig(1.0, rng.normal(size=2)),
            theta_true=theta,
        )
        norms = np.linalg.norm(run.theta_tilde.values, axis=1)
        assert np.all(np.diff(norms) <= 0.0)


class TestNonFiniteDtData:
    # rejected by name before any arithmetic, so no RuntimeWarning escapes
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("signal", ["y", "phi"])
    def test_dt_gradient(self, signal, bad):
        grid = TimeGrid(0.0, 1.0, 6)
        values = {"y": np.ones(6), "phi": np.ones((6, 2))}
        values[signal][3] = bad
        y, phi = (Trajectory(grid, values[k], "dt") for k in ("y", "phi"))
        with pytest.raises(FloatingPointError, match=f"dt_gradient: non-finite {signal} "):
            dt_gradient(y, phi, GradientConfig(1.0, np.zeros(2)))

    # drem_dt's data is refused when its MixedRegression is built
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("signal", ["Delta", "calY"])
    def test_drem_dt(self, signal, bad):
        grid = TimeGrid(0.0, 1.0, 6)
        values = {"Delta": np.ones(6), "calY": np.ones((6, 2))}
        values[signal][3] = bad
        with pytest.raises(FloatingPointError, match=f"MixedRegression: non-finite {signal} "):
            MixedRegression(
                calY=Trajectory(grid, values["calY"], "dt"), Delta=Trajectory(grid, values["Delta"], "dt")
            )


class TestNonFiniteCtData:
    # rejected by name before any arithmetic, so no RuntimeWarning escapes
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("signal", ["y", "phi"])
    def test_ct_gradient(self, signal, bad):
        grid = TimeGrid(0.0, 1e-3, 6)
        values = {"y": np.ones(6), "phi": np.ones((6, 2))}
        values[signal][3] = bad
        y, phi = (Trajectory(grid, values[k], "ct") for k in ("y", "phi"))
        with pytest.raises(FloatingPointError, match=f"ct_gradient: non-finite {signal} "):
            ct_gradient(y, phi, GradientConfig(1.0, np.zeros(2)))

    # drem_ct's data is refused when its MixedRegression is built
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("signal", ["Delta", "calY"])
    def test_drem_ct(self, signal, bad):
        grid = TimeGrid(0.0, 1e-3, 6)
        values = {"Delta": np.ones(6), "calY": np.ones((6, 2))}
        values[signal][3] = bad
        with pytest.raises(FloatingPointError, match=f"MixedRegression: non-finite {signal} "):
            MixedRegression(
                calY=Trajectory(grid, values["calY"], "ct"), Delta=Trajectory(grid, values["Delta"], "ct")
            )


class TestOverflowingData:
    # one finite sample of 1e200 squares to inf: each estimator raises, and
    # under the suite's error::RuntimeWarning filter no overflow warning escapes
    @pytest.mark.parametrize(
        "estimator, kind, match",
        [(ct_gradient, "ct", "non-finite state"), (dt_gradient, "dt", r"dt_gradient: non-finite \|phi\|\^2 ")],
    )
    def test_vector_estimators(self, estimator, kind, match):
        grid = TimeGrid(0.0, 1e-3, 6)
        phi = np.ones((6, 2))
        phi[3, 0] = 1e200
        y, phi = Trajectory(grid, np.ones(6), kind), Trajectory(grid, phi, kind)
        with pytest.raises(FloatingPointError, match=match):
            estimator(y, phi, GradientConfig(1.0, np.zeros(2)))

    @pytest.mark.parametrize(
        "estimator, kind, match",
        [(drem_ct, "ct", "non-finite state"), (drem_dt, "dt", r"drem_dt: non-finite Delta\^2 ")],
    )
    def test_mixed_estimators(self, estimator, kind, match):
        grid = TimeGrid(0.0, 1e-3, 6)
        delta = np.ones(6)
        delta[3] = 1e200
        mixed = exact_mixed(Trajectory(grid, delta, kind), [1.0, -1.0])
        with pytest.raises(FloatingPointError, match=match):
            estimator(mixed, GradientConfig(1.0, np.zeros(2)))


class TestDremCt:
    def test_zero_delta_freezes(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        delta = Trajectory(grid, np.zeros(grid.count), "ct")
        run = drem_ct(exact_mixed(delta, [5.0]), GradientConfig(1.0, np.array([1.0])))
        np.testing.assert_array_equal(run.theta_hat.values[:, 0], np.ones(grid.count))

    def test_constant_delta_exponential(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        delta = Trajectory(grid, np.ones(grid.count), "ct")
        run = drem_ct(
            exact_mixed(delta, [2.0]),
            GradientConfig(1.0, np.array([0.0])),
            theta_true=[2.0],
        )
        assert run.theta_tilde.values[-1, 0] == pytest.approx(-2.0 * np.exp(-1.0), rel=1e-6)

    def test_sine_delta_halved_energy(self):
        # int_0^1 sin(2 pi s)^2 ds = 1/2, so the error ratio is exp(-gamma/2)
        grid = TimeGrid.from_horizon(1.0, 2.5e-4)
        t = grid.times()
        delta = Trajectory(grid, np.sin(2 * np.pi * t), "ct")
        run = drem_ct(
            exact_mixed(delta, [1.0]),
            GradientConfig(2.0, np.array([0.0])),
            theta_true=[1.0],
        )
        ratio = run.theta_tilde.values[-1, 0] / run.theta_tilde.values[0, 0]
        assert abs(ratio - np.exp(-1.0)) <= 1e-6

    def test_matches_closed_form_envelope(self, rng):
        grid = TimeGrid.from_horizon(5.0, 1e-3)
        delta = smooth_random_delta(rng, grid)
        run = drem_ct(
            exact_mixed(delta, [1.0]),
            GradientConfig(1.0, np.array([0.0])),
            theta_true=[1.0],
        )
        envelope = closed_form_error_ct(delta, 1.0, -1.0)
        rel = np.abs(run.theta_tilde.values[:, 0] - envelope.values) / np.abs(envelope.values)
        assert rel.max() <= 1e-5

    def test_per_element_monotone(self, rng):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        delta = smooth_random_delta(rng, grid, amp=2.0)
        theta = np.array([1.0, -2.0, 0.5])
        run = drem_ct(
            exact_mixed(delta, theta),
            GradientConfig([1.0, 2.0, 0.5], rng.normal(size=3)),
            theta_true=theta,
        )
        err = np.abs(run.theta_tilde.values)
        assert np.all(np.diff(err, axis=0) <= 1e-9)

    def test_gain_scaling_squares_envelope(self, rng):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        delta = smooth_random_delta(rng, grid)
        env1 = closed_form_error_ct(delta, 1.0, 1.0)
        env2 = closed_form_error_ct(delta, 2.0, 1.0)
        np.testing.assert_allclose(env2.values, env1.values**2, rtol=1e-12)
        # the integrated runs follow the same law within integration error
        run1 = drem_ct(exact_mixed(delta, [0.0]), GradientConfig(1.0, np.array([1.0])), theta_true=[0.0])
        run2 = drem_ct(exact_mixed(delta, [0.0]), GradientConfig(2.0, np.array([1.0])), theta_true=[0.0])
        np.testing.assert_allclose(
            run2.theta_tilde.values[:, 0],
            run1.theta_tilde.values[:, 0] ** 2,
            atol=1e-6,
        )


class TestDremDt:
    def test_zero_delta_freezes(self):
        grid = TimeGrid(0.0, 1.0, 10)
        delta = Trajectory(grid, np.zeros(10), "dt")
        run = drem_dt(exact_mixed(delta, [5.0]), GradientConfig(1.0, np.array([3.0])))
        np.testing.assert_array_equal(run.theta_hat.values[:, 0], np.full(10, 3.0))

    def test_unit_delta_halving(self):
        grid = TimeGrid(0.0, 1.0, 8)
        delta = Trajectory(grid, np.ones(8), "dt")
        run = drem_dt(
            exact_mixed(delta, [4.0]),
            GradientConfig(1.0, np.array([0.0])),
            theta_true=[4.0],
        )
        for k in range(8):
            assert run.theta_tilde.values[k, 0] == pytest.approx(-4.0 * 0.5**k, rel=1e-12)

    def test_matches_product_formula(self, rng):
        grid = TimeGrid(0.0, 1.0, 500)
        delta = Trajectory(grid, rng.uniform(-1, 1, 500), "dt")
        theta = 0.7
        run = drem_dt(
            exact_mixed(delta, [theta]),
            GradientConfig(3.0, np.array([1.5])),
            theta_true=[theta],
        )
        envelope = closed_form_error_dt(delta, 3.0, 1.5 - theta)
        np.testing.assert_allclose(
            run.theta_tilde.values[:, 0], envelope.values, rtol=0, atol=1e-13
        )

    def test_per_element_monotone_exact(self, rng):
        # homogeneous error dynamics: theta = 0 keeps the recursion a pure
        # product of contraction factors, monotone in exact arithmetic
        grid = TimeGrid(0.0, 1.0, 300)
        delta = Trajectory(grid, rng.uniform(-3, 3, 300), "dt")
        theta = np.zeros(2)
        run = drem_dt(
            exact_mixed(delta, theta),
            GradientConfig([1.0, 0.3], rng.normal(size=2)),
            theta_true=theta,
        )
        err = np.abs(run.theta_tilde.values)
        assert np.all(np.diff(err, axis=0) <= 0.0)


class TestClosedForms:
    def test_ct_zero_delta(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        env = closed_form_error_ct(Trajectory(grid, np.zeros(grid.count), "ct"), 1.0, 2.5)
        np.testing.assert_array_equal(env.values, np.full(grid.count, 2.5))

    def test_ct_constant_delta(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        env = closed_form_error_ct(Trajectory(grid, np.full(grid.count, 2.0), "ct"), 0.5, 1.0)
        np.testing.assert_allclose(env.values, np.exp(-0.5 * 4.0 * grid.times()), rtol=1e-9)

    def test_ct_sine_against_antiderivative(self):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        t = grid.times()
        env = closed_form_error_ct(Trajectory(grid, np.sin(2 * np.pi * t), "ct"), 1.0, 1.0)
        exact = np.exp(-(t / 2.0 - np.sin(4 * np.pi * t) / (8 * np.pi)))
        for tq in (0.25, 1.0, 2.0):
            k = int(round(tq / 1e-3))
            assert abs(env.values[k] - exact[k]) <= 1e-8

    def test_dt_zero_delta(self):
        grid = TimeGrid(0.0, 1.0, 6)
        env = closed_form_error_dt(Trajectory(grid, np.zeros(6), "dt"), 1.0, 3.0)
        np.testing.assert_array_equal(env.values, np.full(6, 3.0))

    def test_dt_unit_delta(self):
        # no update at index 0, then a factor 1/2 per step
        grid = TimeGrid(0.0, 1.0, 6)
        env = closed_form_error_dt(Trajectory(grid, np.ones(6), "dt"), 1.0, 1.0)
        np.testing.assert_allclose(env.values, 0.5 ** np.arange(6), rtol=1e-14)

    @pytest.mark.parametrize("bad, label", [(np.nan, "Delta"), (-np.inf, "Delta"), (1e200, r"Delta\^2")])
    def test_dt_bad_delta_raises(self, bad, label):
        # a NaN used to give a NaN envelope from its index on, and 1e200 an
        # overflow warning from squaring
        delta = np.ones(6)
        delta[3] = bad
        with pytest.raises(FloatingPointError, match=f"closed_form_error_dt: non-finite {label} "):
            closed_form_error_dt(dt_scalar(delta), 1.0, 1.0)

    def test_dt_factor_overflow_is_its_limit(self):
        # Delta^2 = 1e300 is finite, Delta^2 / gamma is not: the factor is 0
        env = closed_form_error_dt(dt_scalar([1.0, 1.0, 1e150, 1.0]), 1e-10, 1.0)
        np.testing.assert_array_equal(env.values[2:], [0.0, 0.0])

    def test_convergence_certificate(self, rng):
        # once the accumulated energy passes -ln(eps)/gamma the envelope is
        # below eps times the initial error
        grid = TimeGrid.from_horizon(10.0, 1e-3)
        delta = smooth_random_delta(rng, grid, amp=2.0)
        gamma, eps = 1.5, 1e-3
        env = closed_form_error_ct(delta, gamma, 1.0)
        from dremkit.quadrature import cumulative_simpson

        energy = cumulative_simpson(delta.values**2, grid.step)
        crossed = energy >= -np.log(eps) / gamma
        if crossed.any():
            assert np.all(np.abs(env.values[crossed]) <= eps * (1 + 1e-12))


# Copies of the per-sample DT loops that drem_dt's block-wise recursion and
# dt_gradient's scan of step maps replaced.


def old_dt_gradient(yv, pv, g, x0):
    th = np.empty((len(yv), pv.shape[1]))
    x = np.asarray(x0, float).copy()
    th[0] = x
    for k in range(1, len(yv)):
        p = pv[k]
        x = x + p / (g + p @ p) * (yv[k] - p @ x)
        th[k] = x
    return th


def old_drem_dt(D, Yc, gamma, x0):
    th = np.empty(Yc.shape)
    x = np.asarray(x0, float).copy()
    th[0] = x
    for k in range(1, len(D)):
        d = D[k]
        x = x + d / (gamma + d * d) * (Yc[k] - d * x)
        th[k] = x
    return th


# record lengths around the block size, including records longer than one block
COUNTS = [1, 2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]


class TestDtRecursionsMatchOldLoops:
    @pytest.mark.parametrize("count", COUNTS)
    def test_drem_dt_bit_for_bit(self, count, rng):
        grid = TimeGrid(0.0, 1.0, count)
        D = rng.uniform(-2.0, 2.0, count)
        Yc = D[:, None] * np.array([0.7, -1.5, 3.0]) + 0.1 * rng.normal(size=(count, 3))
        gamma = np.array([1.0, 0.3, 4.0])
        x0 = np.array([1.0, 2.0, -0.5])
        mixed = MixedRegression(Trajectory(grid, Yc, "dt"), Trajectory(grid, D, "dt"))
        run = drem_dt(mixed, GradientConfig(gamma, x0))
        np.testing.assert_array_equal(run.theta_hat.values, old_drem_dt(D, Yc, gamma, x0))

    # every count at m = 1..4; the m = 3 cases keep the bare count as their id
    @pytest.mark.parametrize(
        "count, m",
        [pytest.param(c, m, id=str(c) if m == 3 else f"{c}-m{m}") for m in (1, 2, 3, 4) for c in COUNTS],
    )
    def test_dt_gradient_to_rounding(self, count, m, rng):
        # the scan composes the step maps in another order than the loop, so
        # agreement is to 1e-12 relative, not bit for bit
        grid = TimeGrid(0.0, 1.0, count)
        pv = rng.uniform(-2.0, 2.0, (count, m))
        yv = pv @ np.linspace(-1.0, 2.0, m) + 0.05 * rng.normal(size=count)
        x0 = np.linspace(3.0, -1.0, m)
        phi = Trajectory(grid, pv, "dt")
        run = dt_gradient(Trajectory(grid, yv, "dt"), phi, GradientConfig(1.3, x0))
        ref = old_dt_gradient(yv, pv, 1.3, x0)
        np.testing.assert_allclose(
            run.theta_hat.values, ref, rtol=0, atol=1e-12 * np.abs(ref).max()
        )
        np.testing.assert_array_equal(run.diagnostics.values, np.einsum("ki,ki->k", pv, pv))
        # homogeneous error dynamics (y = 0, theta = 0): the error norm may
        # rise only by rounding, as perfbench's "DT gradient |err|
        # non-increasing" bounds it
        homog = dt_gradient(Trajectory(grid, np.zeros(count), "dt"), phi, GradientConfig(1.3, x0))
        norms = np.linalg.norm(homog.theta_hat.values, axis=1)
        assert np.all(np.diff(norms) <= 1e-12 * np.linalg.norm(x0))
