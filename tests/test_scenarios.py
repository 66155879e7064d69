import dataclasses

import numpy as np
import pytest

from dremkit.scenarios import (
    _tracking_truth,
    Constant,
    PlantSpec,
    RegressorSpec,
    Sinusoid,
    build_regressor,
    convergence_time,
    run_ftc_scenario,
    run_identification_scenario,
    simulate_plant,
)
from dremkit.signals import TimeGrid, Trajectory


class TestSimulatePlant:
    @pytest.mark.parametrize("drive", [Sinusoid(15.0, 2.5, 1.0), Constant(15.0)])
    def test_named_input_matches_a_plain_callable(self, drive):
        # the input is called on whole arrays of times, so a named signal and
        # a plain numpy function of the same formula agree bit for bit
        plain = {
            Sinusoid: lambda t: 15.0 * np.sin(2.5 * t + 1.0),
            Constant: lambda t: np.full_like(t, 15.0),
        }[type(drive)]
        grid = TimeGrid.from_horizon(5.0, 1e-3)
        u, y = simulate_plant(PlantSpec(a=-0.4, b=0.4, y0=0.3, input=drive), grid)
        u_ref, y_ref = simulate_plant(PlantSpec(a=-0.4, b=0.4, y0=0.3, input=plain), grid)
        np.testing.assert_array_equal(u.values, u_ref.values)
        np.testing.assert_array_equal(y.values, y_ref.values)

    def test_pure_integrator(self):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        u, y = simulate_plant(PlantSpec(a=0.0, b=1.0, input=Constant(1.0)), grid)
        np.testing.assert_allclose(y.values, grid.times(), atol=1e-10)

    def test_step_response_steady_state(self):
        grid = TimeGrid.from_horizon(30.0, 1e-3)
        u, y = simulate_plant(PlantSpec(a=-0.4, b=0.4, input=Constant(15.0)), grid)
        # closed form 15 (1 - exp(-0.4 t)); the transient still contributes
        # 15 exp(-12) = 9.2e-5 at the horizon, so compare against the full
        # solution and bound the distance to the steady state -b u / a = 15
        expected = 15.0 * (1.0 - np.exp(-0.4 * grid.times()))
        np.testing.assert_allclose(y.values, expected, atol=1e-9)
        assert abs(y.values[-1] - 15.0 * 0.4 / 0.4) <= 1e-4

    def test_sinusoid_frequency_response(self):
        # closed form: particular sinusoid plus decaying transient
        a, b, A, w, ph = -0.4, 0.4, 15.0, 2.5, 1.0
        grid = TimeGrid.from_horizon(35.0, 1e-3)
        u, y = simulate_plant(
            PlantSpec(a=a, b=b, input=Sinusoid(A, w, ph)), grid
        )
        H = b / complex(-a, w)  # transfer at j*w for y' = a y + b u
        t = grid.times()
        particular = A * abs(H) * np.sin(w * t + ph + np.angle(H))
        expected = particular - particular[0] * np.exp(a * t)
        np.testing.assert_allclose(y.values, expected, atol=1e-8)
        late = t >= 32.0  # transient below 1e-5 only from about t = 29
        np.testing.assert_allclose(y.values[late], particular[late], atol=1e-5)


class TestBuildRegressor:
    def test_true_parameters(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        plant = PlantSpec(a=-0.4, b=0.4, input=Constant(15.0))
        u, y = simulate_plant(plant, grid)
        phi, theta = build_regressor(RegressorSpec(pole=5.0), plant, u, y)
        np.testing.assert_allclose(theta, [4.6, 0.4])

    def test_zero_input_zero_regressor(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        plant = PlantSpec(a=-0.4, b=0.4, input=Constant(0.0))
        u, y = simulate_plant(plant, grid)
        phi, theta = build_regressor(RegressorSpec(pole=5.0), plant, u, y)
        np.testing.assert_array_equal(phi.values, np.zeros_like(phi.values))

    @pytest.mark.parametrize("kind", ["constant", "rich"])
    def test_regression_residual_small_after_transient(self, kind):
        grid = TimeGrid.from_horizon(5.0, 1e-3)
        drive = Constant(15.0) if kind == "constant" else Sinusoid(15.0, 2.5, 1.0)
        plant = PlantSpec(a=-0.4, b=0.4, y0=1.0, input=drive)
        u, y = simulate_plant(plant, grid)
        phi, theta = build_regressor(RegressorSpec(pole=5.0), plant, u, y)
        residual = y.values - phi.values @ theta
        late = grid.times() >= 2.0
        assert np.abs(residual[late]).max() <= 1e-3


class TestConvergenceTime:
    def make(self, err):
        err = np.asarray(err, float)
        grid = TimeGrid(0.0, 1.0, len(err))
        return Trajectory(grid, err, "ct")

    def test_sustained_requirement(self):
        # a transient dip below tolerance does not count
        err = self.make([1.0, 0.005, 0.5, 0.005, 0.004, 0.003])
        assert convergence_time(err, tol=0.01) == 3.0

    def test_never_converges(self):
        assert convergence_time(self.make([1.0, 0.5, 0.2]), tol=0.01) is None

    def test_from_time_cutoff(self):
        err = self.make([0.001, 0.001, 0.001, 0.001])
        assert convergence_time(err, tol=0.01) == 0.0
        assert convergence_time(err, tol=0.01, from_time=2.0) == 2.0


@pytest.fixture(scope="module")
def constant_run():
    return run_identification_scenario("constant", horizon=6.0)


@pytest.fixture(scope="module")
def pe_run():
    return run_ftc_scenario("pe", horizon=40.0)


class TestRunRecord:
    """Every value of a study result is read off its runs."""

    def test_ftc_runs_are_the_runs_recoveries(self, constant_run, pe_run):
        assert constant_run.ftc_runs == {}
        assert all(run.recovery is None for run in constant_run.runs.values())
        assert set(pe_run.ftc_runs) == {"ftc", "ftc_d"}
        for result in (constant_run, pe_run):
            recovered = {name for name, run in result.runs.items() if run.recovery is not None}
            assert set(result.ftc_runs) == recovered
            for name, recovery in result.ftc_runs.items():
                assert recovery is result.runs[name].recovery

    def test_recovery_estimate_stays_one_dimensional(self, pe_run):
        # the run's estimate is the (N, 1) reshape of the 1-D recovered one
        for name in ("ftc", "ftc_d"):
            run = pe_run.runs[name]
            assert run.recovery.theta_ftc.values.ndim == 1
            assert run.theta_hat.values.shape == (pe_run.grid.count, 1)
            np.testing.assert_array_equal(run.theta_hat.values[:, 0], run.recovery.theta_ftc.values)

    def test_final_errors_are_the_last_errors(self, constant_run, pe_run):
        for result in (constant_run, pe_run):
            assert list(result.final_errors) == list(result.runs)
            for name, run in result.runs.items():
                last = np.abs(run.theta_tilde.values[-1])
                assert result.final_errors[name].tobytes() == last.tobytes()

    def test_result_is_frozen(self, pe_run):
        with pytest.raises(dataclasses.FrozenInstanceError):
            pe_run.runs = {}


class TestIdentificationScenario:
    def test_run_names(self, constant_run):
        assert set(constant_run.runs) == {"gradient", "drem_d0", "drem_dN"}

    def test_mixed_runs_per_element_monotone_after_transient(self, constant_run):
        t = constant_run.grid.times()
        late = t >= 2.0
        for name in ("drem_d0", "drem_dN"):
            err = np.abs(constant_run.runs[name].theta_tilde.values)[late]
            assert np.all(np.diff(err, axis=0) <= 1e-9)

    def test_boosted_error_dominated_by_plain(self, constant_run):
        t = constant_run.grid.times()
        late = t >= 2.0
        e0 = np.abs(constant_run.runs["drem_d0"].theta_tilde.values)[late]
        eN = np.abs(constant_run.runs["drem_dN"].theta_tilde.values)[late]
        assert np.all(eN <= e0 + 1e-12)

    def test_boosted_beats_plain_substantially(self, constant_run):
        e0 = constant_run.final_errors["drem_d0"]
        eN = constant_run.final_errors["drem_dN"]
        assert np.all(eN < 0.1 * e0)

    def test_deterministic(self):
        a = run_identification_scenario("constant", horizon=1.0)
        b = run_identification_scenario("constant", horizon=1.0)
        for name in a.runs:
            np.testing.assert_array_equal(
                a.runs[name].theta_hat.values, b.runs[name].theta_hat.values
            )

    def test_rich_input_gradient_error_shrinks(self):
        # convergence is slow here (the filtered output component is small),
        # so assert monotone decay and a solid reduction, not full convergence
        res = run_identification_scenario("rich", horizon=6.0)
        tilde = res.runs["gradient"].theta_tilde.values
        assert np.linalg.norm(tilde[-1]) < 0.65 * np.linalg.norm(tilde[0])
        norms = np.linalg.norm(tilde, axis=1)
        assert np.all(np.diff(norms) <= 1e-6)

    def test_unknown_input_kind(self):
        with pytest.raises(ValueError):
            run_identification_scenario("white-noise", horizon=1.0)

    def test_constant_input_regressor_not_excited(self):
        # the settled regressor is a fixed vector: rank-one Gramian windows
        from dremkit.excitation import pe_check_ct

        grid = TimeGrid.from_horizon(20.0, 1e-3)
        plant = PlantSpec(a=-0.4, b=0.4, input=Constant(15.0))
        u, y = simulate_plant(plant, grid)
        phi, _ = build_regressor(RegressorSpec(pole=5.0), plant, u, y)
        report = pe_check_ct(phi, 2.0)
        assert not report.is_pe
        assert report.alpha_hat < 1e-3

    def test_rich_input_regressor_excited(self):
        from dremkit.excitation import pe_check_ct

        grid = TimeGrid.from_horizon(20.0, 1e-3)
        plant = PlantSpec(a=-0.4, b=0.4, input=Sinusoid(15.0, 2.5, 1.0))
        u, y = simulate_plant(plant, grid)
        phi, _ = build_regressor(RegressorSpec(pole=5.0), plant, u, y)
        report = pe_check_ct(phi, 2.5)
        assert report.is_pe

    def test_single_sample_grid(self):
        res = run_identification_scenario("constant", horizon=0.0)
        assert res.grid.count == 1
        for run in res.runs.values():
            assert run.theta_hat.values.shape[0] == 1


class TestFtcScenario:
    def test_schedule_matches_profile(self, pe_run):
        # the study's errors are its estimates less the sampled truth
        truth = _tracking_truth(pe_run.grid.times())[:, None]
        gradient = pe_run.runs["gradient"]
        np.testing.assert_array_equal(
            gradient.theta_tilde.values, gradient.theta_hat.values - truth
        )
        # each jump takes its new value at its own time (right-continuous)
        t = np.array([9.999, 10.0, 20.0, 25.0, 30.0, 35.0])
        np.testing.assert_array_equal(_tracking_truth(t), [10.0, 15.0, 15.0, 12.5, 10.0, 10.0])

    def test_early_finite_time_convergence(self, pe_run):
        t = pe_run.grid.times()
        ftc = pe_run.ftc_runs["ftc"]
        ftc_d = pe_run.ftc_runs["ftc_d"]
        assert ftc.t_c is not None and ftc.t_c <= 0.1
        assert ftc_d.t_c == pytest.approx(0.2, abs=1e-9)
        both = (t >= 0.2) & (t <= 3.0)
        # the two recoveries coincide and sit on the true value, while the
        # raw estimate is still far away
        diff = np.abs(
            pe_run.runs["ftc"].theta_hat.values[both, 0]
            - pe_run.runs["ftc_d"].theta_hat.values[both, 0]
        )
        assert diff.max() <= 1e-3
        assert np.abs(pe_run.runs["ftc"].theta_tilde.values[both, 0]).max() <= 1e-2
        grad_err = np.abs(pe_run.runs["gradient"].theta_tilde.values[:, 0])
        k3 = int(round(3.0 / 1e-3))
        assert grad_err[k3] > 0.1

    def test_plain_recovery_collapses_to_gradient(self, pe_run):
        t = pe_run.grid.times()
        win = (t >= 12.0) & (t <= 20.0)
        diff = np.abs(
            pe_run.runs["ftc"].theta_hat.values[win, 0]
            - pe_run.runs["gradient"].theta_hat.values[win, 0]
        )
        assert diff.max() <= 1e-3

    def test_alert_recovery_reacquires_jump_and_ramp(self, pe_run):
        t = pe_run.grid.times()
        err_d = np.abs(pe_run.runs["ftc_d"].theta_tilde.values[:, 0])
        after = (t > 10.0) & (t <= 11.0)
        assert err_d[after].min() <= 1e-3
        hold = (t >= 11.0) & (t < 19.9)
        assert err_d[hold].max() <= 1e-3
        ramp = (t >= 21.0) & (t <= 29.0)
        assert err_d[ramp].max() <= 0.2  # window-average lag only
        plain_err = np.abs(pe_run.runs["ftc"].theta_tilde.values[:, 0])
        assert plain_err[hold].max() > 0.1

    def test_nonpe_case_jump_tracking(self):
        res = run_ftc_scenario("nonpe", horizon=40.0)
        t = res.grid.times()
        err_d = np.abs(res.runs["ftc_d"].theta_tilde.values[:, 0])
        hold = (t >= 11.0) & (t < 19.9)
        assert err_d[hold].max() <= 1e-3
        # neither estimator tracks the ramp tightly, but the windowed one
        # stays within its lag bound while the others drift far off
        ramp = (t >= 22.0) & (t <= 28.0)
        assert err_d[ramp].max() <= 0.2
        plain = np.abs(res.runs["ftc"].theta_tilde.values[:, 0])
        grad = np.abs(res.runs["gradient"].theta_tilde.values[:, 0])
        assert plain[ramp].max() > 0.5
        assert grad[ramp].max() > 1.0

    def test_deterministic(self):
        a = run_ftc_scenario("pe", horizon=2.0)
        b = run_ftc_scenario("pe", horizon=2.0)
        for name in a.runs:
            np.testing.assert_array_equal(
                a.runs[name].theta_hat.values, b.runs[name].theta_hat.values
            )

    def test_unknown_delta_kind(self):
        with pytest.raises(ValueError):
            run_ftc_scenario("chirp", horizon=1.0)
