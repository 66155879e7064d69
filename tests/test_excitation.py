import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremkit.excitation import (
    _pe_scan_dt,
    counterexample_suite,
    cumulative_energy,
    energy_exceeds,
    pe_check_ct,
    pe_check_dt,
)
from dremkit.signals import TimeGrid, Trajectory


class TestPeCheckCt:
    def test_zero_signal(self):
        grid = TimeGrid.from_horizon(10.0, 1e-2)
        phi = Trajectory(grid, np.zeros((grid.count, 2)), "ct")
        report = pe_check_ct(phi, 2.0)
        assert report.alpha_hat == 0.0
        assert not report.is_pe

    def test_rotating_regressor_alpha_is_pi(self):
        # (sin t, cos t) over one full period: the Gramian is pi * I
        step = 2.0 * np.pi / 6000.0
        grid = TimeGrid.from_horizon(8.0 * np.pi, step)
        t = grid.times()
        phi = Trajectory(grid, np.stack([np.sin(t), np.cos(t)], axis=1), "ct")
        report = pe_check_ct(phi, 2.0 * np.pi)
        assert abs(report.alpha_hat - np.pi) <= 1e-6
        assert report.is_pe

    def test_settled_constant_regressor_not_pe(self):
        # a regressor that converges to a fixed vector: rank-one windows
        grid = TimeGrid.from_horizon(20.0, 1e-2)
        t = grid.times()
        phi_vals = np.stack(
            [3.0 * (1 - np.exp(-t)), 3.0 * (1 - np.exp(-2 * t))], axis=1
        )
        phi = Trajectory(grid, phi_vals, "ct")
        report = pe_check_ct(phi, 2.0)
        assert report.alpha_hat < 1e-3
        assert not report.is_pe

    def test_short_horizon_rejected(self):
        grid = TimeGrid.from_horizon(3.0, 1e-2)
        phi = Trajectory(grid, np.zeros((grid.count, 2)), "ct")
        with pytest.raises(ValueError):
            pe_check_ct(phi, 2.0)

    @pytest.mark.parametrize("big", [1e200, 1e154])
    def test_overflow_names_phi(self, big):
        # 1e200 overflows phi phi^T, and two samples of 1e154 overflow the
        # integral; both used to end in RuntimeWarning: invalid value
        grid = TimeGrid.from_horizon(1.0, 1e-2)
        vals = np.ones(grid.count)
        vals[30:32] = big
        with pytest.raises(FloatingPointError, match=r"pe_check_ct: phi phi\^T or its window sums overflow"):
            pe_check_ct(Trajectory(grid, vals, "ct"), 0.2)

    def test_windows_positive_semidefinite(self, rng):
        grid = TimeGrid.from_horizon(6.0, 1e-2)
        t = grid.times()
        phi_vals = np.stack(
            [np.sin(1.3 * t) + 0.2, np.cos(0.7 * t + 0.4)], axis=1
        )
        report = pe_check_ct(Trajectory(grid, phi_vals, "ct"), 1.0)
        assert report.min_eigenvalues.min() >= -1e-12


class TestPeCheckDt:
    def make(self, values):
        values = np.asarray(values, float)
        grid = TimeGrid(0.0, 1.0, len(values))
        return Trajectory(grid, values, "dt")

    def test_alternating_basis_vectors(self):
        vals = np.zeros((40, 2))
        vals[0::2, 0] = 1.0
        vals[1::2, 1] = 1.0
        report = pe_check_dt(self.make(vals), 2)
        assert report.alpha_hat == pytest.approx(1.0)
        assert report.is_pe

    def test_window_size_sensitivity(self):
        vals = np.zeros(40)
        vals[0::2] = 1.0  # 1 at even, 0 at odd samples
        r1 = pe_check_dt(self.make(vals), 1)
        r2 = pe_check_dt(self.make(vals), 2)
        assert r1.alpha_hat == 0.0 and not r1.is_pe
        assert r2.alpha_hat == pytest.approx(1.0) and r2.is_pe

    def test_decaying_regressor_alpha_shrinks_with_horizon(self):
        # phi(k) = (k+1)^(-1/4): the certificate decays like K / sqrt(horizon)
        for n, expected in ((10_000, 0.01), (100_000, 0.003162)):
            k = np.arange(n)
            report = pe_check_dt(self.make((k + 1.0) ** -0.25), 1)
            assert report.alpha_hat == pytest.approx(n ** -0.5, rel=1e-3)
        assert not pe_check_dt(self.make((np.arange(100_000) + 1.0) ** -0.25), 1, threshold=0.01).is_pe

    @pytest.mark.parametrize("window", [2.7, 1.5, True, np.bool_(True), "2", float("inf")])
    def test_window_that_is_not_whole_rejected(self, window):
        # 2.7 used to run K = 2 and True K = 1, with no warning
        with pytest.raises(ValueError, match="whole number"):
            pe_check_dt(self.make(np.ones(20)), window)

    def test_whole_float_window_accepted(self):
        report = pe_check_dt(self.make(np.ones(20)), 3.0)
        assert report.window == 3 and isinstance(report.window, int)
        assert report.alpha_hat == 3.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        # a NaN used to give alpha_hat = nan and the verdict "not PE"
        vals = np.ones((20, 2))
        vals[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pe_check_dt(self.make(vals), 2)
        grid = TimeGrid.from_horizon(1.0, 1e-2)
        ct_vals = np.ones(grid.count)
        ct_vals[30] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pe_check_ct(Trajectory(grid, ct_vals, "ct"), 0.2)

    @pytest.mark.parametrize("big", [1e200, 1e154])
    def test_overflow_names_phi(self, big):
        # 1e200 overflows phi phi^T, and two samples of 1e154 overflow a
        # window sum; both used to give alpha_hat nan and the verdict "not PE"
        vals = np.ones((20, 2))
        vals[7:9, 0] = big
        with pytest.raises(FloatingPointError, match=r"pe_check_dt: phi phi\^T or its window sums overflow"):
            pe_check_dt(self.make(vals), 2)

    def test_window_below_dimension_rejected(self, rng):
        vals = rng.normal(size=(20, 2))
        with pytest.raises(ValueError):
            pe_check_dt(self.make(vals), 1)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_alpha_monotone_in_window(self, seed):
        # a longer window only adds positive semidefinite terms
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(120, 2))
        grid = TimeGrid(0.0, 1.0, 120)
        phi = Trajectory(grid, vals, "dt")
        alphas = [pe_check_dt(phi, K).alpha_hat for K in (2, 3, 5, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))


class TestPeScanDt:
    """The one-pass sweep against brute-force window sums."""

    @staticmethod
    def brute_force_min_eigs(vals, K):
        outer = np.einsum("ki,kj->kij", vals, vals)
        grams = np.array([outer[k + 1 : k + K + 1].sum(axis=0) for k in range(len(vals) - K)])
        return np.linalg.eigvalsh(grams)[:, 0]

    @given(
        m=st.sampled_from([1, 2, 3]),
        n=st.integers(4, 80),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_brute_force_sums(self, m, n, seed, scale, data):
        rng = np.random.default_rng(seed)
        vals = scale * rng.normal(size=(n, m))
        windows = data.draw(st.lists(st.integers(m, n - 1), min_size=1, max_size=6))
        grid = TimeGrid(0.0, 1.0, n)
        phi = Trajectory(grid, vals[:, 0] if m == 1 else vals, "dt")
        reports = list(_pe_scan_dt(phi, windows, 1e-3))
        assert [r.window for r in reports] == sorted(set(windows))
        peak = float(np.max(np.sum(vals * vals, axis=1)))
        for report in reports:
            K = report.window
            np.testing.assert_allclose(
                report.min_eigenvalues, self.brute_force_min_eigs(vals, K), rtol=0, atol=1e-12 * K * peak
            )
            np.testing.assert_array_equal(report.start_times, grid.times()[: n - K])
            single = pe_check_dt(phi, K)
            np.testing.assert_array_equal(single.min_eigenvalues, report.min_eigenvalues)
            assert single.alpha_hat == report.alpha_hat

    @given(
        n=st.integers(4, 80),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        spread=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_near_singular_pairs_match_brute_force(self, n, seed, scale, spread, data):
        # m = 2 takes the closed-form smallest eigenvalue; samples near one
        # direction give Gramians that are singular or nearly so
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=2)
        vals = scale * (rng.normal(size=(n, 1)) * direction + spread * rng.normal(size=(n, 2)))
        K = data.draw(st.integers(2, n - 1))
        report = pe_check_dt(Trajectory(TimeGrid(0.0, 1.0, n), vals, "dt"), K)
        peak = float(np.max(np.sum(vals * vals, axis=1)))
        np.testing.assert_allclose(
            report.min_eigenvalues, self.brute_force_min_eigs(vals, K), rtol=0, atol=1e-12 * K * peak
        )

    @given(horizon=st.integers(101, 3_000), max_window=st.integers(1, 100))
    @settings(max_examples=15, deadline=None)
    def test_suite_alphas_equal_single_window_checks(self, horizon, max_window):
        report = counterexample_suite(horizon=horizon, max_window=max_window)
        k = np.arange(horizon)
        phi = Trajectory(TimeGrid(0.0, 1.0, horizon), ((k + 1.0) ** -0.25)[:, None], "dt")
        assert list(report.alpha_by_window) == list(range(1, max_window + 1))
        for K, alpha in report.alpha_by_window.items():
            assert alpha == pe_check_dt(phi, K).alpha_hat

    def test_record_too_short_for_the_largest_window(self):
        phi = Trajectory(TimeGrid(0.0, 1.0, 10), np.ones(10), "dt")
        with pytest.raises(ValueError, match="too short"):
            next(_pe_scan_dt(phi, [2, 10], 1e-3))


class TestCumulativeEnergy:
    def test_zero(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        out = cumulative_energy(Trajectory(grid, np.zeros(grid.count), "ct"))
        np.testing.assert_array_equal(out.values, np.zeros(grid.count))

    def test_harmonic_growth_dt(self):
        # Delta(k) = (k+1)^(-1/2): the energy sum is the harmonic series
        n = 100_000
        k = np.arange(n)
        grid = TimeGrid(0.0, 1.0, n)
        delta = Trajectory(grid, (k + 1.0) ** -0.5, "dt")
        energy = cumulative_energy(delta)
        assert energy.values[-1] >= 0.9 * np.log(n)
        assert energy.values[-1] == pytest.approx(np.log(n) + 0.5772, rel=1e-2)

    def test_bounded_for_square_integrable_ct(self):
        # Delta(t) = 1/(t+1) integrates to t/(t+1): bounded, so this signal
        # is square integrable even though it never vanishes
        grid = TimeGrid.from_horizon(50.0, 1e-3)
        t = grid.times()
        delta = Trajectory(grid, 1.0 / (t + 1.0), "ct")
        energy = cumulative_energy(delta)
        np.testing.assert_allclose(energy.values, t / (t + 1.0), atol=1e-8)
        assert energy.values[-1] < 1.0

    def test_nondecreasing_for_smooth_signals(self, rng):
        # Simpson weights allow order-h^3 dips near zeros of the integrand,
        # so monotonicity holds up to the local truncation error
        grid = TimeGrid.from_horizon(5.0, 1e-3)
        t = grid.times()
        vals = np.sin(1.7 * t) + 0.5 * np.cos(4.0 * t + 1.0)
        energy = cumulative_energy(Trajectory(grid, vals, "ct"))
        assert np.all(np.diff(energy.values) >= -1e-8)

    def test_nondecreasing_exact_dt(self, rng):
        grid = TimeGrid(0.0, 1.0, 500)
        energy = cumulative_energy(Trajectory(grid, rng.normal(size=500), "dt"))
        assert np.all(np.diff(energy.values) >= 0.0)

    def test_envelope_certificate(self):
        grid = TimeGrid(0.0, 1.0, 10_000)
        k = np.arange(10_000)
        delta = Trajectory(grid, (k + 1.0) ** -0.5, "dt")
        energy = cumulative_energy(delta)
        assert energy_exceeds(energy, lambda t: 0.9 * np.log(t + 2.0))
        assert not energy_exceeds(energy, lambda t: 0.1 * t)


class TestCounterexampleSuite:
    def test_small_horizon_report_structure(self):
        report = counterexample_suite(horizon=2_000, max_window=5)
        assert set(report.alpha_by_window) == {1, 2, 3, 4, 5}
        # windowed sums grow with the window size
        alphas = [report.alpha_by_window[K] for K in (1, 2, 3, 4, 5)]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        # the mixed-signal energy grows like log(horizon)
        assert report.energy_diverges
        assert report.energy_final == pytest.approx(np.log(2_000) + 0.5772, rel=2e-2)
        # forward direction: excited signal, linearly growing mixed energy
        assert report.forward_alpha == pytest.approx(1.0)
        assert report.forward_energy_linear

    @pytest.mark.parametrize("max_window", [0, -1])
    def test_no_windows_rejected(self, max_window):
        # all([]) would report every window below the threshold
        with pytest.raises(ValueError, match="max_window"):
            counterexample_suite(horizon=200, max_window=max_window)

    @pytest.mark.parametrize("horizon, max_window", [(0, 100), (-3, 100), (100, 100), (2, 1), (3, 3)])
    def test_record_shorter_than_a_window_rejected(self, horizon, max_window):
        # the widest window and the forward direction's window of 2 need a start
        with pytest.raises(ValueError, match="horizon must be at least"):
            counterexample_suite(horizon=horizon, max_window=max_window)

    @pytest.mark.parametrize("max_window", [1, 2, 100])
    def test_shortest_record_accepted(self, max_window):
        horizon = max(max_window, 2) + 1
        report = counterexample_suite(horizon=horizon, max_window=max_window)
        assert list(report.alpha_by_window) == list(range(1, max_window + 1))

    def test_alpha_at_horizon_matches_tail_sum(self):
        # the worst window is the one ending at the horizon
        report = counterexample_suite(horizon=5_000, max_window=3)
        n = 5_000
        k = np.arange(n)
        sq = ((k + 1.0) ** -0.25) ** 2
        for K in (1, 2, 3):
            assert report.alpha_by_window[K] == pytest.approx(sq[n - K :].sum(), rel=1e-12)
