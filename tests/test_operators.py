import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremkit.operators import (
    KreSpec,
    LtvChannelSpec,
    OperatorBank,
    SlidingWindowSpec,
    _coefficient_table,
    apply_channel_ct,
    apply_channel_dt,
    channel_gain_bound,
    extend,
    kre_as_drem_bank,
    kre_ct,
    sliding_window_phi,
)
from dremkit.scenarios import Constant, Sinusoid
from dremkit.signals import TimeGrid, Trajectory


def ct_traj(values, step=1e-3, t0=0.0):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(t0, step, len(values)), values, "ct")


def dt_traj(values):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(0.0, 1.0, len(values)), values, "dt")


class TestChannelConstruction:
    def test_unstable_ct_rejected(self):
        with pytest.raises(ValueError):
            LtvChannelSpec(n=1, A=0.5, b=1.0, c=1.0, kind="ct")

    def test_unstable_dt_rejected(self):
        with pytest.raises(ValueError):
            LtvChannelSpec(n=1, A=1.0, b=1.0, c=1.0, kind="dt")

    def test_time_varying_A_not_checked(self):
        # stability of a time-varying A is declared by the caller
        LtvChannelSpec(n=1, A=lambda t: 0.5, b=1.0, c=1.0, kind="ct")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LtvChannelSpec(n=0, d=1.0, delay=-1.0)


class TestApplyChannelCt:
    def test_pure_feedthrough_is_identity(self, rng):
        u = ct_traj(rng.normal(size=200))
        spec = LtvChannelSpec(n=0, d=1.0, kind="ct")
        z = apply_channel_ct(spec, u)
        np.testing.assert_array_equal(z.values, u.values)

    def test_pure_delay_of_ramp(self):
        h = 1e-3
        t = h * np.arange(1501)
        u = ct_traj(t, step=h)
        spec = LtvChannelSpec(n=0, delay_gain=1.0, delay=0.5, kind="ct")
        z = apply_channel_ct(spec, u)
        expected = np.where(t >= 0.5, t - 0.5, 0.0)
        np.testing.assert_allclose(z.values, expected, atol=1e-12)

    def test_first_order_step_response(self):
        # x' = -x + 1 from rest: z(t) = 1 - exp(-t)
        h = 1e-3
        u = ct_traj(np.ones(1001), step=h)
        spec = LtvChannelSpec(n=1, A=-1.0, b=1.0, c=1.0, kind="ct")
        z = apply_channel_ct(spec, u)
        assert abs(z.values[1000] - (1.0 - np.exp(-1.0))) <= 1e-8

    def test_off_grid_delay_warns(self):
        u = ct_traj(np.zeros(100))
        spec = LtvChannelSpec(n=0, delay_gain=1.0, delay=0.0015, kind="ct")
        with pytest.warns(UserWarning):
            apply_channel_ct(spec, u)

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20)
    def test_linearity_in_the_input(self, a, b, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(0.0, 1e-2, 120)
        u1 = Trajectory(grid, rng.normal(size=120), "ct")
        u2 = Trajectory(grid, rng.normal(size=120), "ct")
        combo = Trajectory(grid, a * u1.values + b * u2.values, "ct")
        spec = LtvChannelSpec(n=1, A=-1.5, b=0.7, c=1.2, d=0.3, delay_gain=0.5, delay=0.05, kind="ct")
        z_combo = apply_channel_ct(spec, combo)
        z_parts = a * apply_channel_ct(spec, u1).values + b * apply_channel_ct(spec, u2).values
        np.testing.assert_allclose(z_combo.values, z_parts, atol=1e-10, rtol=1e-10)

    def test_bibo_gain_bound(self, rng):
        grid = TimeGrid(0.0, 1e-2, 500)
        spec = LtvChannelSpec(n=2, A=[[-1.0, 0.5], [0.0, -2.0]], b=[1.0, 1.0], c=[1.0, -1.0], d=0.2, kind="ct")
        bound = channel_gain_bound(spec, grid)
        for _ in range(5):
            u = Trajectory(grid, rng.uniform(-1, 1, size=500), "ct")
            z = apply_channel_ct(spec, u)
            assert np.abs(z.values).max() <= bound + 1e-9


class TestApplyChannelDt:
    def test_pure_feedthrough(self, rng):
        u = dt_traj(rng.normal(size=50))
        z = apply_channel_dt(LtvChannelSpec(n=0, d=1.0, kind="dt"), u)
        np.testing.assert_array_equal(z.values, u.values)

    def test_two_step_delay(self):
        u = dt_traj([1.0, 2.0, 3.0, 4.0])
        z = apply_channel_dt(LtvChannelSpec(n=0, delay_gain=1.0, delay=2, kind="dt"), u)
        np.testing.assert_array_equal(z.values, [0.0, 0.0, 1.0, 2.0])

    def test_first_order_recursion_against_direct_loop(self):
        # oracle: x(k+1) = 0.5 x(k) + u(k), z = x, computed by a plain loop
        u = dt_traj(np.ones(10))
        z = apply_channel_dt(LtvChannelSpec(n=1, A=0.5, b=1.0, c=1.0, kind="dt"), u)
        x = 0.0
        expected = []
        for k in range(10):
            expected.append(x)
            x = 0.5 * x + u.values[k]
        np.testing.assert_array_equal(z.values, expected)
        assert z.values[3] == 1.75

    def test_time_varying_gain_receives_sample_index(self):
        gains = np.array([2.0, 3.0, 5.0, 7.0])
        u = dt_traj([1.0, 1.0, 1.0, 1.0])
        spec = LtvChannelSpec(n=0, d=lambda k: gains[int(k)], kind="dt")
        z = apply_channel_dt(spec, u)
        np.testing.assert_array_equal(z.values, gains)


class TestExtend:
    def test_identity_bank(self, rng):
        grid = TimeGrid(0.0, 1e-2, 40)
        y = Trajectory(grid, rng.normal(size=40), "ct")
        phi = Trajectory(grid, rng.normal(size=(40, 2)), "ct")
        bank = OperatorBank(tuple(LtvChannelSpec(n=0, d=1.0, kind="ct") for _ in range(2)))
        Y, Phi = extend(bank, y, phi)
        for i in range(2):
            np.testing.assert_array_equal(Y.values[:, i], y.values)
            np.testing.assert_array_equal(Phi.values[:, i, :], phi.values)

    def test_extended_regression_holds_after_transients(self):
        # smooth phi, y built sample-wise from it: Y = Phi theta up to the
        # channels' own startup transient
        h = 1e-3
        grid = TimeGrid.from_horizon(5.0, h)
        t = grid.times()
        phi_vals = np.stack([np.sin(t) + 0.3, 0.5 * np.cos(2 * t)], axis=1)
        theta = np.array([4.6, 0.4])
        phi = Trajectory(grid, phi_vals, "ct")
        y = Trajectory(grid, phi_vals @ theta, "ct")
        bank = OperatorBank(
            (
                LtvChannelSpec(n=1, A=-1.0, b=1.0, c=1.0, kind="ct"),
                LtvChannelSpec(n=1, A=-2.0, b=2.0, c=1.0, kind="ct"),
            )
        )
        Y, Phi = extend(bank, y, phi)
        residual = Y.values - np.einsum("kij,j->ki", Phi.values, theta)
        late = t >= 2.0
        assert np.abs(residual[late]).max() <= 1e-3

    def test_dimension_mismatch(self, rng):
        grid = TimeGrid(0.0, 1e-2, 10)
        y = Trajectory(grid, rng.normal(size=10), "ct")
        phi = Trajectory(grid, rng.normal(size=(10, 3)), "ct")
        bank = OperatorBank(tuple(LtvChannelSpec(n=0, d=1.0, kind="ct") for _ in range(2)))
        with pytest.raises(ValueError):
            extend(bank, y, phi)


def brute_force_window(y_vals, phi_vals, window):
    n, m = phi_vals.shape
    Y = np.zeros((n, m))
    Phi = np.zeros((n, m, m))
    for k in range(n):
        for j in range(1, window + 1):
            if k - j >= 0:
                Phi[k] += np.outer(phi_vals[k - j], phi_vals[k - j])
                Y[k] += phi_vals[k - j] * y_vals[k - j]
    return Y, Phi


class TestSlidingWindow:
    def test_scalar_example(self):
        phi = Trajectory(TimeGrid(0.0, 1.0, 5), np.arange(1.0, 6.0)[:, None], "dt")
        y = dt_traj(np.zeros(5))
        Y, Phi = sliding_window_phi(y, phi, SlidingWindowSpec(window=2))
        assert Phi.values[2, 0, 0] == 5.0  # 1^2 + 2^2
        assert Phi.values[0, 0, 0] == 0.0  # empty window

    def test_window_smaller_than_dimension_rejected(self, rng):
        grid = TimeGrid(0.0, 1.0, 10)
        phi = Trajectory(grid, rng.normal(size=(10, 2)), "dt")
        y = Trajectory(grid, rng.normal(size=10), "dt")
        with pytest.raises(ValueError):
            sliding_window_phi(y, phi, SlidingWindowSpec(window=1))

    def test_matches_brute_force_exactly(self, rng):
        grid = TimeGrid(0.0, 1.0, 300)
        phi = Trajectory(grid, rng.normal(size=(300, 2)), "dt")
        y = Trajectory(grid, rng.normal(size=300), "dt")
        Y, Phi = sliding_window_phi(y, phi, SlidingWindowSpec(window=3))
        Yb, Phib = brute_force_window(y.values, phi.values, 3)
        np.testing.assert_array_equal(Phi.values, Phib)
        np.testing.assert_array_equal(Y.values, Yb)

    def test_window_identity_against_delay_bank(self, rng):
        # the windowed sum equals a sum of pure-delay channels whose gains
        # replay the delayed regressor samples
        n, m, window = 120, 2, 3
        grid = TimeGrid(0.0, 1.0, n)
        phi_vals = rng.normal(size=(n, m))
        phi = Trajectory(grid, phi_vals, "dt")
        y = Trajectory(grid, rng.normal(size=n), "dt")
        Y, Phi = sliding_window_phi(y, phi, SlidingWindowSpec(window=window))

        def delayed_gain(column, j):
            def mu(k):
                k = int(k)
                return column[k - j] if k - j >= 0 else 0.0

            return mu

        for i in range(m):
            acc_y = np.zeros(n)
            acc_phi = np.zeros((n, m))
            for j in range(1, window + 1):
                spec = LtvChannelSpec(
                    n=0, delay_gain=delayed_gain(phi_vals[:, i], j), delay=j, kind="dt"
                )
                acc_y += apply_channel_dt(spec, y).values
                for col in range(m):
                    comp = Trajectory(grid, phi_vals[:, col], "dt")
                    acc_phi[:, col] += apply_channel_dt(spec, comp).values
            np.testing.assert_array_equal(acc_y, Y.values[:, i])
            np.testing.assert_array_equal(acc_phi, Phi.values[:, i, :])


class TestKre:
    def test_zero_phi_homogeneous_decay(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        phi = Trajectory(grid, np.zeros((grid.count, 2)), "ct")
        y = Trajectory(grid, np.zeros(grid.count), "ct")
        omega0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        Z, Omega = kre_ct(KreSpec(pole=1.0, omega0=omega0), y, phi)
        np.testing.assert_allclose(Omega.values[-1], np.exp(-1.0) * omega0, atol=1e-10)

    def test_constant_phi_closed_form(self):
        # Omega(t) = (1 - exp(-a t)) / a * phi phi^T from rest
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        pv = np.array([1.5, -0.5])
        phi = Trajectory(grid, np.tile(pv, (grid.count, 1)), "ct")
        y = Trajectory(grid, np.zeros(grid.count), "ct")
        Z, Omega = kre_ct(KreSpec(pole=1.0), y, phi)
        expected = (1.0 - np.exp(-1.0)) * np.outer(pv, pv)
        assert np.abs(Omega.values[-1] - expected).max() <= 1e-8

    def test_zero_phi_bank_equivalence(self):
        grid = TimeGrid.from_horizon(0.5, 1e-3)
        phi = Trajectory(grid, np.zeros((grid.count, 2)), "ct")
        y = Trajectory(grid, np.zeros(grid.count), "ct")
        Z, Omega = kre_ct(KreSpec(pole=1.0), y, phi)
        Yb, Phib = extend(kre_as_drem_bank(phi, 1.0), y, phi)
        np.testing.assert_array_equal(Omega.values, np.zeros_like(Omega.values))
        np.testing.assert_array_equal(Phib.values, np.zeros_like(Phib.values))

    def test_scalar_bank_equivalence_closed_form(self):
        grid = TimeGrid.from_horizon(1.0, 1e-3)
        phi = Trajectory(grid, np.ones((grid.count, 1)), "ct")
        y = Trajectory(grid, np.zeros(grid.count), "ct")
        Z, Omega = kre_ct(KreSpec(pole=1.0), y, phi)
        Yb, Phib = extend(kre_as_drem_bank(phi, 1.0), y, phi)
        expected = 1.0 - np.exp(-1.0)
        assert abs(Omega.values[-1, 0, 0] - expected) <= 1e-8
        assert abs(Phib.values[-1, 0, 0] - expected) <= 1e-8

    def test_dual_path_agreement_smooth_phi(self, rng):
        # same discretization on both paths: sup difference far under 1e-6
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        t = grid.times()
        phi_vals = np.stack(
            [np.sin(1.3 * t) + 0.2, 0.7 * np.cos(2.1 * t + 0.5)], axis=1
        )
        phi = Trajectory(grid, phi_vals, "ct")
        y = Trajectory(grid, (phi_vals @ np.array([1.0, -2.0])), "ct")
        Z, Omega = kre_ct(KreSpec(pole=1.0), y, phi)
        Yb, Phib = extend(kre_as_drem_bank(phi, 1.0), y, phi)
        assert np.abs(Omega.values - Phib.values).max() <= 1e-6
        assert np.abs(Z.values - Yb.values).max() <= 1e-6


class TestArrayEvaluatedCoefficients:
    """Callables with an ``evaluate`` method are tabulated in one call; the
    table equals the per-sample calls bit for bit."""

    @given(
        t0=st.floats(-5.0, 5.0),
        step=st.floats(1e-4, 0.5),
        count=st.integers(1, 50),
        queries=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
    )
    def test_sampled_column_lookup(self, t0, step, count, queries):
        bank = kre_as_drem_bank(
            Trajectory(TimeGrid(t0, step, count), np.arange(count, dtype=float)[:, None], "ct"),
            pole=1.0,
        )
        column = bank.channels[0].b
        # off-grid times, times outside the record and exact half steps (ties)
        times = np.array(queries + [t0 + (k + 0.5) * step for k in range(-1, count + 1)])
        np.testing.assert_array_equal(column.evaluate(times), [column(t) for t in times])

    @pytest.mark.parametrize(
        "signal", [Sinusoid(2.0, 3.1, 0.4), Sinusoid(-15.0, 2.5, 1.0), Constant(15), Constant(-0.25)]
    )
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_named_signal_table(self, signal, shape):
        times = TimeGrid.from_horizon(20.0, 1e-3).times()
        table = _coefficient_table(signal, times, shape)
        assert table.shape == (len(times),) + shape
        np.testing.assert_array_equal(table.reshape(-1), [signal(t) for t in times])

    def test_named_signal_of_the_sample_index(self):
        ks = np.arange(500)
        signal = Sinusoid(1.5, 0.3, -0.2)
        np.testing.assert_array_equal(_coefficient_table(signal, ks, ()), [signal(k) for k in ks])
