import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremkit.operators import (
    KreSpec,
    LtvChannelSpec,
    OperatorBank,
    SlidingWindowSpec,
    _delay_steps,
    extend,
    kre_as_drem_bank,
    kre_ct,
    sliding_window_phi,
)
from dremkit.integrate import affine_scan, rk4_affine
from dremkit.scenarios import Constant, Sinusoid
from dremkit.signals import TimeGrid, Trajectory, delayed, sample_values


def ct_traj(values, step=1e-3, t0=0.0):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(t0, step, len(values)), values, "ct")


def dt_traj(values):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(0.0, 1.0, len(values)), values, "dt")


def run_channel(spec, u):
    """z of one channel over the scalar ``u``: ``extend`` with a one-channel
    bank, whose Y is the channel applied to ``u``."""
    Y, _ = extend(OperatorBank((spec,)), u, u.with_values(u.values[:, None]))
    return Y.values[:, 0]


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

    @pytest.mark.parametrize("delay", [2.5, 1.5, 0.25, float("inf"), float("nan")])
    def test_fractional_dt_delay_rejected(self, delay):
        # a DT delay counts steps; 2.5 and 1.5 used to both become 2
        with pytest.raises(ValueError, match="whole number of steps"):
            LtvChannelSpec(n=0, delay_gain=1.0, delay=delay, kind="dt")

    @pytest.mark.parametrize("delay", [float("inf"), float("nan")])
    def test_non_finite_ct_delay_rejected(self, delay):
        # rounding it to grid steps used to fail only once the channel ran
        with pytest.raises(ValueError, match="delay must be finite"):
            LtvChannelSpec(n=0, delay_gain=1.0, delay=delay, kind="ct")

    @pytest.mark.parametrize(
        "fields",
        [{"A": [[1.0, 2.0]], "b": "nonsense"}, {"A": -1.0}, {"b": 1.0}, {"c": lambda t: np.ones_like(t)}],
        ids=["A-and-b", "A", "b", "c"],
    )
    def test_static_channel_refuses_state_space_fields(self, fields):
        # they used to be accepted and never read
        with pytest.raises(ValueError, match=r"^a static channel \(n = 0\) has no state, so no [Abc]$"):
            LtvChannelSpec(n=0, d=1.0, **fields)

    def test_whole_dt_delay_as_float_accepted(self):
        u = dt_traj([1.0, 2.0, 3.0, 4.0])
        spec = LtvChannelSpec(n=0, delay_gain=1.0, delay=2.0, kind="dt")
        np.testing.assert_array_equal(run_channel(spec, u), [0.0, 0.0, 1.0, 2.0])


class TestApplyChannelCt:
    """CT channels, each run through ``extend`` as a one-channel bank."""

    def test_pure_feedthrough_is_identity(self, rng):
        u = ct_traj(rng.normal(size=200))
        spec = LtvChannelSpec(n=0, d=1.0, kind="ct")
        np.testing.assert_array_equal(run_channel(spec, u), u.values)

    def test_pure_delay_of_ramp(self):
        h = 1e-3
        t = h * np.arange(1501)
        u = ct_traj(t, step=h)
        spec = LtvChannelSpec(n=0, delay_gain=1.0, delay=0.5, kind="ct")
        expected = np.where(t >= 0.5, t - 0.5, 0.0)
        np.testing.assert_allclose(run_channel(spec, u), expected, atol=1e-12)

    def test_first_order_step_response(self):
        # x' = -x + 1 from rest: z(t) = 1 - exp(-t)
        h = 1e-3
        u = ct_traj(np.ones(1001), step=h)
        spec = LtvChannelSpec(n=1, A=-1.0, b=1.0, c=1.0, kind="ct")
        assert abs(run_channel(spec, u)[1000] - (1.0 - np.exp(-1.0))) <= 1e-8

    def test_off_grid_delay_raises(self):
        u = ct_traj(np.zeros(100))
        spec = LtvChannelSpec(n=0, delay_gain=1.0, delay=0.0015, kind="ct")
        with pytest.raises(ValueError, match="not a whole number of grid steps"):
            run_channel(spec, u)

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
        z_parts = a * run_channel(spec, u1) + b * run_channel(spec, u2)
        np.testing.assert_allclose(run_channel(spec, combo), z_parts, atol=1e-10, rtol=1e-10)

    def test_bibo_gain_bound(self, rng):
        grid = TimeGrid(0.0, 1e-2, 500)
        spec = LtvChannelSpec(n=2, A=[[-1.0, 0.5], [0.0, -2.0]], b=[1.0, 1.0], c=[1.0, -1.0], d=0.2, kind="ct")
        # l1 norm of the pulse response: the channel convolves grid samples
        # with it, so it bounds |z| for every input with |u| <= 1
        pulse = Trajectory(grid, np.eye(1, grid.count)[0], "ct")
        bound = np.abs(run_channel(spec, pulse)).sum()
        for _ in range(5):
            u = Trajectory(grid, rng.uniform(-1, 1, size=500), "ct")
            assert np.abs(run_channel(spec, u)).max() <= bound + 1e-9


class TestApplyChannelDt:
    """DT channels, each run through ``extend`` as a one-channel bank."""

    def test_pure_feedthrough(self, rng):
        u = dt_traj(rng.normal(size=50))
        z = run_channel(LtvChannelSpec(n=0, d=1.0, kind="dt"), u)
        np.testing.assert_array_equal(z, u.values)

    def test_two_step_delay(self):
        u = dt_traj([1.0, 2.0, 3.0, 4.0])
        z = run_channel(LtvChannelSpec(n=0, delay_gain=1.0, delay=2, kind="dt"), u)
        np.testing.assert_array_equal(z, [0.0, 0.0, 1.0, 2.0])

    def test_first_order_recursion_against_direct_loop(self):
        # oracle: x(k+1) = 0.5 x(k) + u(k), z = x, computed by a plain loop
        u = dt_traj(np.ones(10))
        z = run_channel(LtvChannelSpec(n=1, A=0.5, b=1.0, c=1.0, kind="dt"), u)
        x = 0.0
        expected = []
        for k in range(10):
            expected.append(x)
            x = 0.5 * x + u.values[k]
        np.testing.assert_array_equal(z, expected)
        assert z[3] == 1.75

    def test_time_varying_gain_receives_sample_index(self):
        gains = np.array([2.0, 3.0, 5.0, 7.0])
        u = dt_traj([1.0, 1.0, 1.0, 1.0])
        spec = LtvChannelSpec(n=0, d=lambda k: gains[k], kind="dt")
        z = run_channel(spec, u)
        np.testing.assert_array_equal(z, gains)


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

    @pytest.mark.parametrize("window", [2.5, True, "2", np.nan, np.inf])
    def test_window_must_be_a_whole_number_of_samples(self, window):
        with pytest.raises(ValueError, match="^window must be a whole number of samples"):
            SlidingWindowSpec(window)

    def test_a_whole_float_window_is_its_int(self, rng):
        spec = SlidingWindowSpec(3.0)
        assert spec.window == 3 and isinstance(spec.window, int)
        grid = TimeGrid(0.0, 1.0, 10)
        phi = Trajectory(grid, rng.normal(size=(10, 2)), "dt")
        y = Trajectory(grid, rng.normal(size=10), "dt")
        Y, Phi = sliding_window_phi(y, phi, spec)
        Yb, Phib = brute_force_window(y.values, phi.values, 3)
        np.testing.assert_array_equal(Phi.values, Phib)
        np.testing.assert_array_equal(Y.values, Yb)

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
            return lambda k: np.where(k >= j, column[k - j], 0.0)

        for i in range(m):
            acc_y = np.zeros(n)
            acc_phi = np.zeros((n, m))
            for j in range(1, window + 1):
                spec = LtvChannelSpec(
                    n=0, delay_gain=delayed_gain(phi_vals[:, i], j), delay=j, kind="dt"
                )
                acc_y += run_channel(spec, y)
                for col in range(m):
                    comp = Trajectory(grid, phi_vals[:, col], "dt")
                    acc_phi[:, col] += run_channel(spec, comp)
            np.testing.assert_array_equal(acc_y, Y.values[:, i])
            np.testing.assert_array_equal(acc_phi, Phi.values[:, i, :])


class TestKre:
    @pytest.mark.parametrize("pole", [0.0, -1.0, np.inf, np.nan])
    def test_pole_must_be_finite_and_positive(self, pole):
        # an infinite pole used to pass, then fail as "recursion diverged" or
        # as numpy's LinAlgError
        phi = ct_traj(np.ones((5, 2)))
        with pytest.raises(ValueError, match="^pole must be finite and positive"):
            KreSpec(pole)
        with pytest.raises(ValueError, match="^pole must be finite and positive"):
            kre_as_drem_bank(phi, pole)

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
    """A callable coefficient is tabulated by one call on the whole array; for
    the named signals and the sampled columns the table equals per-sample
    calls bit for bit."""

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
        nearest = [min(max(int(round((t - t0) / step)), 0), count - 1) for t in times]
        np.testing.assert_array_equal(column(times), column.column[nearest])

    @pytest.mark.parametrize(
        "signal", [Sinusoid(2.0, 3.1, 0.4), Sinusoid(-15.0, 2.5, 1.0), Constant(15), Constant(-0.25)]
    )
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_named_signal_table(self, signal, shape):
        times = TimeGrid.from_horizon(20.0, 1e-3).times()
        table = sample_values(signal, times, shape, "signal")
        assert table.shape == (len(times),) + shape
        np.testing.assert_array_equal(table.reshape(-1), [signal(t) for t in times])

    def test_named_signal_of_the_sample_index(self):
        ks = np.arange(500)
        signal = Sinusoid(1.5, 0.3, -0.2)
        np.testing.assert_array_equal(sample_values(signal, ks, (), "signal"), [signal(k) for k in ks])


# Tests-only copies of the earlier per-kind channel bodies and of the
# per-component extend loop; the shared channel runner must reproduce them.


def reference_apply_channel_ct(spec, u):
    grid = u.grid
    h = grid.step
    times = grid.times()
    uv = u.values
    u_del = delayed(uv, _delay_steps(spec.delay, h))
    d_tab = sample_values(spec.d, times, (), "d")
    mu_tab = sample_values(spec.delay_gain, times, (), "delay_gain")
    z = d_tab * uv + mu_tab * u_del
    if spec.n == 0:
        return Trajectory(grid, z, "ct")
    A_tab = sample_values(spec.A, times, (spec.n, spec.n), "A")
    b_tab = sample_values(spec.b, times, (spec.n,), "b")
    c_tab = sample_values(spec.c, times, (spec.n,), "c")
    if spec.n == 1:
        A, force, x0 = A_tab[:-1, 0, 0], b_tab[:-1, 0] * uv[:-1], 0.0
    else:
        A, force, x0 = A_tab[:-1], b_tab[:-1] * uv[:-1, None], np.zeros(spec.n)
    xs = affine_scan(*rk4_affine(A, A, A, force, force, force, h), x0)
    z = z + np.einsum("ki,ki->k", c_tab, xs.reshape(grid.count, spec.n))
    return Trajectory(grid, z, "ct")


def reference_apply_channel_dt(spec, u):
    grid = u.grid
    ks = np.arange(grid.count)
    uv = u.values
    u_del = delayed(uv, int(round(spec.delay)))
    d_tab = sample_values(spec.d, ks, (), "d")
    mu_tab = sample_values(spec.delay_gain, ks, (), "delay_gain")
    z = d_tab * uv + mu_tab * u_del
    if spec.n == 0:
        return Trajectory(grid, z, "dt")
    A_tab = sample_values(spec.A, ks, (spec.n, spec.n), "A")
    b_tab = sample_values(spec.b, ks, (spec.n,), "b")
    c_tab = sample_values(spec.c, ks, (spec.n,), "c")
    x = np.zeros(spec.n)
    xs = np.empty((grid.count, spec.n))
    xs[0] = x
    for k in range(grid.count - 1):
        x = A_tab[k] @ x + b_tab[k] * uv[k]
        xs[k + 1] = x
    z = z + np.einsum("ki,ki->k", c_tab, xs)
    return Trajectory(grid, z, "dt")


def reference_extend(bank, y, phi):
    apply = reference_apply_channel_ct if bank.kind == "ct" else reference_apply_channel_dt
    count, m = phi.values.shape
    Y = np.empty((count, m))
    Phi = np.empty((count, m, m))
    for i, ch in enumerate(bank.channels):
        Y[:, i] = apply(ch, y).values
        for j in range(m):
            Phi[:, i, j] = apply(ch, Trajectory(phi.grid, phi.values[:, j], phi.kind)).values
    return Trajectory(y.grid, Y, y.kind), Trajectory(y.grid, Phi, y.kind)


def random_channel(rng, kind, n, style, lag, step):
    """A stable channel with a delay tap of ``lag`` steps, whose state starts
    at rest.

    ``style`` picks the coefficients: constants, plain numpy callables or
    named ``Sinusoid`` signals, each callable evaluated on the whole array.
    ``A`` is constant or a positively scaled constant, so it stays stable;
    vector ``b`` and ``c`` of a Sinusoid channel are callables.
    """

    def scalar():
        return float(rng.uniform(-2.0, 2.0))

    def coefficient(shape=()):
        value, w = rng.uniform(-2.0, 2.0, size=shape), float(rng.uniform(0.1, 5.0))
        if style == "constant":
            return value if shape else float(value)
        if style == "sinusoid" and not shape:
            return Sinusoid(scalar(), w, scalar())
        return lambda t: np.multiply.outer(np.cos(w * t), value)

    fields = dict(d=coefficient(), delay_gain=coefficient(), delay=lag * step, kind=kind)
    if n == 0:
        return LtvChannelSpec(n=0, **fields)
    R = rng.normal(size=(n, n))
    radius = np.abs(np.linalg.eigvals(R)).max()
    if kind == "ct":
        A0 = R - (radius + rng.uniform(0.5, 3.0)) * np.eye(n)
    else:
        A0 = rng.uniform(0.1, 0.9) * R / radius
    A = A0 if style == "constant" else lambda t: np.multiply.outer(1.0 + 0.05 * np.sin(t), A0)
    shape = (n,) if n > 1 else ()
    return LtvChannelSpec(n=n, A=A, b=coefficient(shape), c=coefficient(shape), **fields)


def random_bank(seed, kind, ns, style, count):
    rng = np.random.default_rng(seed)
    step = 1e-2 if kind == "ct" else 1.0
    m = len(ns)
    grid = TimeGrid(0.0, step, count)
    phi = Trajectory(grid, rng.normal(size=(count, m)), kind)
    y = Trajectory(grid, rng.normal(size=count), kind)
    lags = rng.integers(0, max(count, 2), size=m)
    bank = OperatorBank(
        tuple(random_channel(rng, kind, n, style, int(lag), step) for n, lag in zip(ns, lags))
    )
    return bank, y, phi


def bits(values):
    return np.ascontiguousarray(values).view(np.int64)


bank_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    ns=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    style=st.sampled_from(["constant", "callable", "sinusoid"]),
)


class TestSharedChannelRunner:
    """CT channels reproduce the earlier per-kind bodies bit for bit, sign
    bits included; DT channels compose their exact step maps by a scan and
    match the sample-by-sample recursion to rounding."""

    @given(count=st.sampled_from([1, 2, 3, 7, 64, 100, 301]), **bank_cases)
    @settings(max_examples=40)
    def test_ct_bank_bit_identical_to_reference(self, seed, ns, style, count):
        bank, y, phi = random_bank(seed, "ct", ns, style, count)
        Y, Phi = extend(bank, y, phi)
        Yr, Phir = reference_extend(bank, y, phi)
        np.testing.assert_array_equal(bits(Y.values), bits(Yr.values))
        np.testing.assert_array_equal(bits(Phi.values), bits(Phir.values))
        for ch in bank.channels:
            z = run_channel(ch, y)
            np.testing.assert_array_equal(bits(z), bits(reference_apply_channel_ct(ch, y).values))

    @given(count=st.sampled_from([1, 2, 3, 5, 6, 7, 100, 129, 301]), **bank_cases)
    @settings(max_examples=40)
    def test_dt_bank_matches_sequential_recursion(self, seed, ns, style, count):
        bank, y, phi = random_bank(seed, "dt", ns, style, count)
        Y, Phi = extend(bank, y, phi)
        Yr, Phir = reference_extend(bank, y, phi)
        for new, ref in ((Y.values, Yr.values), (Phi.values, Phir.values)):
            scale = max(np.abs(ref).max(), 1e-300)
            assert np.abs(new - ref).max() <= 1e-12 * scale
        for ch in bank.channels:
            z, zr = run_channel(ch, y), reference_apply_channel_dt(ch, y).values
            assert np.abs(z - zr).max() <= 1e-12 * max(np.abs(zr).max(), 1e-300)
            if ch.n == 0:
                # no state: the same arithmetic, bit for bit
                np.testing.assert_array_equal(bits(z), bits(zr))

    def test_signed_zeros_match_reference(self):
        # zero feedthrough on a negative input gives -0.0, and so does a
        # negative c on a zero state; their sum must keep the earlier sign
        grid = TimeGrid(0.0, 1e-2, 6)
        y = Trajectory(grid, [-1.0, -0.0, 0.0, -2.0, 1.0, -0.0], "ct")
        phi = Trajectory(grid, -np.abs(np.arange(12.0).reshape(6, 2)), "ct")
        bank = OperatorBank(
            (
                LtvChannelSpec(n=1, A=-1.0, b=0.0, c=-1.0),
                LtvChannelSpec(n=2, A=-np.eye(2), b=[0.0, 1.0], c=[-1.0, 0.5], delay_gain=0.0, delay=0.02),
            )
        )
        for new, ref in zip(extend(bank, y, phi), reference_extend(bank, y, phi)):
            np.testing.assert_array_equal(bits(new.values), bits(ref.values))
        assert np.signbit(reference_extend(bank, y, phi)[0].values).any()

    def test_callable_coefficient_tabulated_once_per_channel(self):
        calls = []

        def b(t):
            calls.append(t)
            return np.ones_like(t)

        grid = TimeGrid(0.0, 1e-2, 50)
        bank = OperatorBank((LtvChannelSpec(n=1, A=-1.0, b=b, c=1.0),) * 3)
        extend(bank, Trajectory(grid, np.ones(50), "ct"), Trajectory(grid, np.ones((50, 3)), "ct"))
        assert len(calls) == 3
        for t in calls:
            np.testing.assert_array_equal(t, grid.times())
