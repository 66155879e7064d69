"""The CT integrator: RK4 step maps composed by an affine prefix scan.

Three kinds of reference run here, all tests-only:

* generic loops for the recursion x_{k+1} = a_k x_k + b_k and for the RK4
  stage sequence of x' = L x + f, compared with ``affine_scan`` and
  ``rk4_affine`` by property tests;
* copies of the per-sample RK4 loops each converted site used to run,
  compared with the site on seeded input;
* a copy of the elementwise scan kernel and RK4 stage products that the
  planar ones replaced, which elementwise maps must match bit for bit.

The scan composes the steps in another order than the loop, so results agree
to rounding, not bit for bit: the bound is 1e-12 relative to sup |x|.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dremkit.estimators import GradientConfig, ct_gradient, drem_ct
from dremkit.integrate import affine_scan, rk4_affine
from dremkit.mixing import MixedRegression
from dremkit.operators import (
    KreSpec,
    LtvChannelSpec,
    OperatorBank,
    _delay_steps,
    extend,
    kre_ct,
)
from dremkit.scenarios import (
    PlantSpec,
    RegressorSpec,
    Sinusoid,
    build_regressor,
    simulate_plant,
)
from dremkit.signals import TimeGrid, Trajectory, delayed, sample_values

REL_TOL = 1e-12
# "columns" is a matrix map over c stacked state columns, b of shape (N, n, c)
KINDS = ("scalar", "component", "matrix", "columns")
# 0, 1 and 2 steps, powers of two and their neighbours, and arbitrary lengths
LENGTHS = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 7, 8, 9, 16, 33]), st.integers(0, 80))


def assert_close(actual, reference):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    scale = max(float(np.abs(reference).max()), 1e-300)
    assert float(np.abs(actual - reference).max()) <= REL_TOL * scale


def apply_map(a, x, kind):
    return a @ x if kind in ("matrix", "columns") else a * x


def bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def sequential_scan(a, b, x0, kind):
    x = np.asarray(x0, float)
    xs = [x]
    for k in range(len(b)):
        x = apply_map(a[k], x, kind) + b[k]
        xs.append(x)
    return np.array(xs)


def sequential_rk4(L0, Lm, L1, f0, fm, f1, h, x0, kind):
    x = np.asarray(x0, float)
    xs = [x]
    for k in range(len(f0)):
        k1 = apply_map(L0[k], x, kind) + f0[k]
        k2 = apply_map(Lm[k], x + 0.5 * h * k1, kind) + fm[k]
        k3 = apply_map(Lm[k], x + 0.5 * h * k2, kind) + fm[k]
        k4 = apply_map(L1[k], x + h * k3, kind) + f1[k]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x)
    return np.array(xs)


def random_maps(rng, kind, count, n):
    """(a, b, x0) with |a| <= 1 (row sums for matrices) and a non-zero x0."""
    if kind == "scalar":
        a = rng.uniform(-1.0, 1.0, count)
        b = rng.normal(size=count)
        x0 = rng.uniform(0.5, 2.0)
    elif kind == "component":
        a = rng.uniform(-1.0, 1.0, (count, n))
        b = rng.normal(size=(count, n))
        x0 = rng.uniform(0.5, 2.0, n)
    else:
        columns = (3,) if kind == "columns" else ()
        a = rng.uniform(-1.0, 1.0, (count, n, n)) / n
        b = rng.normal(size=(count, n) + columns)
        x0 = rng.uniform(0.5, 2.0, (n,) + columns)
    return a, b, x0


class TestAffineScan:
    @given(kind=st.sampled_from(KINDS), count=LENGTHS, n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_composition(self, kind, count, n, seed):
        a, b, x0 = random_maps(np.random.default_rng(seed), kind, count, n)
        x = affine_scan(a, b, x0)
        assert_close(x, sequential_scan(a, b, x0, kind))
        np.testing.assert_array_equal(x[0], x0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_steps_return_x0(self, kind):
        a, b, x0 = random_maps(np.random.default_rng(1), kind, 0, 3)
        x = affine_scan(a, b, x0)
        assert x.shape == (1,) + np.shape(x0)
        np.testing.assert_array_equal(x[0], x0)

    def test_scalar_map_broadcasts_over_columns(self, rng):
        b = rng.normal(size=(37, 5))
        x0 = rng.normal(size=5)
        x = affine_scan(0.9, b, x0)
        assert_close(x, sequential_scan(np.full(b.shape, 0.9), b, x0, "component"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_does_not_modify_its_inputs(self, kind, n, rng):
        # moved to time-last planes, a caller's array can already be
        # contiguous (a matrix at n = 1, maps over one column), and the
        # scan's buffer swap would overwrite it
        a, b, x0 = random_maps(rng, kind, 21, n)
        copies = [np.copy(v) for v in (a, b, x0)]
        affine_scan(a, b, x0)
        for value, copy in zip((a, b, x0), copies):
            np.testing.assert_array_equal(value, copy)

    @given(
        count=st.sampled_from([0, 1, 2, 3, 37, 100]),
        n=st.integers(1, 4),
        layout=st.sampled_from(["contiguous", "fortran", "sliced"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_maps_in_any_memory_layout(self, count, n, layout, seed):
        # the planes are read from the caller's (N, n, n) and (N, n) arrays
        # whatever their strides
        a, b, x0 = random_maps(np.random.default_rng(seed), "matrix", count, n)
        if layout == "fortran":
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        elif layout == "sliced":
            a, b = np.repeat(a, 2, axis=-1)[..., ::2], np.repeat(b, 2, axis=-1)[..., ::2]
        x = affine_scan(a, b, x0)
        assert_close(x, sequential_scan(a, b, x0, "matrix"))
        np.testing.assert_array_equal(x[0], x0)

    @given(count=LENGTHS, n=st.integers(1, 4), columns=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_stacked_columns_match_single_column_calls(self, count, n, columns, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (count, n, n)) / n
        b = rng.normal(size=(count, n, columns))
        x0 = rng.uniform(0.5, 2.0, (n, columns))
        x = affine_scan(a, b, x0)
        assert x.shape == (count + 1, n, columns)
        for j in range(columns):
            np.testing.assert_array_equal(bits(x[..., j]), bits(affine_scan(a, b[..., j], x0[:, j])))

    @pytest.mark.parametrize("kind", KINDS)
    def test_divergence_raises(self, kind):
        a, b, x0 = random_maps(np.random.default_rng(2), kind, 900, 2)
        with pytest.raises(FloatingPointError):
            affine_scan(1e6 * a, b, x0)


class TestRk4Affine:
    @given(
        kind=st.sampled_from(KINDS),
        count=LENGTHS,
        n=st.integers(1, 3),
        h=st.floats(1e-4, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_of_step_maps_matches_sequential_rk4(self, kind, count, n, h, seed):
        rng = np.random.default_rng(seed)
        shape = {"scalar": (count,), "component": (count, n)}.get(kind, (count, n, n))
        fshape = {"scalar": (count,), "columns": (count, n, 3)}.get(kind, (count, n))
        L0, Lm, L1 = (rng.uniform(-3.0, 1.0, shape) for _ in range(3))
        f0, fm, f1 = (rng.normal(size=fshape) for _ in range(3))
        x0 = rng.uniform(0.5, 2.0, fshape[1:])
        x = affine_scan(*rk4_affine(L0, Lm, L1, f0, fm, f1, h), x0)
        assert_close(x, sequential_rk4(L0, Lm, L1, f0, fm, f1, h, x0, kind))

    @given(
        count=LENGTHS,
        n=st.integers(1, 4),
        columns=st.integers(1, 5),
        h=st.floats(1e-4, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_columns_match_single_column_calls(self, count, n, columns, h, seed):
        rng = np.random.default_rng(seed)
        L0, Lm, L1 = (rng.uniform(-3.0, 1.0, (count, n, n)) for _ in range(3))
        f0, fm, f1 = (rng.normal(size=(count, n, columns)) for _ in range(3))
        a, b = rk4_affine(L0, Lm, L1, f0, fm, f1, h)
        assert a.shape == (count, n, n) and b.shape == (count, n, columns)
        for j in range(columns):
            a_j, b_j = rk4_affine(L0, Lm, L1, f0[..., j], fm[..., j], f1[..., j], h)
            np.testing.assert_array_equal(bits(a), bits(a_j))
            np.testing.assert_array_equal(bits(b[..., j]), bits(b_j))

    def test_held_scalar_step_is_the_rk4_polynomial(self):
        # with constant L the step map is the degree-4 Taylor polynomial of exp(hL)
        h, L = 0.1, -2.0
        a, b = rk4_affine(L, L, L, np.zeros(1), np.zeros(1), np.zeros(1), h)
        z = h * L
        assert a == pytest.approx(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, rel=1e-15)
        np.testing.assert_array_equal(b, [0.0])


# Copy of the elementwise scan kernel and RK4 stage products that the planar
# ones replaced. Elementwise maps are the n = 1 planes, so the planar code
# must give the same bits, signed zeros included.


def old_elementwise_scan(a, b, x0):
    b = np.array(b, dtype=float)
    count = b.shape[0]
    # a map shared by all components (a scalar) gets a time axis only
    steps = (count,) + (1,) * (b.ndim - 1)
    a = np.broadcast_to(a, np.broadcast_shapes(np.shape(a), steps))
    a = np.array(a, dtype=float)
    a_next, b_next = np.empty_like(a), np.empty_like(b)
    x = np.empty((count + 1,) + b.shape[1:])
    d = 1
    while d < count:
        a_next[:d], b_next[:d] = a[:d], b[:d]
        np.multiply(a[d:], b[:-d], out=b_next[d:])
        np.multiply(a[d:], a[:-d], out=a_next[d:])
        b_next[d:] += b[d:]
        a, a_next = a_next, a
        b, b_next = b_next, b
        d *= 2
    x[0] = x0
    x[1:] = a * x0 + b
    return x


def old_elementwise_rk4(L0, Lm, L1, f0, fm, f1, h):
    hh = 0.5 * h
    A1, B1 = L0, f0
    A2 = Lm * (1.0 + hh * A1)
    B2 = Lm * (hh * B1) + fm
    A3 = Lm * (1.0 + hh * A2)
    B3 = Lm * (hh * B2) + fm
    A4 = L1 * (1.0 + h * A3)
    B4 = L1 * (h * B3) + f1
    a = 1.0 + (h / 6.0) * (A1 + 2.0 * A2 + 2.0 * A3 + A4)
    b = (h / 6.0) * (B1 + 2.0 * B2 + 2.0 * B3 + B4)
    return a, b


def assert_same_bits(new, old):
    assert np.shape(new) == np.shape(old)
    np.testing.assert_array_equal(bits(np.atleast_1d(new)), bits(np.atleast_1d(np.asarray(old, float))))


def with_signed_zeros(rng, values):
    """``values`` with about a fifth of its entries set to +0.0 or -0.0."""
    values = np.array(values, dtype=float)
    zeros = rng.random(values.shape) < 0.2
    values[zeros] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[zeros]
    return values


# elementwise map shapes: a shared scalar over (N, n) columns, one scalar
# ODE, and one map per component
ELEMENTWISE = ("shared", "scalar", "component")


def elementwise_shapes(kind, count, n):
    """(map shape, force or state-sequence shape) of an elementwise kind."""
    return {"shared": ((), (count, n)), "scalar": ((count,), (count,))}.get(kind, ((count, n), (count, n)))


class TestElementwiseMapsMatchTheReplacedKernel:
    @given(kind=st.sampled_from(ELEMENTWISE), count=LENGTHS, n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_affine_scan(self, kind, count, n, seed):
        rng = np.random.default_rng(seed)
        a_shape, b_shape = elementwise_shapes(kind, count, n)
        a = with_signed_zeros(rng, rng.uniform(-1.0, 1.0, a_shape))
        b = with_signed_zeros(rng, rng.normal(size=b_shape))
        x0 = with_signed_zeros(rng, rng.uniform(-2.0, 2.0, b_shape[1:]))
        assert_same_bits(affine_scan(a, b, x0), old_elementwise_scan(a, b, x0))

    @given(
        kind=st.sampled_from(ELEMENTWISE),
        count=LENGTHS,
        n=st.integers(1, 4),
        h=st.floats(1e-4, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rk4_affine(self, kind, count, n, h, seed):
        rng = np.random.default_rng(seed)
        L_shape, f_shape = elementwise_shapes(kind, count, n)
        L = [with_signed_zeros(rng, rng.uniform(-3.0, 1.0, L_shape)) for _ in range(3)]
        f = [with_signed_zeros(rng, rng.normal(size=f_shape)) for _ in range(3)]
        new, old = rk4_affine(*L, *f, h), old_elementwise_rk4(*L, *f, h)
        for value, reference in zip(new, old):
            assert_same_bits(value, reference)
        x0 = rng.uniform(0.5, 2.0, f_shape[1:])
        assert_same_bits(affine_scan(*new, x0), old_elementwise_scan(*old, x0))


# Copies of the per-sample RK4 loops the converted sites used to run.


def old_simulate_plant(spec, grid):
    h = grid.step
    times = grid.times()
    u = np.array([spec.input(float(t)) for t in times])
    y = np.empty(grid.count)
    yk = spec.y0
    y[0] = yk
    a, b = spec.a, spec.b
    for k in range(grid.count - 1):
        um = spec.input(float(times[k]) + 0.5 * h)
        k1 = a * yk + b * u[k]
        k2 = a * (yk + 0.5 * h * k1) + b * um
        k3 = a * (yk + 0.5 * h * k2) + b * um
        k4 = a * (yk + h * k3) + b * u[k + 1]
        yk = yk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[k + 1] = yk
    return y


def old_build_regressor(pole, phi0, u, y, h):
    drives = np.stack([y, u], axis=1)
    mids = 0.5 * (drives[:-1] + drives[1:])
    x = np.asarray(phi0, float).copy()
    phi = np.empty((len(u), 2))
    phi[0] = x
    for k in range(len(u) - 1):
        k1 = -pole * x + drives[k]
        k2 = -pole * (x + 0.5 * h * k1) + mids[k]
        k3 = -pole * (x + 0.5 * h * k2) + mids[k]
        k4 = -pole * (x + h * k3) + drives[k + 1]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi[k + 1] = x
    return phi


def old_ct_gradient(yv, pv, g, x0, h):
    pm, ym = 0.5 * (pv[:-1] + pv[1:]), 0.5 * (yv[:-1] + yv[1:])
    th = np.empty(pv.shape)
    x = np.asarray(x0, float).copy()
    th[0] = x
    for k in range(len(yv) - 1):
        k1 = g * pv[k] * (yv[k] - pv[k] @ x)
        k2 = g * pm[k] * (ym[k] - pm[k] @ (x + 0.5 * h * k1))
        k3 = g * pm[k] * (ym[k] - pm[k] @ (x + 0.5 * h * k2))
        k4 = g * pv[k + 1] * (yv[k + 1] - pv[k + 1] @ (x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        th[k + 1] = x
    return th


def old_drem_ct(D, Yc, gamma, x0, h):
    Dm, Ym = 0.5 * (D[:-1] + D[1:]), 0.5 * (Yc[:-1] + Yc[1:])
    th = np.empty(Yc.shape)
    x = np.asarray(x0, float).copy()
    th[0] = x
    for k in range(len(D) - 1):
        k1 = gamma * D[k] * (Yc[k] - D[k] * x)
        k2 = gamma * Dm[k] * (Ym[k] - Dm[k] * (x + 0.5 * h * k1))
        k3 = gamma * Dm[k] * (Ym[k] - Dm[k] * (x + 0.5 * h * k2))
        k4 = gamma * D[k + 1] * (Yc[k + 1] - D[k + 1] * (x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        th[k + 1] = x
    return th


def old_apply_channel_ct(spec, u):
    grid = u.grid
    h = grid.step
    times = grid.times()
    uv = u.values
    u_del = delayed(uv, _delay_steps(spec.delay, h))
    z = sample_values(spec.d, times, (), "d") * uv
    z = z + sample_values(spec.delay_gain, times, (), "delay_gain") * u_del
    A_tab = sample_values(spec.A, times, (spec.n, spec.n), "A")
    b_tab = sample_values(spec.b, times, (spec.n,), "b")
    c_tab = sample_values(spec.c, times, (spec.n,), "c")
    x = np.zeros(spec.n)
    xs = np.empty((grid.count, spec.n))
    xs[0] = x
    for k in range(grid.count - 1):
        A, force = A_tab[k], b_tab[k] * uv[k]
        k1 = A @ x + force
        k2 = A @ (x + 0.5 * h * k1) + force
        k3 = A @ (x + 0.5 * h * k2) + force
        k4 = A @ (x + h * k3) + force
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[k + 1] = x
    return z + np.einsum("ki,ki->k", c_tab, xs)


def old_kre_ct(pole, omega0, z0, yv, pv, h):
    P = np.einsum("ki,kj->kij", pv, pv)
    q = pv * yv[:, None]
    omega, zvec = omega0.copy(), z0.copy()
    Omega = np.empty(P.shape)
    Z = np.empty(q.shape)
    Omega[0], Z[0] = omega, zvec
    for k in range(len(yv) - 1):
        for state, force in ((omega, P[k]), (zvec, q[k])):
            k1 = -pole * state + force
            k2 = -pole * (state + 0.5 * h * k1) + force
            k3 = -pole * (state + 0.5 * h * k2) + force
            k4 = -pole * (state + h * k3) + force
            state += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Omega[k + 1], Z[k + 1] = omega, zvec
    return Z, Omega


@pytest.fixture
def grid():
    return TimeGrid.from_horizon(2.0, 1e-3)


def smooth_signals(rng, grid, count):
    t = grid.times()
    out = np.zeros((grid.count, count))
    for j in range(count):
        for _ in range(3):
            out[:, j] += rng.uniform(0.2, 1.5) * np.sin(
                rng.uniform(0.3, 6.0) * t + rng.uniform(0.0, 2.0 * np.pi)
            )
    return out


class TestSitesMatchTheirOldLoops:
    def test_simulate_plant(self, grid):
        plant = PlantSpec(a=-0.7, b=0.3, y0=1.25, input=Sinusoid(15.0, 2.5, 1.0))
        _, y = simulate_plant(plant, grid)
        assert_close(y.values, old_simulate_plant(plant, grid))

    def test_build_regressor(self, grid, rng):
        plant = PlantSpec(a=-0.4, b=0.4)
        u, y = (Trajectory(grid, col, "ct") for col in smooth_signals(rng, grid, 2).T)
        phi, _ = build_regressor(RegressorSpec(pole=5.0), plant, u, y)
        assert_close(phi.values, old_build_regressor(5.0, np.zeros(2), u.values, y.values, grid.step))

    def test_ct_gradient(self, grid, rng):
        pv = smooth_signals(rng, grid, 3)
        yv = pv @ np.array([1.0, -2.0, 0.5]) + 0.1 * np.cos(grid.times())
        x0 = np.array([0.5, 0.2, -1.0])
        run = ct_gradient(
            Trajectory(grid, yv, "ct"), Trajectory(grid, pv, "ct"), GradientConfig(3.0, x0)
        )
        assert_close(run.theta_hat.values, old_ct_gradient(yv, pv, 3.0, x0, grid.step))

    def test_drem_ct(self, grid, rng):
        D = smooth_signals(rng, grid, 1)[:, 0]
        Yc = D[:, None] * np.array([1.5, -3.0]) + 0.05 * smooth_signals(rng, grid, 2)
        gamma = np.array([2.0, 0.7])
        x0 = np.array([-1.0, 4.0])
        mixed = MixedRegression(Trajectory(grid, Yc, "ct"), Trajectory(grid, D, "ct"))
        run = drem_ct(mixed, GradientConfig(gamma, x0))
        assert_close(run.theta_hat.values, old_drem_ct(D, Yc, gamma, x0, grid.step))

    @pytest.mark.parametrize(
        "spec",
        [
            LtvChannelSpec(
                n=1, A=-2.0, b=Sinusoid(1.0, 3.0, 0.2), c=1.5, d=0.3,
                delay_gain=0.5, delay=0.05, kind="ct",
            ),
            LtvChannelSpec(
                n=2, A=[[-1.0, 2.0], [-2.0, -3.0]],
                b=lambda t: np.stack([np.sin(2.0 * t), np.ones_like(t)], axis=-1), c=[1.0, -0.5],
                delay_gain=-0.8, delay=0.1, kind="ct",
            ),
        ],
        ids=["n1", "n2"],
    )
    def test_apply_channel_ct(self, spec, grid, rng):
        # a one-channel bank's Y is the channel applied to u
        u = Trajectory(grid, smooth_signals(rng, grid, 1)[:, 0], "ct")
        Y, _ = extend(OperatorBank((spec,)), u, u.with_values(u.values[:, None]))
        assert_close(Y.values[:, 0], old_apply_channel_ct(spec, u))

    def test_kre_ct(self, grid, rng):
        pv = smooth_signals(rng, grid, 3)
        yv = pv @ np.array([1.0, -2.0, 0.5])
        Z, Omega = kre_ct(KreSpec(pole=1.5), Trajectory(grid, yv, "ct"), Trajectory(grid, pv, "ct"))
        Z_ref, Omega_ref = old_kre_ct(1.5, np.zeros((3, 3)), np.zeros(3), yv, pv, grid.step)
        assert_close(Omega.values, Omega_ref)
        assert_close(Z.values, Z_ref)

    def test_single_sample_grid_returns_initial_state(self):
        grid = TimeGrid.from_horizon(0.0, 1e-3)
        mixed = MixedRegression(
            Trajectory(grid, np.ones((1, 2)), "ct"), Trajectory(grid, np.ones(1), "ct")
        )
        run = drem_ct(mixed, GradientConfig(1.0, np.array([0.5, -0.5])))
        np.testing.assert_array_equal(run.theta_hat.values, [[0.5, -0.5]])
