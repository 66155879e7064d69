import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremkit.mixing import (
    MixedRegression,
    _adj_det_batch,
    adjugate,
    determinant,
    extend_with_feedforward,
    feedforward_gain,
    mix,
)
from dremkit.operators import LtvChannelSpec, OperatorBank
from dremkit.signals import TimeGrid, Trajectory


def oracle_adjugate(M):
    """Independent minor-by-minor cofactor expansion using LAPACK minors."""
    m = M.shape[0]
    if m == 1:
        return np.array([[1.0]])
    C = np.empty_like(M)
    for i in range(m):
        for j in range(m):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            C[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return C.T


# Copies of the per-matrix routines that the batched adjugate replaced. They
# are the reference for the batched path: equal values at m <= 4, where the
# cofactor expressions are the same, and rounding-level agreement at m >= 5.


def old_det2(M):
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def old_det3(M):
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def old_determinant(M):
    m = M.shape[0]
    if m == 1:
        return float(M[0, 0])
    if m == 2:
        return float(old_det2(M))
    if m == 3:
        return float(old_det3(M))
    if m == 4:
        total = 0.0
        sign = 1.0
        for j in range(4):
            minor = np.delete(M[1:], j, axis=1)
            total += sign * M[0, j] * old_det3(minor)
            sign = -sign
        return float(total)
    return float(np.linalg.det(M))


def old_adjugate(M):
    m = M.shape[0]
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]])
    if m <= 4:
        cof = np.empty_like(M)
        for i in range(m):
            for j in range(m):
                minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
                cof[i, j] = (-1.0) ** (i + j) * old_determinant(minor)
        return cof.T
    Mk = np.eye(m)
    ck = -np.trace(M)
    for k in range(2, m + 1):
        Mk = M @ Mk + ck * np.eye(m)
        ck = -np.trace(M @ Mk) / k
    return (-1.0) ** (m - 1) * Mk


def matrix_stack(m, kind, seed, exponent):
    """A stack of m x m matrices of one kind: "random" entries in [-1, 1],
    "rank_deficient" (a repeated row, a zero column and rank-one members),
    "near_singular" (a row perturbed off a combination of the others by
    10^exponent) or "badly_scaled" (rows and columns scaled by powers of ten
    spanning 10^-exponent..10^exponent)."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, (12, m, m))
    if kind == "rank_deficient" and m >= 2:
        M[:4, 1] = M[:4, 0]
        M[4:8, :, -1] = 0.0
        M[8:] = np.einsum("ki,kj->kij", rng.uniform(-1, 1, (4, m)), rng.uniform(-1, 1, (4, m)))
    elif kind == "near_singular" and m >= 2:
        mix_rows = np.einsum("ki,kij->kj", rng.uniform(-1, 1, (12, m - 1)), M[:, :-1])
        M[:, -1] = mix_rows + 10.0 ** -exponent * rng.uniform(-1, 1, (12, m))
    elif kind == "badly_scaled":
        rows = 10.0 ** rng.uniform(-exponent, exponent, (12, m, 1))
        cols = 10.0 ** rng.uniform(-exponent, exponent, (12, 1, m))
        M = rows * M * cols
    return M


class TestAdjugate:
    def test_identity(self):
        np.testing.assert_array_equal(adjugate(np.eye(3)), np.eye(3))

    def test_2x2_cofactor_formula(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(adjugate(M), [[4.0, -2.0], [-3.0, 1.0]])

    def test_scalar_convention(self):
        np.testing.assert_array_equal(adjugate(np.array([[7.0]])), [[1.0]])

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_minor_oracle(self, m, rng):
        for _ in range(25):
            M = rng.uniform(-1, 1, (m, m))
            np.testing.assert_allclose(adjugate(M), oracle_adjugate(M), atol=1e-11)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_identity_product_including_singular(self, m, rng):
        mats = [rng.uniform(-1, 1, (m, m)) for _ in range(30)]
        # rank-deficient cases: duplicated row and outer product
        if m >= 2:
            M = rng.uniform(-1, 1, (m, m))
            M[1] = M[0]
            mats.append(M)
            u, v = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
            mats.append(np.outer(u, v))
        for M in mats:
            adj = adjugate(M)
            det = determinant(M)
            tol = 1e-9 * (1.0 + abs(det))
            assert np.abs(adj @ M - det * np.eye(m)).max() <= tol
            assert np.abs(M @ adj - det * np.eye(m)).max() <= tol

    @given(
        c=st.floats(-3, 3, allow_nan=False),
        m=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_scaling_law(self, c, m, seed):
        # adj(c M) = c^(m-1) adj(M)
        M = np.random.default_rng(seed).uniform(-1, 1, (m, m))
        scale = abs(np.abs(adjugate(M)).max()) + 1.0
        np.testing.assert_allclose(
            adjugate(c * M),
            c ** (m - 1) * adjugate(M),
            atol=1e-10 * scale * (1 + abs(c)) ** (m - 1),
        )

    def test_random_4x4_identity_tolerance(self, rng):
        for _ in range(50):
            M = rng.uniform(-1, 1, (4, 4))
            det = determinant(M)
            resid = np.abs(adjugate(M) @ M - det * np.eye(4)).max()
            assert resid <= 1e-9 * (1.0 + abs(det))


def assert_same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


MATRIX_KINDS = ["random", "rank_deficient", "near_singular", "badly_scaled"]


class TestBatchedAdjugate:
    """The batched adjugate is the only implementation; the per-matrix
    functions wrap a batch of one."""

    @given(
        m=st.integers(1, 6),
        kind=st.sampled_from(MATRIX_KINDS),
        seed=st.integers(0, 2**31 - 1),
        exponent=st.integers(0, 12),
    )
    @settings(max_examples=120, deadline=None)
    def test_identity_property(self, m, kind, seed, exponent):
        # adj(M) M = M adj(M) = det(M) I, to rounding relative to |M|_F^m,
        # which bounds every term of every entry of both products
        Ms = matrix_stack(m, kind, seed, exponent)
        adj, det = _adj_det_batch(Ms)
        eye = np.eye(m)
        for M, A, d in zip(Ms, adj, det):
            scale = max(np.linalg.norm(M) ** m, np.finfo(float).tiny)
            assert np.abs(A @ M - d * eye).max() <= 1e-12 * scale
            assert np.abs(M @ A - d * eye).max() <= 1e-12 * scale

    @given(
        m=st.integers(1, 6),
        kind=st.sampled_from(MATRIX_KINDS),
        seed=st.integers(0, 2**31 - 1),
        exponent=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_wrappers_are_the_batch(self, m, kind, seed, exponent):
        Ms = matrix_stack(m, kind, seed, exponent)
        adj, det = _adj_det_batch(Ms)
        for k, M in enumerate(Ms):
            assert_same_bits(adjugate(M), adj[k])
            assert_same_bits(determinant(M), det[k])

    @given(
        m=st.integers(1, 6),
        kind=st.sampled_from(MATRIX_KINDS),
        seed=st.integers(0, 2**31 - 1),
        exponent=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_old_per_matrix_routines(self, m, kind, seed, exponent):
        Ms = matrix_stack(m, kind, seed, exponent)
        adj, det = _adj_det_batch(Ms)
        old_adj = np.array([old_adjugate(M) for M in Ms])
        old_det = np.array([old_determinant(M) for M in Ms])
        if m <= 4:
            np.testing.assert_array_equal(adj, old_adj)
            np.testing.assert_array_equal(det, old_det)
        else:
            np.testing.assert_allclose(adj, old_adj, rtol=0, atol=1e-12 * np.abs(old_adj).max())
            np.testing.assert_allclose(det, old_det, rtol=0, atol=1e-12 * np.abs(old_det).max())

    def test_mix_at_m3_matches_old_per_sample_mixing(self, rng):
        n = 40
        Phi = rng.normal(size=(n, 3, 3))
        Y = rng.normal(size=(n, 3))
        mixed = mix(matrix_traj(Y).with_values(Y), matrix_traj(Phi))
        old_adj = np.array([old_adjugate(M) for M in Phi])
        np.testing.assert_array_equal(mixed.calY.values, np.einsum("kij,kj->ki", old_adj, Y))
        np.testing.assert_array_equal(mixed.Delta.values, [old_determinant(M) for M in Phi])

    def test_empty_stack(self):
        for m in (1, 3, 5):
            adj, det = _adj_det_batch(np.zeros((0, m, m)))
            assert adj.shape == (0, m, m) and det.shape == (0,)


class TestDeterminant:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack(self, m, rng):
        for _ in range(20):
            M = rng.uniform(-1, 1, (m, m))
            assert determinant(M) == pytest.approx(np.linalg.det(M), abs=1e-12, rel=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            determinant(np.zeros((2, 3)))


def matrix_traj(values, kind="ct"):
    values = np.asarray(values, float)
    return Trajectory(TimeGrid(0.0, 0.1, values.shape[0]), values, kind)


class TestMix:
    def test_scalar_case(self, rng):
        n = 7
        Phi = rng.normal(size=(n, 1, 1))
        Y = rng.normal(size=(n, 1))
        mixed = mix(matrix_traj(Y).with_values(Y), matrix_traj(Phi))
        np.testing.assert_array_equal(mixed.calY.values, Y)
        np.testing.assert_array_equal(mixed.Delta.values, Phi[:, 0, 0])

    def test_identity_phi(self):
        n, m = 4, 3
        theta = np.array([1.0, -2.0, 0.5])
        Phi = np.tile(np.eye(m), (n, 1, 1))
        Y = np.tile(theta, (n, 1))
        mixed = mix(matrix_traj(Y).with_values(Y), matrix_traj(Phi))
        np.testing.assert_array_equal(mixed.calY.values, Y)
        np.testing.assert_array_equal(mixed.Delta.values, np.ones(n))

    def test_construct_then_verify(self, rng):
        # build Y = Phi theta exactly, then every component must satisfy
        # calY_i = Delta * theta_i
        n = 20
        theta = np.array([1.0, -2.0, 0.5])
        Phi = rng.normal(size=(n, 3, 3))
        Y = np.einsum("kij,j->ki", Phi, theta)
        mixed = mix(matrix_traj(Y).with_values(Y), matrix_traj(Phi))
        for i in range(3):
            resid = np.abs(mixed.calY.values[:, i] - mixed.Delta.values * theta[i])
            assert np.all(resid <= 1e-10 * (1.0 + np.abs(mixed.Delta.values)))

    def test_vectorized_2x2_path_matches_per_sample(self, rng):
        n = 15
        Phi = rng.normal(size=(n, 2, 2))
        Y = rng.normal(size=(n, 2))
        mixed = mix(matrix_traj(Y).with_values(Y), matrix_traj(Phi))
        for k in range(n):
            # the einsum matvec in mix and the @ of this check may round
            # differently by an ulp; the determinant is the same computation
            np.testing.assert_allclose(
                mixed.calY.values[k], adjugate(Phi[k]) @ Y[k], rtol=1e-14, atol=0
            )
            assert mixed.Delta.values[k] == determinant(Phi[k])

    def test_mixed_regression_validation(self, rng):
        grid = TimeGrid(0.0, 0.1, 5)
        with pytest.raises(ValueError):
            MixedRegression(
                calY=Trajectory(grid, rng.normal(size=5)),
                Delta=Trajectory(grid, rng.normal(size=5)),
            )


class TestFeedforward:
    def test_identity_phi0(self):
        d = feedforward_gain(np.eye(2), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(d, [1.0, 0.0])

    def test_degenerate_no_boost(self):
        # singular Phi0 whose adjugate annihilates phi: no determinant boost
        Phi0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        phi = np.array([1.0, 0.0])
        d = feedforward_gain(Phi0, phi)
        np.testing.assert_array_equal(d, [0.0, 0.0])
        assert determinant(Phi0 + np.outer(d, phi)) == determinant(Phi0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_boost_equals_squared_gain_norm(self, m, rng):
        # det(Phi0 + d phi^T) = det Phi0 + |d|^2 for the implemented gain
        for _ in range(50):
            Phi0 = rng.uniform(-1, 1, (m, m))
            phi = rng.uniform(-1, 1, m)
            d = feedforward_gain(Phi0, phi)
            lhs = determinant(Phi0 + np.outer(d, phi))
            rhs = determinant(Phi0) + d @ d
            scale = 1.0 + abs(determinant(Phi0)) + d @ d
            assert abs(lhs - rhs) <= 1e-9 * scale
            assert lhs >= determinant(Phi0) - 1e-12 * scale

    @given(m=st.integers(2, 4), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_determinant_lemma_arbitrary_direction(self, m, seed):
        # det(A + u phi^T) = det A + phi^T adj(A) u for any u
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1, 1, (m, m))
        u = rng.uniform(-1, 1, m)
        phi = rng.uniform(-1, 1, m)
        lhs = determinant(A + np.outer(u, phi))
        rhs = determinant(A) + phi @ adjugate(A) @ u
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))

    def test_extend_with_feedforward_zero_phi(self, rng):
        from dremkit.operators import extend

        grid = TimeGrid.from_horizon(0.5, 1e-3)
        y = Trajectory(grid, rng.normal(size=grid.count), "ct")
        phi = Trajectory(grid, np.zeros((grid.count, 2)), "ct")
        bank = OperatorBank(
            (
                LtvChannelSpec(n=1, A=-1.0, b=1.0, c=1.0, kind="ct"),
                LtvChannelSpec(n=1, A=-2.0, b=2.0, c=1.0, kind="ct"),
            )
        )
        Y0, Phi0 = extend(bank, y, phi)
        YN, PhiN = extend_with_feedforward(bank, y, phi)
        np.testing.assert_array_equal(YN.values, Y0.values)
        np.testing.assert_array_equal(PhiN.values, Phi0.values)

    def test_nonzero_feedthrough_bank_rejected(self, rng):
        grid = TimeGrid(0.0, 1e-3, 10)
        y = Trajectory(grid, rng.normal(size=10), "ct")
        phi = Trajectory(grid, rng.normal(size=(10, 1)), "ct")
        bank = OperatorBank((LtvChannelSpec(n=0, d=1.0, kind="ct"),))
        with pytest.raises(ValueError):
            extend_with_feedforward(bank, y, phi)

    def test_determinant_never_decreases_and_regression_preserved(self, rng):
        from dremkit.operators import extend

        grid = TimeGrid.from_horizon(3.0, 1e-3)
        t = grid.times()
        theta = np.array([4.6, 0.4])
        phi_vals = np.stack([np.sin(t) + 0.4, np.cos(1.7 * t)], axis=1)
        phi = Trajectory(grid, phi_vals, "ct")
        y = Trajectory(grid, phi_vals @ theta, "ct")
        bank = OperatorBank(
            (
                LtvChannelSpec(n=1, A=-1.0, b=1.0, c=1.0, kind="ct"),
                LtvChannelSpec(n=1, A=-2.0, b=2.0, c=1.0, kind="ct"),
            )
        )
        Y0, Phi0 = extend(bank, y, phi)
        YN, PhiN = extend_with_feedforward(bank, y, phi)
        det0 = np.array([determinant(M) for M in Phi0.values])
        detN = np.array([determinant(M) for M in PhiN.values])
        d = np.array([feedforward_gain(M, p) for M, p in zip(Phi0.values, phi_vals)])
        boost = np.einsum("ki,ki->k", d, d)
        scale = 1.0 + np.abs(det0) + boost
        assert np.all(detN >= det0 - 1e-12 * scale)
        strict = boost > 1e-8
        assert np.all(detN[strict] > det0[strict])
        # the feedthrough acts identically on y and phi, so Y = Phi theta is
        # preserved up to the original transient level
        resid0 = np.abs(Y0.values - np.einsum("kij,j->ki", Phi0.values, theta))
        residN = np.abs(YN.values - np.einsum("kij,j->ki", PhiN.values, theta))
        late = t >= 2.0
        assert residN[late].max() <= max(1e-3, 10 * resid0[late].max())
