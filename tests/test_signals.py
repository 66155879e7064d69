import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dremkit.signals import (
    SchedulePiece,
    ThetaSchedule,
    TimeGrid,
    Trajectory,
    eval_lre,
    pointwise_outer,
    sample_function,
    sample_schedule,
)


def tracking_profile():
    return ThetaSchedule(
        (
            SchedulePiece(0.0, 10.0),
            SchedulePiece(10.0, 15.0),
            SchedulePiece(20.0, 15.0, slope=-0.5),
            SchedulePiece(30.0, 10.0),
        )
    )


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 0)

    def test_times_and_horizon(self):
        grid = TimeGrid(1.0, 0.5, 4)
        np.testing.assert_allclose(grid.times(), [1.0, 1.5, 2.0, 2.5])
        assert grid.horizon == 1.5

    def test_from_horizon(self):
        grid = TimeGrid.from_horizon(2.0, 1e-3)
        assert grid.count == 2001

    def test_single_sample_grid(self):
        grid = TimeGrid.from_horizon(0.0, 1e-3)
        assert grid.count == 1


class TestTrajectory:
    def test_shape_checks(self):
        grid = TimeGrid(0.0, 0.1, 3)
        with pytest.raises(ValueError):
            Trajectory(grid, np.zeros(4))
        with pytest.raises(ValueError):
            Trajectory(grid, np.zeros((3, 2, 3)))

    def test_immutable(self):
        grid = TimeGrid(0.0, 0.1, 3)
        traj = Trajectory(grid, np.zeros(3))
        with pytest.raises(ValueError):
            traj.values[0] = 1.0

    def test_kind_flags(self):
        grid = TimeGrid(0.0, 0.1, 3)
        assert Trajectory(grid, np.zeros(3)).is_scalar
        assert Trajectory(grid, np.zeros((3, 2))).is_vector
        assert Trajectory(grid, np.zeros((3, 2, 2))).is_matrix

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
    )
    def test_linear_combination_matches_sampled_combination(self, a, b):
        # sampling a*f1 + b*f2 equals combining the sampled trajectories
        grid = TimeGrid(0.0, 0.25, 9)
        f1 = lambda t: np.sin(t)
        f2 = lambda t: t * t
        x = sample_function(grid, f1)
        y = sample_function(grid, f2)
        combined = sample_function(grid, lambda t: a * f1(t) + b * f2(t))
        direct = a * x + b * y
        np.testing.assert_array_equal(combined.values, direct.values)

    def test_pointwise_outer(self, rng):
        grid = TimeGrid(0.0, 0.1, 5)
        phi = Trajectory(grid, rng.normal(size=(5, 3)))
        out = pointwise_outer(phi)
        for k in range(5):
            np.testing.assert_array_equal(out.values[k], np.outer(phi.values[k], phi.values[k]))


class TestEvalLre:
    def test_zero_parameter(self):
        assert eval_lre(np.array([0.0, 0.0]), np.array([5.0, 7.0])) == 0.0

    def test_direct_dot_product(self):
        assert eval_lre(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_lre(np.array([1.0, 2.0]), np.array([3.0]))


class TestSchedule:
    def test_profile_values(self):
        sched = tracking_profile()
        assert sched.value_at(5.0)[0] == 10.0
        assert sched.value_at(25.0)[0] == pytest.approx(15.0 - 0.5 * 5.0)
        assert sched.value_at(35.0)[0] == 10.0

    def test_right_continuous_at_jumps(self):
        sched = tracking_profile()
        assert sched.value_at(10.0)[0] == 15.0
        assert sched.value_at(30.0)[0] == 10.0

    @given(t=st.floats(0.0, 40.0, allow_nan=False))
    def test_sampling_matches_pointwise(self, t):
        sched = tracking_profile()
        grid = TimeGrid(t, 1.0, 1)
        traj = sample_schedule(sched, grid)
        np.testing.assert_array_equal(traj.values[0], sched.value_at(t))

    @pytest.mark.parametrize(
        "sched",
        [
            tracking_profile(),
            ThetaSchedule(
                (
                    SchedulePiece(2.0, [1.0, -2.0], slope=[0.25, -0.1]),
                    SchedulePiece(12.5, [3.0, 4.0]),
                    SchedulePiece(27.3, [-1.0, 0.5], slope=[-0.3, 1.7]),
                )
            ),
        ],
    )
    @pytest.mark.parametrize("grid", [TimeGrid(0.0, 1e-3, 40_001), TimeGrid(-0.7, 0.37, 112)])
    def test_grid_across_every_boundary_matches_pointwise(self, sched, grid):
        # the vectorised sampler keeps each sample's expression, so it equals
        # value_at and the earlier per-sample loop bit for bit
        times = grid.times()
        assert times[0] <= sched.pieces[0].start and times[-1] > sched.pieces[-1].start
        traj = sample_schedule(sched, grid)
        starts = np.array([p.start for p in sched.pieces])
        idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, None)
        loop = np.empty_like(traj.values)
        for k, (t, i) in enumerate(zip(times, idx)):
            piece = sched.pieces[int(i)]
            loop[k] = piece.value if piece.slope is None else piece.value + piece.slope * (t - piece.start)
        np.testing.assert_array_equal(traj.values.view(np.int64), loop.view(np.int64))
        every = slice(None, None, 97)
        pointwise = np.array([sched.value_at(float(t)) for t in times[every]])
        np.testing.assert_array_equal(traj.values[every].view(np.int64), pointwise.view(np.int64))

    def test_strictly_increasing_starts_required(self):
        with pytest.raises(ValueError):
            ThetaSchedule((SchedulePiece(0.0, 1.0), SchedulePiece(0.0, 2.0)))

    def test_vector_schedule(self):
        sched = ThetaSchedule(
            (SchedulePiece(0.0, [1.0, 2.0]), SchedulePiece(1.0, [3.0, 4.0], slope=[1.0, 0.0]))
        )
        np.testing.assert_array_equal(sched.value_at(2.0), [4.0, 4.0])
