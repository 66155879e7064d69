import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dremkit.signals import (
    SchedulePiece,
    ThetaSchedule,
    TimeGrid,
    Trajectory,
    sample_schedule,
    values_at,
)


def value(sched, t):
    """The profile at time ``t``: ``sample_schedule`` on a one-sample grid."""
    return sample_schedule(sched, TimeGrid(t, 1.0, 1)).values[0]


def piece_value(sched, t):
    """The profile at time ``t`` by a plain search of the pieces, the
    earlier per-sample evaluation."""
    piece = sched.pieces[0]
    for p in sched.pieces:
        if p.start <= t:
            piece = p
    return piece.value if piece.slope is None else piece.value + piece.slope * (t - piece.start)


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

        def sampled(f):
            return values_at(f, grid.times())

        combined = sampled(lambda t: a * f1(t) + b * f2(t))
        np.testing.assert_array_equal(combined, a * sampled(f1) + b * sampled(f2))


class TestSchedule:
    def test_profile_values(self):
        sched = tracking_profile()
        assert value(sched, 5.0)[0] == 10.0
        assert value(sched, 25.0)[0] == pytest.approx(15.0 - 0.5 * 5.0)
        assert value(sched, 35.0)[0] == 10.0

    def test_right_continuous_at_jumps(self):
        sched = tracking_profile()
        assert value(sched, 10.0)[0] == 15.0
        assert value(sched, 30.0)[0] == 10.0

    @given(t=st.floats(0.0, 40.0, allow_nan=False))
    def test_sampling_matches_pointwise(self, t):
        sched = tracking_profile()
        np.testing.assert_array_equal(value(sched, t), piece_value(sched, t))

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
        # the earlier per-sample loop and a plain search of the pieces bit for bit
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
        pointwise = np.array([piece_value(sched, float(t)) for t in times[every]])
        np.testing.assert_array_equal(traj.values[every].view(np.int64), pointwise.view(np.int64))

    def test_strictly_increasing_starts_required(self):
        with pytest.raises(ValueError):
            ThetaSchedule((SchedulePiece(0.0, 1.0), SchedulePiece(0.0, 2.0)))

    def test_vector_schedule(self):
        sched = ThetaSchedule(
            (SchedulePiece(0.0, [1.0, 2.0]), SchedulePiece(1.0, [3.0, 4.0], slope=[1.0, 0.0]))
        )
        np.testing.assert_array_equal(value(sched, 2.0), [4.0, 4.0])
