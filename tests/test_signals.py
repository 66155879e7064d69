import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dremkit.signals import TimeGrid, Trajectory


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
            return Trajectory(grid, f(grid.times())).values

        combined = sampled(lambda t: a * f1(t) + b * f2(t))
        np.testing.assert_array_equal(combined, a * sampled(f1) + b * sampled(f2))
