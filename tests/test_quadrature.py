import numpy as np
import pytest

from dremkit.quadrature import cumulative_energy, cumulative_simpson, lagged_difference, window_steps
from dremkit.signals import TimeGrid, Trajectory


def test_exact_on_quadratic_at_even_indices():
    # Simpson integrates quadratics exactly on even pair counts
    h = 0.1
    t = h * np.arange(11)
    f = 3.0 * t * t - 2.0 * t + 1.0
    exact = t**3 - t**2 + t
    out = cumulative_simpson(f, h)
    np.testing.assert_allclose(out[::2], exact[::2], atol=1e-14)


def test_sine_squared_against_antiderivative():
    # integral of sin(2 pi s)^2 from 0 to t is t/2 - sin(4 pi t)/(8 pi)
    h = 1e-3
    t = h * np.arange(2001)
    f = np.sin(2 * np.pi * t) ** 2
    exact = t / 2.0 - np.sin(4 * np.pi * t) / (8.0 * np.pi)
    out = cumulative_simpson(f, h)
    for tq in (0.25, 1.0, 2.0):
        k = int(round(tq / h))
        assert abs(out[k] - exact[k]) <= 1e-8


def test_single_sample_and_empty_tail():
    assert cumulative_simpson(np.array([3.0]), 0.1)[0] == 0.0
    out = cumulative_simpson(np.array([1.0, 1.0]), 0.5)
    np.testing.assert_allclose(out, [0.0, 0.5])


@pytest.mark.parametrize("kind", ["ct", "dt"])
@pytest.mark.parametrize(
    "values, match",
    [([1.0, np.nan, 1.0], "delta samples"), ([np.inf, 1.0, 1.0], "delta samples"),
     ([1.0, 1.0, 1e200], r"Delta\^2"), ([1e154] * 5, r"Delta\^2"), ([np.nan], "delta samples")],
    ids=["nan", "inf", "square-overflows", "integral-overflows", "one-nan-sample"],
)
def test_cumulative_energy_rejects_non_finite_energy(kind, values, match):
    # a non-finite Delta breaks the record contract; a finite one whose
    # square or integral overflows fails the overflow check
    delta = Trajectory(TimeGrid(0.0, 1.0, len(values)), np.array(values), kind)
    with pytest.raises(FloatingPointError, match=rf"^cumulative_energy: non-finite {match}"):
        cumulative_energy(delta)


def test_leading_axis_broadcast():
    h = 0.01
    f = np.ones((101, 2, 2))
    out = cumulative_simpson(f, h)
    np.testing.assert_allclose(out[-1], np.full((2, 2), 1.0), atol=1e-12)


def test_lagged_difference_zero_before_start():
    c = np.arange(10.0)
    out = lagged_difference(c, 3)
    np.testing.assert_array_equal(out[:3], c[:3])
    np.testing.assert_array_equal(out[3:], 3.0 * np.ones(7))


def test_lagged_difference_validation():
    with pytest.raises(ValueError):
        lagged_difference(np.arange(4.0), -1)
    np.testing.assert_array_equal(lagged_difference(np.arange(4.0), 0), np.zeros(4))


def test_window_steps():
    assert window_steps(0.2, 1e-3, "delay_window") == 200
    for window in (0.0, -0.2, 0.00015, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="delay_window must be a positive grid multiple"):
            window_steps(window, 1e-3, "delay_window")
