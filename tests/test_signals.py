import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dremkit import (
    FtcConfig,
    GradientConfig,
    KreSpec,
    LtvChannelSpec,
    MixedRegression,
    OperatorBank,
    PlantSpec,
    RegressorSpec,
    SlidingWindowSpec,
    build_regressor,
    closed_form_error_ct,
    closed_form_error_dt,
    clip_w,
    convergence_time,
    ct_gradient,
    cumulative_energy,
    drem_ct,
    drem_dt,
    dt_gradient,
    extend,
    ftc_estimate,
    interval_excitation_time,
    kre_as_drem_bank,
    kre_ct,
    mix,
    pe_check_ct,
    pe_check_dt,
    run_ftc,
    run_ftc_alert,
    simulate_plant,
    sliding_window_phi,
    update_w,
)
from dremkit.signals import TimeGrid, Trajectory, check_records, delayed, whole_steps


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 0)

    @pytest.mark.parametrize(
        "t0, step, count, message",
        [
            (0.0, 1e-3, 2.5, "^grid count must be a whole number of samples, got 2.5$"),
            (0.0, 1e-3, True, "^grid count must be a whole number of samples, got True$"),
            (0.0, 1e-3, "3", "^grid count must be a whole number of samples, got '3'$"),
            (0.0, float("inf"), 3, "^grid step must be finite and positive, got inf$"),
            (0.0, float("nan"), 3, "^grid step must be finite and positive, got nan$"),
            (float("nan"), 1e-3, 3, "^grid t0 must be finite, got nan$"),
            (float("inf"), 1e-3, 3, "^grid t0 must be finite, got inf$"),
            (0.0, 1e-3, 0.0, "^grid count must be >= 1, got 0.0$"),
        ],
    )
    def test_a_grid_no_record_can_live_on_is_refused(self, t0, step, count, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(t0, step, count)

    def test_whole_count_is_stored_as_int(self):
        grid = TimeGrid(0.0, 1e-3, 3.0)
        assert type(grid.count) is int and grid.count == 3
        assert grid == TimeGrid(0.0, 1e-3, 3)

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


class TestDelayed:
    def test_known_answers(self):
        values = np.arange(1.0, 5.0)
        np.testing.assert_array_equal(delayed(values, 0), values)
        np.testing.assert_array_equal(delayed(values, 1), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(delayed(values, 3, fill=-1.0), [-1.0, -1.0, -1.0, 1.0])
        np.testing.assert_array_equal(delayed(values, 9), np.zeros(4))

    def test_fill_broadcasts_over_the_components(self):
        values = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(delayed(values, 2, [7.0, 8.0]), [[7, 8], [7, 8], [0, 1]])

    def test_negative_lag_is_refused(self):
        with pytest.raises(ValueError, match="^lag must be nonnegative, got -1$"):
            delayed(np.zeros(3), -1)


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

    def test_shape_classes(self):
        grid = TimeGrid(0.0, 0.1, 3)
        assert Trajectory(grid, np.zeros(3)).is_scalar
        assert not Trajectory(grid, np.zeros((3, 1))).is_scalar
        for values, shape in [(np.zeros(3), "scalar"), (np.zeros((3, 2)), "vector"),
                              (np.zeros((3, 2, 2)), "matrix")]:
            assert check_records("test", record=(Trajectory(grid, values), shape)) == grid

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


# The record contract of every public stage that takes records: the call, the
# shape class of each record by label, and the kind the stage needs (None when
# any one kind will do). The shape and grid faults change the last record; the
# kind fault flips every record when the stage needs one kind, else the last;
# the non-finite fault puts a NaN or an infinity in each record in turn.
_GAINS = GradientConfig(1.0, np.zeros(2))
_FTC = FtcConfig(gamma=1.0, delay_window=0.2)
_BANK = OperatorBank((LtvChannelSpec(n=0, d=1.0),) * 2)
_Y_PHI = {"y": "scalar", "phi": "vector"}
_MIXED_TRUTH = {"calY": "vector", "Delta": "scalar", "theta_true": "vector"}
CONTRACT = {
    "extend": (lambda y, phi: extend(_BANK, y, phi), _Y_PHI, "ct"),
    "sliding_window_phi": (lambda y, phi: sliding_window_phi(y, phi, SlidingWindowSpec(2)), _Y_PHI, "dt"),
    "kre_ct": (lambda y, phi: kre_ct(KreSpec(1.0), y, phi), _Y_PHI, "ct"),
    "kre_as_drem_bank": (lambda phi: kre_as_drem_bank(phi, 1.0), {"phi": "vector"}, "ct"),
    "MixedRegression": (MixedRegression, {"calY": "vector", "Delta": "scalar"}, None),
    "mix": (mix, {"Y": "vector", "Phi": "matrix"}, None),
    "ct_gradient": (lambda y, phi: ct_gradient(y, phi, _GAINS), _Y_PHI, "ct"),
    "dt_gradient": (lambda y, phi: dt_gradient(y, phi, _GAINS), _Y_PHI, "dt"),
    "drem_ct": (lambda calY, Delta, theta_true: drem_ct(MixedRegression(calY, Delta), _GAINS, theta_true),
                _MIXED_TRUTH, "ct"),
    "drem_dt": (lambda calY, Delta, theta_true: drem_dt(MixedRegression(calY, Delta), _GAINS, theta_true),
                _MIXED_TRUTH, "dt"),
    "closed_form_error_ct": (lambda delta: closed_form_error_ct(delta, 1.0, 1.0), {"delta": "scalar"}, "ct"),
    "closed_form_error_dt": (lambda Delta: closed_form_error_dt(Delta, 1.0, 1.0), {"Delta": "scalar"}, "dt"),
    "update_w": (lambda delta: update_w(delta, 1.0), {"delta": "scalar"}, "ct"),
    "interval_excitation_time": (lambda delta: interval_excitation_time(delta, 1.0, 0.5),
                                 {"delta": "scalar"}, "ct"),
    "ftc_estimate": (lambda theta_hat, w_clipped: ftc_estimate(theta_hat, w_clipped, np.zeros(2)),
                     {"theta_hat": "scalar or vector", "w_clipped": "scalar"}, "ct"),
    "run_ftc": (lambda theta_hat, delta: run_ftc(theta_hat, delta, _FTC),
                {"theta_hat": "scalar or vector", "delta": "scalar"}, "ct"),
    "run_ftc_alert": (lambda theta_hat, delta: run_ftc_alert(theta_hat, delta, _FTC),
                      {"theta_hat": "scalar or vector", "delta": "scalar"}, "ct"),
    "cumulative_energy": (cumulative_energy, {"delta": "scalar"}, None),
    "pe_check_ct": (lambda phi: pe_check_ct(phi, 0.3), {"phi": "scalar or vector"}, "ct"),
    "pe_check_dt": (lambda phi: pe_check_dt(phi, 2), {"phi": "scalar or vector"}, "dt"),
    "build_regressor": (lambda u, y: build_regressor(RegressorSpec(5.0), PlantSpec(a=-1.0, b=1.0), u, y),
                        {"u": "scalar", "y": "scalar"}, "ct"),
    "clip_w": (lambda w: clip_w(w, 0.5), {"w": "scalar"}, None),
    "convergence_time": (convergence_time, {"theta_tilde": "scalar or vector"}, None),
}
WRONG_SHAPE = {"scalar": "vector", "vector": "matrix", "matrix": "vector", "scalar or vector": "matrix"}


def _record(shape, kind, count=8):
    """A record of the last shape class named in ``shape``, on a grid of
    ``count`` samples 0.1 s apart: 0.5 everywhere for a scalar or vector
    (a weight below 1), 0.5 I for a matrix (not singular)."""
    one = {"scalar": 0.5, "vector": np.full(2, 0.5), "matrix": 0.5 * np.eye(2)}[shape.split(" or ")[-1]]
    return Trajectory(TimeGrid(0.0, 0.1, count), np.broadcast_to(one, (count,) + np.shape(one)), kind)


def _records(name, fault=None):
    call, shapes, kind = CONTRACT[name]
    base, flipped = ("dt", "ct") if kind == "dt" else ("ct", "dt")
    records = {label: _record(shape, base) for label, shape in shapes.items()}
    last, shape = list(shapes.items())[-1]
    if fault == "shape":
        records[last] = _record(WRONG_SHAPE[shape], base)
    elif fault == "kind":
        for label in shapes if kind else [last]:
            records[label] = _record(shapes[label], flipped)
    elif fault == "grid":
        records[last] = _record(shape, base, count=9)
    return call, records


def _contract_faults():
    for name, (_, shapes, kind) in CONTRACT.items():
        yield name, "shape"
        if kind is not None or len(shapes) > 1:
            yield name, "kind"
        if len(shapes) > 1:
            yield name, "grid"


def _non_finite_faults():
    for name, (_, shapes, _) in CONTRACT.items():
        for label in shapes:
            for bad in ("nan", "inf", "-inf"):
                yield name, label, bad


class TestRecordContract:
    @pytest.mark.parametrize("name", CONTRACT)
    def test_records_that_keep_the_contract_pass(self, name):
        call, records = _records(name)
        call(**records)

    @pytest.mark.parametrize("name, fault", list(_contract_faults()))
    def test_a_record_that_breaks_it_is_refused_by_name(self, name, fault):
        call, records = _records(name, fault)
        with pytest.raises(ValueError, match=rf"^{name}: "):
            call(**records)

    @pytest.mark.parametrize("name, label, bad", list(_non_finite_faults()))
    def test_a_non_finite_sample_is_refused_by_name(self, name, label, bad):
        call, records = _records(name)
        values = records[label].values.copy()
        values[3] = float(bad)
        records[label] = records[label].with_values(values)
        # the drem rows build a MixedRegression from calY and Delta, which refuses them first
        stage = "MixedRegression" if name.startswith("drem") and label != "theta_true" else name
        with pytest.raises(FloatingPointError, match=rf"^{stage}: non-finite {label} samples$"):
            call(**records)


class TestSampleValues:
    @pytest.mark.parametrize(
        "run, coefficient",
        [
            (lambda grid, f: extend(OperatorBank((LtvChannelSpec(n=1, A=-1.0, b=f, c=1.0),)),
                                    Trajectory(grid, np.zeros(grid.count)),
                                    Trajectory(grid, np.zeros((grid.count, 1)))), "b of channel 0"),
            (lambda grid, f: simulate_plant(PlantSpec(a=-1.0, b=1.0, input=f), grid), "plant.input"),
        ],
    )
    @pytest.mark.parametrize(
        "function", [lambda t: 1.0, lambda t: np.ones((len(t), 2)), lambda t: np.ones(2 * len(t))]
    )
    def test_a_callable_that_breaks_the_array_contract_is_named(self, run, coefficient, function):
        with pytest.raises(ValueError, match=rf"^{coefficient} must return one value per sample argument"):
            run(TimeGrid.from_horizon(0.05, 1e-3), function)


class TestWholeSteps:
    @pytest.mark.parametrize("value, step, steps", [(1.0, 1e-3, 1000), (0.99, 0.03, 33), (0.0, 0.1, 0),
                                                    (8 * np.pi, 2 * np.pi / 6000, 24000)])
    def test_whole(self, value, step, steps):
        assert whole_steps(value, step) == steps

    @pytest.mark.parametrize("value, step", [(1.0, 0.003), (0.2005, 1e-3), (1e10, 1e-300), (np.nan, 0.1)])
    def test_not_whole(self, value, step):
        assert whole_steps(value, step) is None

    def test_from_horizon_refuses_an_off_grid_horizon(self):
        with pytest.raises(ValueError, match="horizon 1.0 is not a whole number of steps of 0.003 s"):
            TimeGrid.from_horizon(1.0, 0.003)
