import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremkit.cli import (
    _CSV_BLOCK_ROWS,
    FIGURE_IDS,
    FLOAT_FMT,
    ConfigError,
    OutputWriter,
    _parse,
    main,
    parse_bank,
    read_csv,
    resolve_out_dir,
    write_csv,
    write_result,
)
from dremkit.estimators import GradientConfig, drem_ct
from dremkit.ftc import ClipContractError, FtcConfig, run_ftc
from dremkit.mixing import MixedRegression
from dremkit.scenarios import (
    PlantSpec,
    RegressorSpec,
    ScenarioResult,
    Sinusoid,
    convergence_time,
    run_ftc_scenario,
    run_identification_scenario,
)
from dremkit.signals import TimeGrid, Trajectory


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


IDENTIFY_CFG = {
    "mode": "identify",
    "input_kind": "constant",
    "grid": {"t0": 0.0, "step": 1e-3, "horizon": 0.5},
}

FTC_CFG = {
    "mode": "ftc",
    "delta_kind": "pe",
    "grid": {"t0": 0.0, "step": 1e-3, "horizon": 1.0},
    "ftc": {"gamma": 2.0, "clip_threshold": 0.98, "delay_window": 0.2},
}

CUSTOM_CFG = {
    "mode": "custom",
    "grid": {"step": 1e-3, "horizon": 0.2},
    "plant": {
        "a": -0.4,
        "b": 0.4,
        "input": {"kind": "sinusoid", "amplitude": 15, "frequency": 2.5, "phase": 1.0},
    },
    "regressor": {"pole": 5.0},
    "bank": {
        "channels": [
            {"n": 1, "A": -1.0, "b": 1.0, "c": 1.0},
            {"n": 1, "A": -2.0, "b": 2.0, "c": 1.0},
        ]
    },
    "estimator": {"gamma": 1.0, "theta_hat0": [0.0, 0.0]},
}


def unread(field):
    """The error text that rejects ``field`` as read by no study."""
    return f"{field}: unknown field; accepted: "


def edited(base, **sections):
    """A deep copy of ``base`` with the given top-level fields replaced."""
    return {**json.loads(json.dumps(base)), **sections}


@pytest.fixture
def no_study_runs(monkeypatch):
    """Replace every runner ``main`` can call with one that counts its calls
    and fails, so a config it is given provably fails while parsing, before
    any array is allocated."""
    import dremkit.cli as cli

    calls = []

    def runner(**kwargs):
        calls.append(kwargs)
        raise AssertionError("a config that parsing should reject reached its runner")

    for name in ("run_identification_scenario", "run_ftc_scenario", "_pe_report", "_counterexample_report"):
        monkeypatch.setattr(cli, name, runner)
    yield
    assert not calls


# Reference copies of the writers that write_csv and write_result replaced:
# csv.writer rows, one writer per study and a separate summary.


def reference_csv(path, columns, arrays):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for k in range(len(arrays[0])):
            writer.writerow([FLOAT_FMT % arr[k] for arr in arrays])


class ReferenceWriter:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.names = []
        out_dir.mkdir(parents=True)

    def csv(self, name, columns, arrays):
        reference_csv(self.out_dir / name, columns, arrays)
        self.names.append(name)

    def text(self, name, content):
        (self.out_dir / name).write_text(content)
        self.names.append(name)


def reference_estimator_csvs(writer, result):
    times = result.grid.times()
    for name, run in result.runs.items():
        aux_name = "phi_norm_sq" if name == "gradient" else "delta"
        hat = np.atleast_2d(run.theta_hat.values.T).T
        tilde = np.atleast_2d(run.theta_tilde.values.T).T
        m = hat.shape[1]
        columns = (
            ["t"]
            + [f"theta_hat_{i+1}" for i in range(m)]
            + [f"theta_tilde_{i+1}" for i in range(m)]
            + [aux_name]
        )
        arrays = (
            [times]
            + [hat[:, i] for i in range(m)]
            + [tilde[:, i] for i in range(m)]
            + [np.asarray(run.diagnostics.values)]
        )
        writer.csv(f"{name}.csv", columns, arrays)


def reference_ftc_csvs(writer, result, t_range=None):
    times = result.grid.times()
    mask = np.ones(len(times), dtype=bool)
    if t_range is not None:
        mask = (times >= t_range[0]) & (times <= t_range[1])
    for name, run in result.runs.items():
        hat = run.theta_hat.values[:, 0]
        tilde = run.theta_tilde.values[:, 0]
        columns = ["t", "theta_hat_1", "theta_tilde_1", "delta"]
        arrays = [times[mask], hat[mask], tilde[mask], result.runs["gradient"].diagnostics.values[mask]]
        ftc = result.ftc_runs.get(name)
        if ftc is not None:
            columns += ["w", "w_clipped"]
            arrays += [ftc.w.values[mask], ftc.w_clipped.values[mask]]
            if ftc.w_delayed is not None:
                columns.append("w_delayed")
                arrays.append(ftc.w_delayed.values[mask])
        writer.csv(f"{name}.csv", columns, arrays)


def reference_summary_text(result):
    lines = ["run, convergence_time_s, final_abs_errors"]
    for name, run in result.runs.items():
        tc = convergence_time(run.theta_tilde)
        errs = result.final_errors.get(name)
        err_txt = " ".join(FLOAT_FMT % e for e in np.atleast_1d(errs))
        lines.append(f"{name}, {'none' if tc is None else FLOAT_FMT % tc}, {err_txt}")
    return "\n".join(lines) + "\n"


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        cols = ["t", "x"]
        t = rng.normal(size=50)
        x = rng.normal(size=50) * 1e-17 + rng.normal(size=50)
        path = tmp_path / "out.csv"
        write_csv(path, cols, [t, x])
        header, data = read_csv(path)
        assert header == cols
        np.testing.assert_array_equal(data[:, 0], t)
        np.testing.assert_array_equal(data[:, 1], x)

    def test_awkward_values(self, tmp_path):
        vals = np.array([0.1, 1e-300, 1e300, -0.0, np.pi, 2.0 / 3.0])
        path = tmp_path / "vals.csv"
        write_csv(path, ["v"], [vals])
        _, data = read_csv(path)
        np.testing.assert_array_equal(data[:, 0], vals)

    def test_bytes_match_the_csv_module_on_special_values(self, tmp_path, rng):
        tiny = np.finfo(float).tiny
        special = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324,
             tiny / 3.0, tiny * (1.0 - 2.0**-52), 1.7976931348623157e308, 0.1, 123456789.0]
        )
        arrays = [special, special[::-1], rng.normal(size=special.size) * 1e-310]
        columns = ["t", "x", "y"]
        write_csv(tmp_path / "new.csv", columns, arrays)
        reference_csv(tmp_path / "ref.csv", columns, arrays)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        header, data = read_csv(tmp_path / "new.csv")
        assert header == columns
        for k, arr in enumerate(arrays):
            np.testing.assert_array_equal(data[:, k], arr)
            assert np.array_equal(np.signbit(data[:, k]), np.signbit(arr))

    def test_zero_rows_round_trip_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_csv(path, ["t", "x"], [np.empty(0), np.empty(0)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, data = read_csv(path)
        assert header == ["t", "x"]
        assert data.shape == (0, 2)

    def test_run_without_truth_is_rejected_before_any_file(self, tmp_path):
        grid = TimeGrid.from_horizon(0.1, 1e-3)
        delta = Trajectory(grid, np.ones(grid.count), "ct")
        mixed = MixedRegression(calY=Trajectory(grid, np.ones((grid.count, 1)), "ct"), Delta=delta)
        run = drem_ct(mixed, GradientConfig(1.0, np.zeros(1)))
        assert run.theta_tilde is None
        result = ScenarioResult(grid=grid, runs={"drem_blind": run})
        writer = OutputWriter(tmp_path / "o")
        with pytest.raises(ValueError, match="drem_blind"):
            write_result(writer, result)
        assert not list((tmp_path / "o").iterdir())

    def test_each_run_names_its_excitation_column(self, tmp_path):
        # the column names come from the runs, not from the run names or
        # from whether the result holds recovery runs
        result = run_identification_scenario("rich", horizon=0.2, step=1e-3)
        mixed = result.runs["drem_d0"]
        recovery = run_ftc(mixed.theta_hat, mixed.diagnostics, FtcConfig(gamma=1.0))
        runs = {**result.runs, "drem_d0": dataclasses.replace(mixed, recovery=recovery)}
        result = dataclasses.replace(result, runs=runs)
        assert result.ftc_runs == {"drem_d0": recovery}
        write_result(OutputWriter(tmp_path / "o"), result)
        header, data = read_csv(tmp_path / "o" / "gradient.csv")
        assert header[-1] == "phi_norm_sq"
        np.testing.assert_array_equal(data[:, -1], result.runs["gradient"].diagnostics.values)
        header, _ = read_csv(tmp_path / "o" / "drem_d0.csv")
        assert header[-3:] == ["delta", "w", "w_clipped"]


SPECIAL_DOUBLES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, np.finfo(float).tiny / 3.0,
    np.finfo(float).max, -np.finfo(float).max,
]


class TestBlockWriter:
    """write_csv's block formatting against the row-by-row csv module writer."""

    @settings(max_examples=40, deadline=None)
    @given(
        ncols=st.integers(1, 8),
        nrows=st.sampled_from(
            [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3]
        ),
        pool=st.lists(st.floats(), max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_the_row_writer(self, tmp_path_factory, ncols, nrows, pool, seed):
        # each cell is one of the drawn doubles or a special value
        values = np.array(pool + SPECIAL_DOUBLES)
        arrays = list(values[np.random.default_rng(seed).integers(len(values), size=(ncols, nrows))])
        columns = [f"c{k}" for k in range(ncols)]
        out = tmp_path_factory.mktemp("block")
        assert write_csv(out / "new.csv", columns, arrays) == nrows
        reference_csv(out / "ref.csv", columns, arrays)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


class TestSimulate:
    def test_identify_outputs(self, tmp_path):
        cfg = write_config(tmp_path, IDENTIFY_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"gradient.csv", "drem_d0.csv", "drem_dN.csv", "summary.txt", "manifest.json"} <= names

    def test_round_trip_of_every_csv(self, tmp_path):
        cfg = write_config(tmp_path, FTC_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        from dremkit.scenarios import run_ftc_scenario

        result = run_ftc_scenario("pe", horizon=1.0, step=1e-3)
        header, data = read_csv(out / "gradient.csv")
        np.testing.assert_array_equal(data[:, 0], result.grid.times())
        np.testing.assert_array_equal(
            data[:, 1], result.runs["gradient"].theta_hat.values[:, 0]
        )
        np.testing.assert_array_equal(
            data[:, 2], result.runs["gradient"].theta_tilde.values[:, 0]
        )

    def test_manifest_lists_every_file(self, tmp_path):
        cfg = write_config(tmp_path, IDENTIFY_CFG)
        out = tmp_path / "run"
        main(["simulate", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry["name"] for entry in manifest["files"]}
        on_disk = {p.name for p in out.iterdir()}
        assert listed == on_disk
        assert manifest["tool_version"]
        assert manifest["config_sha256"]

    def test_single_row_outputs_on_degenerate_grid(self, tmp_path):
        cfg = dict(IDENTIFY_CFG)
        cfg["grid"] = {"t0": 0.0, "step": 1e-3, "horizon": 0.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        _, data = read_csv(out / "gradient.csv")
        assert data.shape[0] == 1

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "line" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_field_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "identify"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "grid" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_mode_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "fly", "grid": {"step": 1e-3, "horizon": 1.0}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_dir_exits_1(self, tmp_path, monkeypatch, capsys):
        import dremkit.cli as cli

        def never(**kwargs):
            raise AssertionError("the study ran before --out was checked")

        monkeypatch.setattr(cli, "run_identification_scenario", never)
        cfg = write_config(tmp_path, IDENTIFY_CFG)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        for out in (blocker, blocker / "sub" / "dir"):
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
            assert "not a writable directory" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "config.json"]

    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch):
        import dremkit.cli as cli

        def boom(**kwargs):
            raise ClipContractError("weight reached 1")

        monkeypatch.setattr(cli, "run_ftc_scenario", boom)
        cfg = write_config(tmp_path, FTC_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_diverging_integration_exits_2_without_csvs(self, tmp_path, capsys):
        # gain 1e6 at h = 1e-3 is far outside RK4's stability region
        cfg = json.loads(json.dumps(CUSTOM_CFG))
        cfg["grid"]["horizon"] = 2.0
        cfg["estimator"]["gamma"] = 1e6
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", [1e60, 1e200])
    def test_overflowing_input_exits_2_without_warning(self, tmp_path, capsys, amplitude):
        # finite inputs whose products overflow; a RuntimeWarning would fail
        # the suite before the exit code is read
        cfg = json.loads(json.dumps(CUSTOM_CFG))
        cfg["plant"]["input"]["amplitude"] = amplitude
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t0", [5.0, "soon"])
    def test_nonzero_grid_t0_exits_1(self, tmp_path, capsys, t0):
        cfg = dict(IDENTIFY_CFG, grid={"t0": t0, "step": 1e-3, "horizon": 0.1})
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
        assert "grid.t0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_input_kind_with_plant_exits_1(self, tmp_path, capsys):
        cfg = dict(CUSTOM_CFG, mode="identify", input_kind="constant")
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert "input_kind" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("plant", "plant.a", {"a": "fast"}),
            ("plant", "plant.y0", {"y0": [1.0]}),
            ("plant", "plant.input.amplitude", {"input": {"kind": "sinusoid", "amplitude": "big", "frequency": 1.0}}),
            ("plant", "plant.input.level", {"input": {"kind": "constant", "level": None}}),
            ("estimator", "estimator.gamma", {"gamma": "fast"}),
            ("estimator", "estimator.theta_hat0", {"theta_hat0": ["zero", 0.0]}),
            ("regressor", "regressor.pole", {"pole": "five"}),
            # a numeric string is not a JSON number either
            ("plant", "plant.input.amplitude", {"input": {"kind": "sinusoid", "amplitude": "3", "frequency": 1.0}}),
            ("estimator", "estimator.gamma", {"gamma": "1.0"}),
            ("estimator", "estimator.theta_hat0", {"theta_hat0": ["0", "0"]}),
            ("regressor", "regressor.pole", {"pole": "5"}),
            ("grid", "grid.horizon", {"horizon": "0.2"}),
            ("bank", "'bank.channels[0]': config field 'n'",
             {"channels": [{"n": "1", "A": -1.0, "b": 1.0, "c": 1.0}, CUSTOM_CFG["bank"]["channels"][1]]}),
            ("bank", "'bank.channels[0]': config field 'c'",
             {"channels": [{"n": 1, "A": -1.0, "b": 1.0, "c": ["1.0"]}, CUSTOM_CFG["bank"]["channels"][1]]}),
        ],
    )
    def test_non_numeric_custom_field_exits_1(self, tmp_path, capsys, section, field, value):
        cfg = json.loads(json.dumps(CUSTOM_CFG))
        cfg[section].update(value)
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_channel_signal_exits_1(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CUSTOM_CFG))
        cfg["bank"]["channels"][0]["b"] = {"kind": "sinusoid", "amplitude": 1.0, "frequency": "slow"}
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
        assert "b.frequency" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field", ["gamma", "clip_threshold", "delay_window", "theta_hat0"]
    )
    def test_non_numeric_ftc_field_exits_1(self, tmp_path, capsys, field):
        # "0.5" would be a valid value as a JSON number
        for value in ("fast", "0.5"):
            cfg = json.loads(json.dumps(FTC_CFG))
            cfg["ftc"][field] = value
            out = tmp_path / "o"
            assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
            assert f"ftc.{field}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "base, section, value, field",
        [
            ("custom", "plant", 5, "'plant'"),
            ("custom", "grid", 5, "'grid'"),
            ("custom", "estimator", [1.0], "'estimator'"),
            ("custom", "estimator", {"theta_hat0": [0, 0, 0]}, "theta_hat0"),
            ("custom", "estimator", {"gamma": -1}, "'estimator.gamma'"),
            ("custom", "bank", {"channels": 5}, "'bank.channels'"),
            ("custom", "bank", {"channels": [5, 6]}, "'bank.channels[0]'"),
            ("custom", "bank", {"channels": []}, "at least one channel"),
            ("ftc", "ftc", {"gamma": -1}, "'ftc.gamma'"),
            ("ftc", "ftc", {"delay_window": 0.015}, "delay_window"),
            ("ftc", "ftc", {"clip_threshold": 1.5}, "clip_threshold"),
            ("custom", "out_dir", 5, "'out_dir'"),
            ("ftc", "out_dir", ["x"], "'out_dir'"),
            ("ftc", "ftc", {"delay_window": float("inf")}, "delay_window"),
            ("custom", "bank", {"channels": [{"n": 0, "mu": 1.0, "delay": float("inf")}]}, "'bank.channels[0]'"),
            ("custom", "bank", {"channels": [{"n": 0, "mu": 1.0, "delay": float("nan")}]}, "'bank.channels[0]'"),
            ("custom", "plant", {"a": -0.4, "b": 0.4, "input": True}, "'plant.input'"),
            ("custom", "grid", {"step": True, "horizon": 0.2}, "'grid.step'"),
            ("custom", "plant", {"a": -0.4, "b": 0.4, "input": np.nan}, "'plant.input'"),
            ("custom", "estimator", {"theta_hat0": [np.nan, 0]}, "'estimator.theta_hat0'"),
            ("custom", "bank", {"channels": [{"n": 0, "d": np.nan}]}, "'bank.channels[0]': config field 'd'"),
            ("custom", "bank", {"channels": [{"n": 1, "A": -1.0, "b": 1.0, "c": [np.nan]}]},
             "'bank.channels[0]': config field 'c'"),
            # a constant coefficient of the wrong size for the channel's n
            ("custom", "bank", {"channels": [{"n": 1, "A": -1.0, "b": [1.0, 2.0], "c": 1.0}]},
             "'bank.channels[0]': constant b has size 2"),
            ("custom", "bank", {"channels": [{"n": 2, "A": [[-1.0, 0.0], [0.0, -2.0]], "b": [1.0, 1.0], "c": 1.0}]},
             "'bank.channels[0]': constant c has size 1"),
            ("custom", "bank", {"channels": [{"n": 0, "d": [1.0, 2.0]}]}, "'bank.channels[0]': constant d has size 2"),
            ("custom", "bank", {"channels": [{"n": 0, "mu": [0.5, 0.5], "delay": 0.01}]},
             "'bank.channels[0]': constant delay_gain has size 2"),
        ],
    )
    def test_rejected_section_or_value_exits_1(self, tmp_path, capsys, base, section, value, field):
        # a section that is not an object, or a value the library rejects
        cfg = json.loads(json.dumps(CUSTOM_CFG if base == "custom" else FTC_CFG))
        cfg[section] = value
        if base == "ftc":
            cfg["grid"]["step"] = 0.01  # a delay_window of 0.015 is off this grid
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, field",
        [
            # a field no study reads, one per section
            ("simulate", edited(IDENTIFY_CFG, ftc={"gamma": 5.0}), unread("'ftc'")),
            ("simulate", edited(CUSTOM_CFG, estimater={"gamma": 5.0}), unread("'estimater'")),
            ("simulate", edited(FTC_CFG, delta_knd="nonpe"), unread("'delta_knd'")),
            ("simulate", edited(IDENTIFY_CFG, grid={"step": 1e-3, "horizon": 0.1, "horizn": 5.0}),
             unread("'grid.horizn'")),
            ("simulate", edited(CUSTOM_CFG, plant=dict(CUSTOM_CFG["plant"], y_0=1.0)), unread("'plant.y_0'")),
            ("simulate", edited(CUSTOM_CFG, plant={"a": -0.4, "b": 0.4,
                                                   "input": {"kind": "constant", "level": 15, "lvl": 1}}),
             unread("'plant.input.lvl'")),
            ("simulate", edited(CUSTOM_CFG, plant=dict(CUSTOM_CFG["plant"], input=dict(
                CUSTOM_CFG["plant"]["input"], phse=0.5))), unread("'plant.input.phse'")),
            ("simulate", edited(CUSTOM_CFG, regressor={"pole": 5.0, "poles": 2.0}), unread("'regressor.poles'")),
            ("simulate", edited(CUSTOM_CFG, bank=dict(CUSTOM_CFG["bank"], chanels=[])), unread("'bank.chanels'")),
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [{"n": 0, "d": 1.0, "dd": 1.0}]}),
             unread("'bank.channels[0]': config field 'dd'")),
            ("simulate", edited(CUSTOM_CFG, estimator={"gamma": 1.0, "theta0": [1.0, 1.0]}),
             unread("'estimator.theta0'")),
            ("simulate", edited(FTC_CFG, ftc={"gama": 5.0, "clip_treshold": 0.5}), unread("'ftc.gama'")),
            ("check-pe", {"signal": {"kind": "zero", "horizon": 1.0, "dims": 2}, "window": 0.5},
             unread("'signal.dims'")),
            ("check-pe", {"signal": {"kind": "sinusoid-pair", "dim": 2}, "window": 2 * np.pi},
             unread("'signal.dim'")),
            ("check-pe", {"signal": {"kind": "counterexample", "horizon": 100, "step": 1.0}},
             unread("'signal.step'")),
            ("check-pe", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5, "treshold": 0.1},
             unread("'treshold'")),
            ("check-pe", {"signal": {"kind": "counterexample", "horizon": 100}, "window": 3}, unread("'window'")),
            ("check-pe", {"mode": "ftc", "signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5},
             "'mode': check-pe runs only mode 'pe-check'"),
            ("simulate", {"mode": "pe-check", "signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5,
                          "grid": {"step": 1e-3, "horizon": 1.0}}, unread("'grid'")),
            # an empty section is given, so its required fields are missing
            ("simulate", edited(CUSTOM_CFG, regressor={}), "'regressor.pole': missing"),
            ("simulate", edited(CUSTOM_CFG, bank={}), "'bank.channels': missing"),
            # labels name the dotted path
            ("simulate", edited(CUSTOM_CFG, plant={"a": -0.4, "b": 0.4, "input": {"kind": "square"}}),
             "'plant.input.kind'"),
            ("simulate", edited(CUSTOM_CFG, plant={"b": 0.4, "input": 1.0}), "'plant.a': missing"),
            ("simulate", edited(CUSTOM_CFG, plant={"a": -0.4, "b": 0.4, "input": {"kind": "constant"}}),
             "'plant.input.level': missing"),
            # a grid whose horizon / step overflows has no sample count
            ("simulate", edited(CUSTOM_CFG, grid={"step": 1e-300, "horizon": 1e10}), "'grid.step'"),
            ("simulate", edited(FTC_CFG, grid={"step": 1e-300, "horizon": 1e10}), "'grid.step'"),
            # a grid of more than MAX_SAMPLES samples is refused before it is allocated
            ("simulate", edited(FTC_CFG, grid={"step": 1.0, "horizon": 1e300}), "'grid.horizon'"),
            ("simulate", edited(IDENTIFY_CFG, grid={"step": 1e-3, "horizon": 1e7}), "'grid.horizon'"),
            ("simulate", edited(CUSTOM_CFG, grid={"step": 1.0, "horizon": 1e8}), "'grid.horizon'"),
            ("check-pe", {"signal": {"kind": "zero", "step": 1.0, "horizon": 1e300}, "window": 2.0},
             "'signal.horizon'"),
            ("check-pe", {"signal": {"kind": "sinusoid-pair", "horizon": 1e10}, "window": 2 * np.pi},
             "'signal.horizon'"),
            ("check-pe", {"signal": {"kind": "counterexample", "horizon": 1e300}}, "'signal.horizon'"),
            ("check-pe", {"signal": {"kind": "counterexample", "horizon": 10**8 + 1}}, "'signal.horizon'"),
            # the retired theta_hat(0)-snapshot switch is read by no study
            ("simulate", edited(FTC_CFG, ftc=dict(FTC_CFG["ftc"], use_delayed_snapshot=True)),
             unread("'ftc.use_delayed_snapshot'")),
            # custom takes its input from "plant", so it reads no input_kind
            ("simulate", edited(CUSTOM_CFG, input_kind="rich"),
             "'input_kind': unknown field; accepted: mode, grid, out_dir, plant, regressor, bank,"
             " estimator"),
            # a JSON integer too large for a double
            ("simulate", edited(FTC_CFG, ftc={"gamma": 10**400}), "'ftc.gamma': expected a number"),
            ("simulate", edited(CUSTOM_CFG, estimator={"theta_hat0": [10**400, 0.0]}),
             "'estimator.theta_hat0': expected numbers"),
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [{"n": 1, "A": [10**400], "b": 1.0, "c": 1.0},
                                                               CUSTOM_CFG["bank"]["channels"][1]]}),
             "'bank.channels[0]': config field 'A': expected numbers"),
            ("simulate", edited(CUSTOM_CFG, plant={"a": -0.4, "b": 0.4, "input": 10**400}),
             "'plant.input': expected a number"),
            ("check-pe", {"signal": {"kind": "counterexample", "horizon": 10**400}},
             "'signal.horizon': expected a number"),
            # a recovery window off the grid, given or the default one
            ("simulate", edited(FTC_CFG, ftc=dict(FTC_CFG["ftc"], delay_window=0.2005)), "'ftc.delay_window'"),
            ("simulate", edited(FTC_CFG, grid={"step": 0.03, "horizon": 0.99}, ftc={}), "'ftc.delay_window'"),
            # the identification study fits 2 parameters from CT signals
            ("simulate", edited(CUSTOM_CFG, bank={"channels": CUSTOM_CFG["bank"]["channels"] * 2}),
             "'bank.channels': expected 2 channels, one per parameter, got 4"),
            ("simulate", edited(CUSTOM_CFG, bank={"channels": CUSTOM_CFG["bank"]["channels"][:1]}),
             "'bank.channels': expected 2 channels, one per parameter, got 1"),
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [CUSTOM_CFG["bank"]["channels"][0],
                                                               {"n": 1, "A": 0.5, "b": 1.0, "c": 1.0, "kind": "dt"}]}),
             "'bank.channels[1]': kind 'dt'"),
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [{"n": 0, "d": 1.0, "kind": "dt"}] * 2}),
             "'bank.channels[0]': kind 'dt'"),
            ("simulate", edited(CUSTOM_CFG, estimator={"theta_hat0": [0.0, 0.0, 0.0]}),
             "'estimator.theta_hat0': expected 2 entries"),
            ("simulate", edited(IDENTIFY_CFG, estimator={"theta_hat0": [1.0]}),
             "'estimator.theta_hat0': expected 2 entries"),
            # a channel delay off the grid
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [
                {"n": 1, "A": -1.0, "b": 1.0, "c": 1.0, "mu": 0.5, "delay": 0.0505},
                CUSTOM_CFG["bank"]["channels"][1]]}),
             "'bank.channels[0].delay': delay 0.0505 is not a whole number of grid steps"),
            # a horizon off the grid; its runs would end a step short of it
            ("simulate", {"mode": "ftc", "delta_kind": "pe", "grid": {"step": 0.003, "horizon": 1.0},
                          "ftc": {"delay_window": 0.3}}, "'grid.horizon'"),
            ("check-pe", {"signal": {"kind": "zero", "step": 0.03, "horizon": 1.0}, "window": 0.3},
             "'signal.horizon'"),
            ("check-pe", {"signal": {"kind": "sinusoid-pair", "horizon": 10.0}, "window": 2 * np.pi},
             "'signal.horizon'"),
            # a static channel has no state, so its A, b and c would be read by nothing
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [CUSTOM_CFG["bank"]["channels"][0],
                                                               {"n": 0, "A": -2.0, "b": 2.0, "c": 1.0}]}),
             "'bank.channels[1]': a static channel (n = 0) has no state, so no A"),
            # the study adds its own feedthrough to the bank, constant or time-varying
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [dict(CUSTOM_CFG["bank"]["channels"][0], d=0.5),
                                                               CUSTOM_CFG["bank"]["channels"][1]]}),
             "'bank.channels[0].d': must be 0"),
            ("simulate", edited(CUSTOM_CFG, bank={"channels": [
                CUSTOM_CFG["bank"]["channels"][0],
                dict(CUSTOM_CFG["bank"]["channels"][1], d={"kind": "sinusoid", "amplitude": 0.1, "frequency": 3.0})]}),
             "'bank.channels[1].d': must be 0"),
        ],
    )
    def test_unread_or_missing_field_exits_1(self, tmp_path, capsys, no_study_runs, command, cfg, field):
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and field in captured.err
        assert not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_non_boolean_use_delayed_snapshot_exits_1(self, tmp_path, capsys, flag):
        # the switch is gone, so any value of it, boolean or not, is an unread field
        cfg = json.loads(json.dumps(FTC_CFG))
        cfg["ftc"]["use_delayed_snapshot"] = flag
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert unread("'ftc.use_delayed_snapshot'") in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DREMKIT_OUT_DIR", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, IDENTIFY_CFG)
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "gradient.csv").exists()

    def test_no_out_dir_anywhere_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DREMKIT_OUT_DIR", raising=False)
        cfg = write_config(tmp_path, IDENTIFY_CFG)
        assert main(["simulate", "--config", cfg]) == 1

    def test_custom_mode_requires_sections(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"mode": "custom", "grid": {"step": 1e-3, "horizon": 0.1}},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_custom_mode_full_config(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_CFG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "drem_dN.csv").exists()

    def test_named_time_varying_channel_entry(self, tmp_path):
        # a channel gain given as a named signal becomes a time callable
        cfg = write_config(
            tmp_path,
            {
                "mode": "custom",
                "grid": {"step": 1e-3, "horizon": 0.2},
                "plant": {"a": -0.4, "b": 0.4, "input": {"kind": "constant", "level": 15}},
                "regressor": {"pole": 5.0},
                "bank": {
                    "channels": [
                        {"n": 1, "A": -1.0, "b": 1.0, "c": 1.0,
                         "mu": {"kind": "sinusoid", "amplitude": 0.1, "frequency": 3.0},
                         "delay": 0.05},
                        {"n": 1, "A": -2.0, "b": 2.0, "c": 1.0},
                    ]
                },
                "estimator": {"gamma": 1.0, "theta_hat0": [0.0, 0.0]},
            },
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "drem_d0.csv").exists()

    def test_unstable_bank_in_config_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "mode": "custom",
                "grid": {"step": 1e-3, "horizon": 0.1},
                "plant": {"a": -0.4, "b": 0.4, "input": {"kind": "constant", "level": 15}},
                "regressor": {"pole": 5.0},
                "bank": {"channels": [{"n": 1, "A": 1.0, "b": 1.0, "c": 1.0}, {"n": 1, "A": -2.0, "b": 2.0, "c": 1.0}]},
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()


class TestReproduce:
    def test_unknown_figure_lists_valid_ids(self, tmp_path, capsys):
        assert main(["reproduce", "fig9", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        for fid in FIGURE_IDS:
            assert fid in err
        assert not (tmp_path / "o").exists()

    def test_identification_preset(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["reproduce", "fig2", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"gradient.csv", "drem_d0.csv", "drem_dN.csv", "summary.txt", "manifest.json"} <= names
        header, data = read_csv(out / "drem_dN.csv")
        assert header[:3] == ["t", "theta_hat_1", "theta_hat_2"]
        assert data[-1, 0] == pytest.approx(20.0, abs=1e-9)

    def test_ftc_pe_early_slice(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["reproduce", "ftc-pe-early", "--out", str(out)]) == 0
        _, data = read_csv(out / "ftc.csv")
        assert data[:, 0].min() >= 0.0
        assert data[:, 0].max() <= 3.0 + 1e-9
        assert (out / "summary.txt").exists()

    def test_ftc_pe_late_slice(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["reproduce", "ftc-pe-late", "--out", str(out)]) == 0
        _, data = read_csv(out / "ftc_d.csv")
        assert data[:, 0].min() >= 9.0 - 1e-9


    @pytest.mark.parametrize(
        "source, horizon",
        [(fid, 20.0 if fid.startswith("fig") else 40.0) for fid in FIGURE_IDS]
        + [("simulate-custom", 2.0), ("simulate-ftc", 12.0)],
    )
    def test_csv_bytes_match_the_direct_study_run(self, tmp_path, source, horizon):
        # every emitted file except the manifest equals the reference writers'
        # output for a direct run of the study on the 1e-3 grid
        out = tmp_path / "out"
        ref = ReferenceWriter(tmp_path / "ref")
        if source in FIGURE_IDS:
            assert main(["reproduce", source, "--out", str(out)]) == 0
        if source in ("fig1", "fig2"):
            kind = "rich" if source == "fig1" else "constant"
            result = run_identification_scenario(kind, horizon=horizon, step=1e-3)
            reference_estimator_csvs(ref, result)
        elif source in FIGURE_IDS:
            result = run_ftc_scenario(
                "nonpe" if source == "ftc-nonpe" else "pe", horizon=horizon, step=1e-3
            )
            t_range = {"ftc-pe-early": (0.0, 3.0), "ftc-pe-late": (9.0, 40.0)}.get(source)
            reference_ftc_csvs(ref, result, t_range=t_range)
        elif source == "simulate-custom":
            cfg = json.loads(json.dumps(CUSTOM_CFG))
            cfg["grid"]["horizon"] = horizon
            cfg["plant"]["y0"] = 0.3
            cfg["estimator"] = {"gamma": 1.5, "theta_hat0": [0.1, -0.2]}
            assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
            result = run_identification_scenario(
                "rich",
                horizon=horizon,
                step=1e-3,
                gamma=1.5,
                theta_hat0=np.array([0.1, -0.2]),
                plant=PlantSpec(a=-0.4, b=0.4, y0=0.3, input=Sinusoid(15.0, 2.5, 1.0)),
                regressor=RegressorSpec(pole=5.0),
                bank=parse_bank(cfg["bank"]),
            )
            reference_estimator_csvs(ref, result)
        else:
            ftc = {"gamma": 3.0, "clip_threshold": 0.95, "delay_window": 0.3, "theta_hat0": 0.5}
            cfg = dict(FTC_CFG, delta_kind="nonpe", grid={"step": 1e-3, "horizon": horizon}, ftc=ftc)
            assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
            settings = FtcConfig(**{k: v for k, v in ftc.items() if k != "theta_hat0"})
            result = run_ftc_scenario(
                "nonpe", horizon=horizon, step=1e-3, theta_hat0=ftc["theta_hat0"], ftc=settings
            )
            reference_ftc_csvs(ref, result)
        ref.text("summary.txt", reference_summary_text(result))
        assert sorted(ref.names) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        for name in ref.names:
            assert (out / name).read_bytes() == (ref.out_dir / name).read_bytes(), name


class TestCheckPe:
    def test_sincos_preset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "signal": {"kind": "sinusoid-pair", "horizon": 4 * np.pi * 2},
                "window": 2 * np.pi,
                "threshold": 1e-3,
            },
        )
        assert main(["check-pe", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "pe_report.txt").read_text()
        assert "PE" in text
        alpha = float(text.split("alpha_hat")[1].split()[0])
        assert alpha == pytest.approx(np.pi, abs=1e-6)

    def test_zero_signal_verdict_is_data_not_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"signal": {"kind": "zero", "horizon": 10.0}, "window": 2.0},
        )
        assert main(["check-pe", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "not PE" in out
        assert "alpha_hat 0" in out

    def test_counterexample_preset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "signal": {"kind": "counterexample", "horizon": 5000},
                "max_window": 3,
            },
        )
        assert main(["check-pe", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "energy" in out
        assert "window, alpha_hat" in out

    def test_counterexample_accepts_its_dt_domain(self, tmp_path, capsys):
        signal = {"kind": "counterexample", "domain": "dt", "horizon": 500}
        cfg = write_config(tmp_path, {"signal": signal, "max_window": 2})
        assert main(["check-pe", "--config", cfg]) == 0
        assert "counterexample suite, horizon 500" in capsys.readouterr().out

    def test_malformed_config_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {"signal": {"kind": "mystery"}})
        assert main(["check-pe", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("threshold", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5, "threshold": "low"}),
            ("window", {"signal": {"kind": "zero", "horizon": 1.0}, "window": "wide"}),
            ("window", {"signal": {"kind": "zero", "domain": "dt", "horizon": 10.0}, "window": 2.5}),
            ("signal.step", {"signal": {"kind": "zero", "horizon": 1.0, "step": "fine"}, "window": 0.5}),
            ("signal.dim", {"signal": {"kind": "zero", "horizon": 1.0, "dim": "two"}, "window": 0.5}),
            ("signal.horizon", {"signal": {"kind": "counterexample", "horizon": "long"}}),
            ("max_window", {"signal": {"kind": "counterexample", "horizon": 100}, "max_window": 1e400}),
            ("out_dir", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5, "out_dir": 5}),
            ("out_dir", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5, "out_dir": ["x"]}),
            ("signal.domain", {"signal": {"kind": "sinusoid-pair", "domain": "dt"}, "window": 2 * np.pi}),
            ("signal.domain", {"signal": {"kind": "zero", "domain": "ctt", "horizon": 1.0}, "window": 0.5}),
            ("signal.domain", {"signal": {"kind": "counterexample", "domain": "bogus", "horizon": 100}}),
            ("signal.domain", {"signal": {"kind": "counterexample", "domain": "ct", "horizon": 100}}),
            ("signal.kind", {"signal": {"kind": ["zero"], "horizon": 1.0}, "window": 0.5}),
            ("signal.dim", {"signal": {"kind": "zero", "horizon": 1.0, "dim": -3}, "window": 0.5}),
            ("signal.dim", {"signal": {"kind": "zero", "horizon": 1.0, "dim": 0}, "window": 0.5}),
            # the signal grids take the readers of "grid"
            ("signal.step", {"signal": {"kind": "zero", "step": 0}, "window": 0.5}),
            ("signal.step", {"signal": {"kind": "sinusoid-pair", "step": 0}, "window": 2 * np.pi}),
            ("signal.step", {"signal": {"kind": "zero", "horizon": 1.0, "step": -1e-3}, "window": 0.5}),
            ("signal.step", {"signal": {"kind": "sinusoid-pair", "step": -0.01}, "window": 2 * np.pi}),
            ("signal.horizon", {"signal": {"kind": "zero", "horizon": -5.0}, "window": 0.5}),
            ("signal.horizon", {"signal": {"kind": "sinusoid-pair", "horizon": -4.0}, "window": 2 * np.pi}),
            ("signal.step", {"signal": {"kind": "zero", "step": 1e-300, "horizon": 1e10}, "window": 0.5}),
            ("signal.step", {"signal": {"kind": "zero", "domain": "dt", "step": 1e-300, "horizon": 1e10},
                             "window": 2}),
            # a numeric string is not a JSON number either
            ("threshold", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5, "threshold": "0.001"}),
            ("window", {"signal": {"kind": "zero", "horizon": 1.0}, "window": "0.5"}),
            ("signal.horizon", {"signal": {"kind": "zero", "horizon": "1.0"}, "window": 0.5}),
            ("signal.dim", {"signal": {"kind": "zero", "horizon": 1.0, "dim": "2"}, "window": 0.5}),
        ],
    )
    def test_non_numeric_field_exits_1(self, tmp_path, capsys, no_study_runs, field, payload):
        out = tmp_path / "o"
        assert main(["check-pe", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err
        assert not out.exists()

    @pytest.mark.parametrize("dim, refused", [(316, False), (317, True), (10**9, True)])
    def test_dim_bounded_by_the_gramian_stack(self, dim, refused):
        # 1001 samples of dim x dim Gramians: 316 gives 99 955 856 entries and
        # 317 gives 100 589 489, above MAX_SAMPLES; only parsing runs here
        cfg = {"signal": {"kind": "zero", "horizon": 1.0, "dim": dim}, "window": 0.5}
        if refused:
            with pytest.raises(ConfigError, match="'signal.dim'"):
                _parse(cfg, "check-pe", None)
        else:
            assert _parse(cfg, "check-pe", None)[1]["dim"] == dim

    @pytest.mark.parametrize("max_window", [0, -3])
    def test_counterexample_without_windows_exits_1(self, tmp_path, capsys, max_window):
        # an empty scan would report "all windows below threshold: True"
        signal = {"kind": "counterexample", "horizon": 100}
        cfg = write_config(tmp_path, {"signal": signal, "max_window": max_window})
        assert main(["check-pe", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "max_window" in captured.err
        assert "all windows below threshold" not in captured.out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("horizon, max_window", [(0, None), (-3, None), (100, 100), (2, 1)])
    def test_counterexample_record_too_short_exits_1(self, tmp_path, capsys, horizon, max_window):
        cfg = {"signal": {"kind": "counterexample", "horizon": horizon}}
        if max_window is not None:
            cfg["max_window"] = max_window
        out = tmp_path / "o"
        assert main(["check-pe", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: horizon must be at least")
        assert not captured.out
        assert not out.exists()

    # json writes these as NaN, Infinity and -Infinity, which it reads back as numbers
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field, payload",
        [
            ("threshold", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5}),
            ("window", {"signal": {"kind": "zero", "horizon": 1.0}}),
            ("signal.step", {"signal": {"kind": "zero", "horizon": 1.0}, "window": 0.5}),
            ("signal.horizon", {"signal": {"kind": "zero"}, "window": 0.5}),
        ],
    )
    def test_non_finite_number_exits_1(self, tmp_path, capsys, field, payload, value):
        cfg = json.loads(json.dumps(payload))
        section, _, key = field.rpartition(".")
        (cfg[section] if section else cfg)[key] = value
        out = tmp_path / "o"
        assert main(["check-pe", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert repr(field) in captured.err and "finite" in captured.err
        assert "verdict" not in captured.out
        assert not out.exists()


def test_resolve_out_dir_priority(tmp_path, monkeypatch):
    monkeypatch.setenv("DREMKIT_OUT_DIR", str(tmp_path / "env"))
    assert resolve_out_dir(str(tmp_path / "flag"), {"out_dir": str(tmp_path / "cfg")}).name == "flag"
    assert resolve_out_dir(None, {"out_dir": str(tmp_path / "cfg")}).name == "cfg"
    assert resolve_out_dir(None, {}).name == "env"
    monkeypatch.delenv("DREMKIT_OUT_DIR")
    with pytest.raises(ConfigError):
        resolve_out_dir(None, {})
