"""Command line front end: JSON scenario configs in, CSV time series and a
run manifest out.

Every command runs one pipeline in ``main``: parse, then run, then write.
``_parse`` validates the whole config and resolves and checks the output
directory, with no numerics and creating nothing, and names the runner and
its keyword arguments.
The runner is looked up in this module when the study runs. Only once it
has returned are the output directory and its files made: one CSV per run
plus ``summary.txt`` by ``write_result``, or the excitation report, then
``manifest.json``. A ``reproduce`` preset is a config plus the rows it keeps.
A field a config omits takes the library's default, and one that no study
reads is an error.

Exit codes: 0 = ran to completion, 1 = configuration error (a missing,
unknown or malformed field, or a value the library rejects with ValueError),
2 = runtime numerical failure (a diverging integration, non-finite data, or
finite data that overflow). Exit 1 or 2 creates no output directory and
writes no file. Output locations resolve as --out flag, then the config's
"out_dir", then the DREMKIT_OUT_DIR environment variable.

CSV values are written with 17 significant digits, which round-trips IEEE
doubles exactly. ``write_csv`` formats a fixed block of rows at a time with
one ``%``; the bytes are those ``np.savetxt`` writes row by row.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .excitation import counterexample_suite, pe_check_ct, pe_check_dt
from .ftc import ClipContractError
from .operators import LtvChannelSpec, OperatorBank, _delay_steps
from .quadrature import window_steps
from .scenarios import (
    Constant,
    PlantSpec,
    RegressorSpec,
    ScenarioResult,
    Sinusoid,
    TRACKING_FTC,
    convergence_time,
    run_ftc_scenario,
    run_identification_scenario,
)
from .signals import DEFAULT_CT_STEP, DEFAULT_DT_STEP, TimeGrid, Trajectory, whole_steps

ENV_OUT_DIR = "DREMKIT_OUT_DIR"
# figure id: (study fields, horizon in s, rows kept as (start, stop) or None)
PRESETS = {
    "fig1": ({"mode": "identify", "input_kind": "rich"}, 20.0, None),
    "fig2": ({"mode": "identify", "input_kind": "constant"}, 20.0, None),
    "ftc-pe-early": ({"mode": "ftc", "delta_kind": "pe"}, 40.0, (0.0, 3.0)),
    "ftc-pe-late": ({"mode": "ftc", "delta_kind": "pe"}, 40.0, (9.0, 40.0)),
    "ftc-nonpe": ({"mode": "ftc", "delta_kind": "nonpe"}, 40.0, None),
}
FIGURE_IDS = tuple(PRESETS)
FLOAT_FMT = "%.17g"
# the most samples a grid or a counterexample record may hold; a larger one is
# refused while parsing, so it fails with its field named instead of in numpy
MAX_SAMPLES = 10**8
_CSV_BLOCK_ROWS = 128  # rows per `%` in write_csv; larger blocks cost memory and save no time


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; maps to exit code 1."""


def _fail(field: str, message: str) -> ConfigError:
    return ConfigError(f"config field {field!r}: {message}")


def _get(cfg: dict, field: str, required: bool = True):
    if field in cfg:
        return cfg[field]
    if required:
        raise _fail(field, "missing")
    return None


def _section(cfg: dict, name: str, required: bool = True) -> dict | None:
    """A config object; an optional section that is absent or null is None."""
    value = _get(cfg, name, required)
    if value is None and not required:
        return None
    if not isinstance(value, dict):
        raise _fail(name, f"expected an object, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool (nor a numeric string)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, field: str) -> float:
    if not _is_number(value):
        raise _fail(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the range of a double
        raise _fail(field, "expected a number, got an integer too large for a double") from None
    if not np.isfinite(number):
        raise _fail(field, f"expected a finite number, got {value!r}")
    return number


def _numbers(value, field: str) -> np.ndarray:
    # a ragged list has a list among its leaves
    if not all(map(_is_number, np.asarray(value, dtype=object).ravel())):
        raise _fail(field, f"expected a list of numbers, got {value!r}")
    try:
        numbers = np.asarray(value, dtype=float)
    except OverflowError:
        raise _fail(field, "expected numbers, got an integer too large for a double") from None
    if not np.isfinite(numbers).all():
        raise _fail(field, f"expected finite numbers, got {value!r}")
    return numbers


def _positive(value, field: str) -> float:
    number = _number(value, field)
    if not number > 0:
        raise _fail(field, f"must be positive, got {value!r}")
    return number


def _nonnegative(value, field: str) -> float:
    number = _number(value, field)
    if number < 0:
        raise _fail(field, f"must be nonnegative, got {value!r}")
    return number


def _integer(value, field: str) -> int:
    number = _number(value, field)
    if not number.is_integer():
        raise _fail(field, f"expected an integer, got {value!r}")
    return int(number)


def _given(section: dict, label: str, readers: dict, required=()) -> dict:
    """The fields ``section`` gives, parsed by their readers. A field with
    no reader is rejected; one whose reader is None is read elsewhere and left
    out. ``label`` names the section in errors, "" at the top level."""
    prefix = f"{label}." if label else ""
    for name in section:
        if name not in readers:
            raise _fail(prefix + name, f"unknown field; accepted: {', '.join(readers)}")
    for name in required:
        if name not in section:
            raise _fail(prefix + name, "missing")
    return {
        name: read(section[name], prefix + name)
        for name, read in readers.items()
        if read is not None and name in section
    }


def _as_is(value, field: str):
    """Reader of a field the library validates itself."""
    return value


_SIGNALS = {  # named signal kind: (constructor, its fields, the required ones)
    "constant": (Constant, ("level",), ("level",)),
    "sinusoid": (Sinusoid, ("amplitude", "frequency", "phase"), ("amplitude", "frequency")),
}


def named_signal(spec, field: str) -> Sinusoid | Constant:
    """Named time-varying entry: a bare number means a constant. ``field``
    names the entry in error messages."""
    if isinstance(spec, (int, float)):
        return Constant(_number(spec, field))
    if not isinstance(spec, dict):
        raise _fail(field, f"expected a number or a signal object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SIGNALS:
        accepted = ", ".join(_SIGNALS)
        raise _fail(f"{field}.kind", f"unknown signal kind {kind!r}; accepted: {accepted}")
    make, fields, required = _SIGNALS[kind]
    return make(**_given(spec, field, {"kind": None, **dict.fromkeys(fields, _number)}, required))


def _channel_entry(value, field: str):
    """Channel coefficient: constant number/matrix or a named signal."""
    if isinstance(value, dict):
        return named_signal(value, field)
    if isinstance(value, list):
        return _numbers(value, field)
    if isinstance(value, (int, float)):
        return _number(value, field)
    raise _fail(field, f"cannot interpret {value!r}")


_CHANNEL_FIELDS = {
    "n": _integer,
    **dict.fromkeys(("A", "b", "c", "d", "mu"), _channel_entry),
    "delay": _number,
    "kind": _as_is,
}


def parse_bank(cfg: dict) -> OperatorBank:
    """The identification study's bank: two CT channels without feedthrough,
    one per parameter."""
    entries = _given(cfg, "bank", {"channels": _as_is}, ("channels",))["channels"]
    if not isinstance(entries, list):
        raise _fail("bank.channels", f"expected a list of objects, got {entries!r}")
    channels = []
    for i, ch in enumerate(entries):
        if not isinstance(ch, dict):
            raise _fail(f"bank.channels[{i}]", f"expected an object, got {ch!r}")
        try:
            given = _given(ch, "", _CHANNEL_FIELDS)
            if "mu" in given:
                given["delay_gain"] = given.pop("mu")
            channel = LtvChannelSpec(**given)
        except ValueError as exc:
            raise _fail(f"bank.channels[{i}]", str(exc)) from exc
        if channel.kind != "ct":
            raise _fail(f"bank.channels[{i}]", f"kind {channel.kind!r}; the study's signals are CT")
        if not channel.has_zero_feedthrough():
            field = f"bank.channels[{i}].d"
            raise _fail(field, "must be 0: the study adds its own feedthrough (drem_dN)")
        channels.append(channel)
    try:
        bank = OperatorBank(tuple(channels))
    except ValueError as exc:  # no channels
        raise _fail("bank.channels", str(exc)) from exc
    if bank.m != 2:
        raise _fail("bank.channels", f"expected 2 channels, one per parameter, got {bank.m}")
    return bank


def _check_steps(horizon: float, step: float, label: str) -> None:
    """A grid whose number of steps, ``horizon / step``, overflows has no
    sample count, and one whose horizon is not a whole number of steps or
    that has more than ``MAX_SAMPLES`` samples is refused, as
    ``TimeGrid.from_horizon`` would. ``label`` names the grid's section."""
    steps = horizon / step
    ratio = f"{label}.horizon / {label}.step = {horizon!r} / {step!r}"
    if not np.isfinite(steps):
        raise _fail(f"{label}.step", f"{ratio} overflows the sample count")
    if whole_steps(horizon, step) is None:
        raise _fail(f"{label}.horizon", f"{horizon!r} is not a whole number of steps of {step!r} s")
    if round(steps) + 1 > MAX_SAMPLES:  # the count TimeGrid.from_horizon takes
        raise _fail(f"{label}.horizon", f"{ratio} gives more than {MAX_SAMPLES} samples")


def parse_grid(cfg: dict) -> tuple[float, float]:
    readers = {"t0": _number, "step": _positive, "horizon": _nonnegative}
    grid = _given(_section(cfg, "grid"), "grid", readers, ("step", "horizon"))
    if grid.get("t0"):
        raise _fail("grid.t0", "studies start at t = 0; omit t0 or set it to 0.0")
    _check_steps(grid["horizon"], grid["step"], "grid")
    return grid["horizon"], grid["step"]


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def resolve_out_dir(
    flag_value: str | None, cfg: dict | None, required: bool = True
) -> Path | None:
    """The output directory from --out, the config or the environment; None
    when none is given and ``required`` is false."""
    configured = cfg.get("out_dir") if cfg else None
    if configured is not None and not isinstance(configured, str):
        raise _fail("out_dir", f"expected a path string, got {configured!r}")
    for value in (flag_value, configured, os.environ.get(ENV_OUT_DIR)):
        if value:
            return Path(value)
    if required:
        raise ConfigError(
            f"no output directory: pass --out, set 'out_dir' in the config, or set {ENV_OUT_DIR}"
        )
    return None


def _check_out_dir(out: Path) -> None:
    """Fail before the study runs, creating nothing, when ``out`` could not be
    made: its nearest existing ancestor must be a writable directory."""
    ancestor = out.absolute()
    try:
        while not ancestor.exists():
            ancestor = ancestor.parent
        usable = ancestor.is_dir() and os.access(ancestor, os.W_OK)
    except OSError:
        usable = False
    if not usable:
        raise ConfigError(
            f"cannot create output directory {out}: {ancestor} is not a writable directory"
        )


def write_csv(path: Path, columns: list[str], arrays: list[np.ndarray]) -> int:
    """One header line, then one row per sample; CRLF line endings.

    Rows are formatted ``_CSV_BLOCK_ROWS`` at a time by one ``%`` over the
    row template repeated for the block, which gives the bytes ``np.savetxt``
    gives row by row; the block size bounds the memory this takes.
    """
    table = np.column_stack(arrays)
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    return len(table)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Read back an emitted CSV; values reproduce the written doubles exactly.
    A header-only file, as written for zero rows, gives zero rows."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        rows = fh.readlines()
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty(0)
    return header, data.reshape(-1, len(header))


class OutputWriter:
    """Collects emitted files so the manifest can list every one of them."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries: list[dict] = []
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")

    def csv(self, name: str, columns: list[str], arrays: list[np.ndarray]) -> None:
        rows = write_csv(self.out_dir / name, columns, arrays)
        self.entries.append({"name": name, "kind": "csv", "columns": columns, "rows": rows})

    def text(self, name: str, content: str) -> None:
        (self.out_dir / name).write_text(content)
        self.entries.append({"name": name, "kind": "text"})

    def manifest(self, config_payload) -> None:
        digest = hashlib.sha256(
            json.dumps(config_payload, sort_keys=True).encode()
        ).hexdigest()
        files = self.entries + [{"name": "manifest.json", "kind": "manifest"}]
        payload = {
            "tool_version": __version__,
            "config_sha256": digest,
            "files": files,
        }
        (self.out_dir / "manifest.json").write_text(json.dumps(payload, indent=2))


def write_result(writer: OutputWriter, result: ScenarioResult, t_range=None) -> None:
    """Write one CSV per run of ``result`` and a ``summary.txt``.

    Columns are ``t``, ``theta_hat_1..m``, ``theta_tilde_1..m`` and the run's
    excitation, under the run's ``diagnostics_name``. A run's ``recovery``
    adds its ``w``, ``w_clipped`` and, when present, ``w_delayed``. ``t_range
    = (start, stop)`` keeps only the rows with start <= t <= stop.
    """
    for name, run in result.runs.items():
        if run.theta_tilde is None:
            raise ValueError(f"run {name!r} has no truth, so its errors cannot be written")
    times = result.grid.times()
    rows = slice(None) if t_range is None else (times >= t_range[0]) & (times <= t_range[1])
    summary = ["run, convergence_time_s, final_abs_errors"]
    for name, run in result.runs.items():
        hat = run.theta_hat.values.reshape(len(times), -1)
        tilde = run.theta_tilde.values.reshape(len(times), -1)
        m = hat.shape[1]
        columns = [
            "t",
            *(f"theta_hat_{i+1}" for i in range(m)),
            *(f"theta_tilde_{i+1}" for i in range(m)),
            run.diagnostics_name,
        ]
        arrays = [times, *hat.T, *tilde.T, run.diagnostics.values]
        if (ftc := run.recovery) is not None:
            columns += ["w", "w_clipped"]
            arrays += [ftc.w.values, ftc.w_clipped.values]
            if ftc.w_delayed is not None:
                columns.append("w_delayed")
                arrays.append(ftc.w_delayed.values)
        writer.csv(f"{name}.csv", columns, [a[rows] for a in arrays])

        tc = convergence_time(run.theta_tilde)
        errs = " ".join(FLOAT_FMT % e for e in np.abs(tilde[-1]))
        summary.append(f"{name}, {'none' if tc is None else FLOAT_FMT % tc}, {errs}")
    writer.text("summary.txt", "\n".join(summary) + "\n")


# the top-level fields of each mode; a reader of None marks a section or a
# field read on its own
_TOP_FIELDS = {"mode": None, "grid": None, "out_dir": None}
_SECTIONS = dict.fromkeys(("plant", "regressor", "bank", "estimator"))
_STUDY_FIELDS = {
    "identify": {**_TOP_FIELDS, "input_kind": _as_is, **_SECTIONS},
    "custom": {**_TOP_FIELDS, **_SECTIONS},
    "ftc": {**_TOP_FIELDS, "delta_kind": _as_is, "ftc": None},
}


_FTC_FIELDS = {
    "gamma": _positive, "clip_threshold": _number, "delay_window": _positive, "theta_hat0": _number,
}


def _parse(cfg: dict, command: str, out_flag: str | None) -> tuple[str, dict, Path | None]:
    """Validate ``cfg`` for ``command`` with no numerics, creating nothing.
    Returns the name of the runner in this module, its keyword arguments and
    the output directory, which only ``check-pe`` may go without and whose
    nearest existing ancestor must be a writable directory. An omitted field
    takes the library's default."""
    if command == "check-pe":
        mode = cfg.get("mode", "pe-check")
        if mode != "pe-check":
            raise _fail("mode", f"check-pe runs only mode 'pe-check', got {mode!r}")
    else:
        mode = _get(cfg, "mode")
    out = resolve_out_dir(out_flag, cfg, required=command != "check-pe")
    if out is not None:
        _check_out_dir(out)
    if mode == "pe-check":
        return (*_parse_pe_check(cfg), out)
    if not isinstance(mode, str) or mode not in _STUDY_FIELDS:
        raise _fail("mode", f"unknown mode {mode!r}")
    study = _given(cfg, "", _STUDY_FIELDS[mode], ("delta_kind",) if mode == "ftc" else ())
    study["horizon"], study["step"] = parse_grid(cfg)
    if mode == "ftc":
        given = _given(_section(cfg, "ftc", required=False) or {}, "ftc", _FTC_FIELDS)
        if "theta_hat0" in given:
            study["theta_hat0"] = given.pop("theta_hat0")
        study["ftc"] = dataclasses.replace(TRACKING_FTC, **given)
        try:  # the recovery window must be a whole number of grid steps
            window_steps(study["ftc"].delay_window, study["step"], "delay_window")
        except ValueError as exc:
            raise _fail("ftc.delay_window", f"{exc} of {study['step']!r} s") from None
        return "run_ftc_scenario", study, out
    required = mode == "custom"
    plant_cfg = _section(cfg, "plant", required)
    if plant_cfg is not None:
        if "input_kind" in cfg:
            raise _fail("input_kind", "conflicts with 'plant', which sets its own input")
        readers = {"a": _number, "b": _number, "y0": _number, "input": named_signal}
        study["plant"] = PlantSpec(**_given(plant_cfg, "plant", readers, ("a", "b", "input")))
    reg_cfg = _section(cfg, "regressor", required)
    if reg_cfg is not None:
        pole = _given(reg_cfg, "regressor", {"pole": _positive}, ("pole",))
        study["regressor"] = RegressorSpec(**pole)
    bank_cfg = _section(cfg, "bank", required)
    if bank_cfg is not None:
        study["bank"] = parse_bank(bank_cfg)
        for i, channel in enumerate(study["bank"].channels):
            try:  # a delay tap must land on the grid, by the runner's own test
                _delay_steps(channel.delay, study["step"])
            except ValueError as exc:
                raise _fail(f"bank.channels[{i}].delay", str(exc)) from None
    est = _section(cfg, "estimator", required) or {}
    study.update(_given(est, "estimator", {"gamma": _positive, "theta_hat0": _numbers}))
    if "theta_hat0" in est and np.shape(study["theta_hat0"]) != (2,):
        given = est["theta_hat0"]
        raise _fail("estimator.theta_hat0", f"expected 2 entries, one per parameter, got {given!r}")
    return "run_identification_scenario", study, out


_PE_FIELDS = {"mode": None, "out_dir": None, "signal": None, "threshold": _number}
# the domains each pe-check signal kind is defined on; the first is the default
_PE_DOMAINS = {"zero": ("ct", "dt"), "sinusoid-pair": ("ct",), "counterexample": ("dt",)}


def _parse_pe_check(cfg: dict) -> tuple[str, dict]:
    sig = _section(cfg, "signal")
    kind = sig.get("kind")
    domains = _PE_DOMAINS.get(kind) if isinstance(kind, str) else None
    if domains is None:
        raise _fail("signal.kind", f"unknown signal kind {kind!r}")
    domain = sig.get("domain", domains[0])
    if domain not in domains:
        expected = " or ".join(repr(d) for d in domains)
        raise _fail("signal.domain", f"expected {expected} for {kind}, got {domain!r}")
    if kind == "counterexample":
        given = _given(cfg, "", {**_PE_FIELDS, "max_window": _integer})
        given.update(_given(sig, "signal", {"kind": None, "domain": None, "horizon": _integer}))
        if given.get("horizon", 0) > MAX_SAMPLES:
            raise _fail("signal.horizon", f"must be at most {MAX_SAMPLES}, got {sig['horizon']!r}")
        return "_counterexample_report", given
    readers = {"kind": None, "domain": None, "horizon": _nonnegative, "step": _positive}
    if kind == "zero":
        step = DEFAULT_CT_STEP if domain == "ct" else DEFAULT_DT_STEP
        given = _given(sig, "signal", {**readers, "dim": _integer})
        signal = {"horizon": 10.0, "step": step, "dim": 1, **given}
        if signal["dim"] < 1:
            raise _fail("signal.dim", f"must be at least 1, got {signal['dim']}")
    else:  # sinusoid-pair: (sin t, cos t) sampled so the window is a grid multiple
        given = _given(sig, "signal", readers)
        signal = {"horizon": 8.0 * np.pi, "step": 2 * np.pi / 6000, **given}
    _check_steps(signal["horizon"], signal["step"], "signal")
    if kind == "zero":  # the check holds one dim x dim Gramian per sample
        entries = (round(signal["horizon"] / signal["step"]) + 1) * signal["dim"] ** 2
        if entries > MAX_SAMPLES:
            message = f"{signal['dim']} gives {entries} Gramian entries, more than {MAX_SAMPLES}"
            raise _fail("signal.dim", message)
    window = _number if domain == "ct" else _integer
    check = _given(cfg, "", {**_PE_FIELDS, "window": window}, ("window",))
    return "_pe_report", {"kind": kind, "domain": domain, **signal, **check}


def _pe_report(kind: str, domain: str, horizon: float, step: float, dim: int = 1, **check) -> str:
    """The excitation certificate of a named signal, as report text."""
    grid = TimeGrid.from_horizon(horizon, step)
    if kind == "zero":
        values = np.zeros((grid.count, dim)) if dim > 1 else np.zeros(grid.count)
        phi = Trajectory(grid, values, domain)
    else:
        t = grid.times()
        phi = Trajectory(grid, np.stack([np.sin(t), np.cos(t)], axis=1), domain)
    report = (pe_check_ct if domain == "ct" else pe_check_dt)(phi, **check)
    return (
        f"signal {kind}, domain {domain}, window {report.window},"
        f" threshold {report.threshold}\n"
        f"alpha_hat {report.alpha_hat:.9g}\n"
        f"verdict: {'PE' if report.is_pe else 'not PE'} over the tested horizon\n"
    )


def _counterexample_report(**suite) -> str:
    """The decaying-regressor counterexample suite, as report text."""
    report = counterexample_suite(**suite)
    lines = [
        f"counterexample suite, horizon {report.horizon}, threshold {report.threshold}",
        f"all windows below threshold: {report.all_below_threshold}",
        f"energy final {report.energy_final:.6g} vs bound {report.energy_bound:.6g}"
        f" (diverges: {report.energy_diverges})",
        f"forward direction alpha {report.forward_alpha:.6g},"
        f" energy {report.forward_energy_final:.6g} (linear: {report.forward_energy_linear})",
        "window, alpha_hat",
    ]
    for K in sorted(report.alpha_by_window):
        lines.append(f"{K}, {report.alpha_by_window[K]:.9g}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dremkit",
        description="Parameter-estimation scenario runner: simulate configured "
        "scenarios, reproduce the built-in studies, or check signal excitation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario described by a JSON config")
    p_sim.add_argument("--config", required=True, help="path to the JSON config")
    p_sim.add_argument("--out", default=None, help="output directory for CSV files")

    p_rep = sub.add_parser("reproduce", help="run a built-in study preset")
    p_rep.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    p_rep.add_argument("--out", default=None, help="output directory for CSV files")

    p_pe = sub.add_parser("check-pe", help="excitation certificate for a signal")
    p_pe.add_argument("--config", required=True, help="path to the JSON config")
    p_pe.add_argument("--out", default=None, help="optional report directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            if args.figure_id not in FIGURE_IDS:
                raise ConfigError(
                    f"unknown figure id {args.figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
                )
            fields, horizon, rows = PRESETS[args.figure_id]
            cfg = {**fields, "grid": {"t0": 0.0, "step": DEFAULT_CT_STEP, "horizon": horizon}}
        else:
            cfg, rows = load_config(args.config), None
        runner, kwargs, out = _parse(cfg, args.command, args.out)
        # looked up when the study runs, so a runner rebound on this module is the one called
        result = globals()[runner](**kwargs)
        if out is not None:
            writer = OutputWriter(out)
            if isinstance(result, str):  # an excitation report
                writer.text("pe_report.txt", result)
            else:
                write_result(writer, result, t_range=rows)
            writer.manifest(cfg)
        if isinstance(result, str):
            print(result, end="")
        return 0
    except ValueError as exc:  # ConfigError, or an argument the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ClipContractError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
