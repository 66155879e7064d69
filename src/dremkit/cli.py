"""Command line front end: JSON scenario configs in, CSV time series and a
run manifest out.

``simulate`` and ``reproduce`` share one path: ``_run_study`` runs the
study a config describes, and ``write_result`` writes one CSV per run plus
``summary.txt``; a preset only supplies its config and the rows it keeps.
Scripts call ``write_result`` on their own study runs.

Exit codes: 0 = ran to completion, 1 = configuration error (a malformed
field, or a value the library rejects with ValueError), 2 = runtime
numerical failure. Output locations resolve as --out flag, then the config's
"out_dir", then the DREMKIT_OUT_DIR environment variable.

CSV values are written with 17 significant digits, which round-trips IEEE
doubles exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .excitation import counterexample_suite, pe_check_ct, pe_check_dt
from .ftc import ClipContractError
from .operators import LtvChannelSpec, OperatorBank
from .scenarios import (
    Constant,
    PlantSpec,
    RegressorSpec,
    ScenarioResult,
    Sinusoid,
    run_ftc_scenario,
    run_identification_scenario,
)
from .signals import TimeGrid, Trajectory

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


def named_signal(spec, field: str) -> Sinusoid | Constant:
    """Named time-varying entry: a bare number means a constant. ``field``
    names the entry in error messages."""
    if isinstance(spec, (int, float)):
        return Constant(float(spec))
    if not isinstance(spec, dict):
        raise _fail(field, f"expected a number or a signal object, got {spec!r}")
    kind = _get(spec, "kind")
    if kind == "constant":
        return Constant(_number(_get(spec, "level"), f"{field}.level"))
    if kind == "sinusoid":
        return Sinusoid(
            amplitude=_number(_get(spec, "amplitude"), f"{field}.amplitude"),
            frequency=_number(_get(spec, "frequency"), f"{field}.frequency"),
            phase=_number(spec.get("phase", 0.0), f"{field}.phase"),
        )
    raise _fail("kind", f"unknown signal kind {kind!r}")


def _channel_entry(value, field: str):
    """Channel coefficient: constant number/matrix or a named signal."""
    if isinstance(value, dict):
        return named_signal(value, field)
    if isinstance(value, (int, float, list)):
        return value
    raise _fail(field, f"cannot interpret {value!r}")


def parse_bank(cfg: dict) -> OperatorBank:
    entries = _get(cfg, "channels")
    if not isinstance(entries, list):
        raise _fail("bank.channels", f"expected a list of objects, got {entries!r}")
    channels = []
    for i, ch in enumerate(entries):
        if not isinstance(ch, dict):
            raise _fail(f"bank.channels[{i}]", f"expected an object, got {ch!r}")
        try:
            channels.append(
                LtvChannelSpec(
                    n=_integer(ch.get("n", 0), "n"),
                    A=_channel_entry(ch["A"], "A") if "A" in ch else None,
                    b=_channel_entry(ch["b"], "b") if "b" in ch else None,
                    c=_channel_entry(ch["c"], "c") if "c" in ch else None,
                    d=_channel_entry(ch.get("d", 0.0), "d"),
                    delay_gain=_channel_entry(ch.get("mu", 0.0), "mu"),
                    delay=_number(ch.get("delay", 0.0), "delay"),
                    kind=ch.get("kind", "ct"),
                )
            )
        except (ValueError, KeyError) as exc:
            raise _fail(f"bank.channels[{i}]", str(exc)) from exc
    return OperatorBank(tuple(channels))


def _number(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _fail(field, f"expected a number, got {value!r}") from None


def _numbers(value, field: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise _fail(field, f"expected a list of numbers, got {value!r}") from None


def _positive(value, field: str) -> float:
    number = _number(value, field)
    if not number > 0:
        raise _fail(field, f"must be positive, got {value!r}")
    return number


def _integer(value, field: str) -> int:
    number = _number(value, field)
    if not number.is_integer():
        raise _fail(field, f"expected an integer, got {value!r}")
    return int(number)


def parse_grid(cfg: dict) -> tuple[float, float]:
    grid = _section(cfg, "grid")
    step = _number(_get(grid, "step"), "grid.step")
    horizon = _number(_get(grid, "horizon"), "grid.horizon")
    if step <= 0:
        raise _fail("grid.step", "must be positive")
    if horizon < 0:
        raise _fail("grid.horizon", "must be nonnegative")
    if _number(grid.get("t0", 0.0), "grid.t0") != 0.0:
        raise _fail("grid.t0", "studies start at t = 0; omit t0 or set it to 0.0")
    return horizon, step


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


def _given_out_dir(flag_value: str | None, cfg: dict | None) -> Path | None:
    """The output directory from --out, the config or the environment, or None."""
    configured = cfg.get("out_dir") if cfg else None
    if configured is not None and not isinstance(configured, str):
        raise _fail("out_dir", f"expected a path string, got {configured!r}")
    for value in (flag_value, configured, os.environ.get(ENV_OUT_DIR)):
        if value:
            return Path(value)
    return None


def resolve_out_dir(flag_value: str | None, cfg: dict | None) -> Path:
    out = _given_out_dir(flag_value, cfg)
    if out is None:
        raise ConfigError(
            f"no output directory: pass --out, set 'out_dir' in the config, or set {ENV_OUT_DIR}"
        )
    return out


def write_csv(path: Path, columns: list[str], arrays: list[np.ndarray]) -> int:
    """One header line, then one row per sample; CRLF line endings."""
    table = np.column_stack(arrays)
    with open(path, "w", newline="") as fh:
        np.savetxt(
            fh, table, fmt=FLOAT_FMT, delimiter=",", header=",".join(columns),
            comments="", newline="\r\n",
        )
    return len(table)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Read back an emitted CSV; values reproduce the written doubles exactly."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(header))


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
    excitation: ``phi_norm_sq`` for the identification study's vector
    gradient run, ``delta`` for every other run. Recovery runs add ``w``,
    ``w_clipped`` and, when present, ``w_delayed``. ``t_range = (start,
    stop)`` keeps only the rows with start <= t <= stop.
    """
    for name, run in result.runs.items():
        if run.theta_tilde is None or name not in result.final_errors:
            raise ValueError(f"run {name!r} has no truth, so its errors cannot be written")
    times = result.grid.times()
    rows = slice(None) if t_range is None else (times >= t_range[0]) & (times <= t_range[1])
    summary = ["run, convergence_time_s, final_abs_errors"]
    for name, run in result.runs.items():
        hat = run.theta_hat.values.reshape(len(times), -1)
        tilde = run.theta_tilde.values.reshape(len(times), -1)
        m = hat.shape[1]
        # the tracking study's "gradient" run is the scalar estimator on Delta
        vector_run = name == "gradient" and not result.ftc_runs
        columns = [
            "t",
            *(f"theta_hat_{i+1}" for i in range(m)),
            *(f"theta_tilde_{i+1}" for i in range(m)),
            "phi_norm_sq" if vector_run else "delta",
        ]
        arrays = [times, *hat.T, *tilde.T, run.diagnostics.values]
        ftc = result.ftc_runs.get(name)
        if ftc is not None:
            columns += ["w", "w_clipped"]
            arrays += [ftc.w.values, ftc.w_clipped.values]
            if ftc.w_delayed is not None:
                columns.append("w_delayed")
                arrays.append(ftc.w_delayed.values)
        writer.csv(f"{name}.csv", columns, [a[rows] for a in arrays])

        tc = result.convergence_times.get(name)
        errs = " ".join(FLOAT_FMT % e for e in np.atleast_1d(result.final_errors.get(name)))
        summary.append(f"{name}, {'none' if tc is None else FLOAT_FMT % tc}, {errs}")
    writer.text("summary.txt", "\n".join(summary) + "\n")


def _run_study(cfg: dict) -> ScenarioResult:
    """Run the identify, custom or ftc study that ``cfg`` describes."""
    mode = _get(cfg, "mode")
    if mode not in ("identify", "custom", "ftc"):
        raise _fail("mode", f"unknown mode {mode!r}")
    horizon, step = parse_grid(cfg)
    if mode == "ftc":
        ftc_cfg = _section(cfg, "ftc", required=False) or {}
        snapshot = ftc_cfg.get("use_delayed_snapshot", True)
        if not isinstance(snapshot, bool):
            raise _fail("ftc.use_delayed_snapshot", f"expected true or false, got {snapshot!r}")
        return run_ftc_scenario(
            delta_kind=_get(cfg, "delta_kind"),
            horizon=horizon,
            step=step,
            gamma=_positive(ftc_cfg.get("gamma", 2.0), "ftc.gamma"),
            clip_threshold=_number(ftc_cfg.get("clip_threshold", 0.98), "ftc.clip_threshold"),
            delay_window=_number(ftc_cfg.get("delay_window", 0.2), "ftc.delay_window"),
            theta_hat0=_number(ftc_cfg.get("theta_hat0", 0.0), "ftc.theta_hat0"),
            use_delayed_snapshot=snapshot,
        )
    required = mode == "custom"
    plant_cfg = _section(cfg, "plant", required)
    plant = None
    if plant_cfg is not None:
        if "input_kind" in cfg:
            raise _fail("input_kind", "conflicts with 'plant', which sets its own input")
        plant = PlantSpec(
            a=_number(_get(plant_cfg, "a"), "plant.a"),
            b=_number(_get(plant_cfg, "b"), "plant.b"),
            y0=_number(plant_cfg.get("y0", 0.0), "plant.y0"),
            input=named_signal(_get(plant_cfg, "input"), "plant.input"),
        )
    reg_cfg = _section(cfg, "regressor", required)
    regressor = (
        RegressorSpec(pole=_positive(_get(reg_cfg, "pole"), "regressor.pole"))
        if reg_cfg
        else None
    )
    bank_cfg = _section(cfg, "bank", required)
    est = _section(cfg, "estimator", required) or {}
    return run_identification_scenario(
        input_kind=cfg.get("input_kind", "rich"),
        horizon=horizon,
        step=step,
        gamma=_positive(est.get("gamma", 1.0), "estimator.gamma"),
        theta_hat0=_numbers(est.get("theta_hat0", [0.0, 0.0]), "estimator.theta_hat0"),
        plant=plant,
        regressor=regressor,
        bank=parse_bank(bank_cfg) if bank_cfg else None,
    )


def cmd_simulate(config_path: str, out_dir: str | None) -> int:
    cfg = load_config(config_path)
    out = resolve_out_dir(out_dir, cfg)
    mode = _get(cfg, "mode")
    writer = OutputWriter(out)
    if mode == "pe-check":
        report_text = _pe_check_text(cfg)
        writer.text("pe_report.txt", report_text)
        print(report_text, end="")
    else:
        write_result(writer, _run_study(cfg))
    writer.manifest(cfg)
    return 0


def _pe_signal(cfg: dict) -> Trajectory:
    sig = _section(cfg, "signal")
    kind = _get(sig, "kind")
    domain = sig.get("domain", "ct")
    if domain not in (("ct",) if kind == "sinusoid-pair" else ("ct", "dt")):
        raise _fail("signal.domain", f"expected 'ct' or 'dt' ('ct' for {kind}), got {domain!r}")
    if kind == "zero":
        from .signals import DEFAULT_DT_STEP

        horizon = _number(sig.get("horizon", 10.0), "signal.horizon")
        step = _number(sig.get("step", 1e-3 if domain == "ct" else DEFAULT_DT_STEP), "signal.step")
        grid = TimeGrid.from_horizon(horizon, step)
        dim = _integer(sig.get("dim", 1), "signal.dim")
        vals = np.zeros((grid.count, dim)) if dim > 1 else np.zeros(grid.count)
        return Trajectory(grid, vals, domain)
    if kind == "sinusoid-pair":
        # (sin t, cos t) sampled so the window is a grid multiple
        step = _number(sig.get("step", 2.0 * np.pi / 6000), "signal.step")
        horizon = _number(sig.get("horizon", 8.0 * np.pi), "signal.horizon")
        grid = TimeGrid.from_horizon(horizon, step)
        t = grid.times()
        return Trajectory(grid, np.stack([np.sin(t), np.cos(t)], axis=1), "ct")
    raise _fail("signal.kind", f"unknown signal kind {kind!r}")


def _pe_check_text(cfg: dict) -> str:
    sig_kind = _get(_section(cfg, "signal"), "kind")
    threshold = _number(cfg.get("threshold", 1e-3), "threshold")
    if sig_kind == "counterexample":
        horizon = _integer(cfg["signal"].get("horizon", 100_000), "signal.horizon")
        max_window = _integer(cfg.get("max_window", 100), "max_window")
        report = counterexample_suite(horizon, max_window, threshold)
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
    phi = _pe_signal(cfg)
    window = _get(cfg, "window")
    if phi.kind == "ct":
        report = pe_check_ct(phi, _number(window, "window"), threshold)
    else:
        report = pe_check_dt(phi, _integer(window, "window"), threshold)
    return (
        f"signal {sig_kind}, domain {phi.kind}, window {report.window},"
        f" threshold {report.threshold}\n"
        f"alpha_hat {report.alpha_hat:.9g}\n"
        f"verdict: {'PE' if report.is_pe else 'not PE'} over the tested horizon\n"
    )


def cmd_check_pe(config_path: str, out_dir: str | None = None) -> int:
    cfg = load_config(config_path)
    out = _given_out_dir(out_dir, cfg)
    text = _pe_check_text(cfg)
    if out is not None:
        writer = OutputWriter(out)
        writer.text("pe_report.txt", text)
        writer.manifest(cfg)
    print(text, end="")
    return 0


def _reproduce_config(figure_id: str) -> dict:
    fields, horizon, _ = PRESETS[figure_id]
    return {**fields, "grid": {"t0": 0.0, "step": 1e-3, "horizon": horizon}}


def cmd_reproduce(figure_id: str, out_dir: str | None) -> int:
    if figure_id not in FIGURE_IDS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        )
    cfg = _reproduce_config(figure_id)
    writer = OutputWriter(resolve_out_dir(out_dir, cfg))
    write_result(writer, _run_study(cfg), t_range=PRESETS[figure_id][2])
    writer.manifest(cfg)
    return 0


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
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "reproduce":
            return cmd_reproduce(args.figure_id, args.out)
        if args.command == "check-pe":
            return cmd_check_pe(args.config, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as exc:  # ConfigError, or an argument the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ClipContractError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
