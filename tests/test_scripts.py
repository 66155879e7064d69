"""Smoke runs of the experiment scripts on short horizons."""

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from dremkit.cli import FIGURE_IDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def assert_listed_files(out_dir, expected):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = {entry["name"] for entry in manifest["files"]}
    assert listed == {p.name for p in out_dir.iterdir()}
    assert expected <= listed


def test_run_identification(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "run_identification.py", "--horizon", "0.5", "--out", str(tmp_path))
    for kind in ("rich", "constant"):
        assert_listed_files(tmp_path / kind, {"gradient.csv", "drem_d0.csv", "drem_dN.csv", "summary.txt"})
    assert "== constant input ==" in capsys.readouterr().out


def test_run_ftc_tracking(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "run_ftc_tracking.py", "--horizon", "1.0", "--out", str(tmp_path))
    for kind in ("pe", "nonpe"):
        assert_listed_files(tmp_path / kind, {"gradient.csv", "ftc.csv", "ftc_d.csv", "summary.txt"})
    assert "activation times" in capsys.readouterr().out


def test_run_excitation_scan(monkeypatch, capsys):
    run_script(monkeypatch, "run_excitation_scan.py", "--horizon", "2000", "--max-window", "3")
    out = capsys.readouterr().out
    assert "certificates all below threshold" in out
    assert "mixed-signal energy" in out


def test_output_digests(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "output_digests.py", str(out))
    assert exit_info.value.code == 0
    listing = [line.split("  ", 1) for line in capsys.readouterr().out.splitlines()]
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert [path for _, path in listing] == written
    for digest, path in listing:
        assert digest == hashlib.sha256((out / path).read_bytes()).hexdigest()
    for figure_id in FIGURE_IDS:
        assert f"{figure_id}/manifest.json" in written
