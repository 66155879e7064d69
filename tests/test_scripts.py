"""Runs of the output-digest tool."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from dremkit.cli import FIGURE_IDS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def test_output_digests(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [SCRIPT.name, str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_info.value.code == 0
    listing = [line.split("  ", 1) for line in capsys.readouterr().out.splitlines()]
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert [path for _, path in listing] == written
    for digest, path in listing:
        assert digest == hashlib.sha256((out / path).read_bytes()).hexdigest()
    for run in (*FIGURE_IDS, "tracking-pe", "custom-n2", "counterexample", "sincos"):
        assert f"{run}/manifest.json" in written
