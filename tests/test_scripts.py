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


COUNTER = SCRIPT.with_name("line_counts.py")
# 16 lines, 8 of them code: 4, 5, 9 and 12-16. A string that is not a
# docstring counts on every line it spans, as does a continued expression.
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment
x = 1
# a comment line


def f():
    """Function docstring."""

    s = """not a
    docstring"""
    return s
y = (1,
     2)
'''


def test_line_counts_known_answer(tmp_path, monkeypatch, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("z = 2\n\n")
    monkeypatch.setattr(sys, "argv", [COUNTER.name, str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(COUNTER), run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.splitlines() == ["2 1 b.py", "16 8 pkg/a.py", "18 9 total"]
