"""Runs of the tooling scripts, on the live tree or on known inputs."""

import hashlib
import importlib
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


TRAFFIC = SCRIPT.with_name("traffic.py")
# Lines of code: used 6-8, unused 11 (its body is on its def line), the
# method 18-23 with its generator expression, and the lambda 20 on its own.
# The docstrings and the class body's comprehension, run at import, are not
# counted.
SAMPLE = '''"""A module the census runs."""


def used(x):
    """Docstring lines are not code."""
    if x > 0:
        return [i for i in range(x)]
    return None


def unused(): return 1


class Box:
    size = len([k for k in range(2)])

    def method(self, flag):
        values = (v
                  for v in range(3))
        scale = lambda v: 2 * v  # noqa: E731
        if flag:
            return sum(values)
        raise ValueError(scale)
'''


def test_traffic_census_known_answer(tmp_path, monkeypatch):
    (tmp_path / "census_sample").mkdir()
    (tmp_path / "census_sample" / "mod.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("census_sample.mod")
    census = runpy.run_path(str(TRAFFIC))["census"]
    report = census(tmp_path / "census_sample", lambda: (module.used(2), module.Box().method(True)))
    assert report == [
        "census_sample/mod.py:used (4) missed 1/3: [8]",
        "census_sample/mod.py:unused (11) missed 1/1: [11]",
        "census_sample/mod.py:Box.method (17) missed 1/6: [23]",
        "census_sample/mod.py:Box.method.<locals>.<lambda> (20) missed 1/1: [20]",
    ]
