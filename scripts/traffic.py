#!/usr/bin/env python3
"""Traffic census of the library: which statements of ``dremkit`` no run
reaches.

Under a line tracer limited to the ``dremkit`` package, it runs every
``reproduce`` preset and the example configs of ``output_digests.py``
(``output_digests.commands``), then one warm-up, one study and the oracle
check of each benchmark workload at seed 1 (``perfbench/workloads.py``,
imported without writing bytecode under perfbench/). It then prints one line
per function with lines of code that never ran:

    dremkit/file.py:function (line) missed k/n: [lines]

``line`` is the function's first line, n counts the lines that hold its code
and k those that never ran. A comprehension counts toward the function it
appears in; a lambda or a nested function is a function of its own.

Usage:
    PYTHONPATH=src python3 scripts/traffic.py

It needs Python 3.11 or later, for the qualified names of code objects.
"""

import contextlib
import importlib
import inspect
import io
import runpy
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

import dremkit
from dremkit import cli

ROOT = Path(__file__).resolve().parents[1]
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def code_lines(path: Path) -> tuple[dict, dict]:
    """The functions of the module at ``path``, keyed by (file name,
    qualified name, first line): a map from every code object that runs
    lines of a function to that function, and from each function to its
    lines of code. The first line, a ``def`` or its first decorator, holds
    code only when the body is on it too."""
    owner, lines = {}, defaultdict(set)

    def walk(code, function):
        for inner in code.co_consts:
            if not isinstance(inner, types.CodeType):
                continue
            key = (inner.co_filename, inner.co_qualname, inner.co_firstlineno)
            if not inner.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(inner, None)
                continue
            target = function if inner.co_name in COMPREHENSIONS else key
            if target is None:  # a comprehension run at import, before any census
                continue
            body = {line for _, _, line in inner.co_lines() if line}
            if target == key and len(body) > 1:
                body.discard(inner.co_firstlineno)
            owner[key] = target
            lines[target] |= body
            walk(inner, target)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None)
    return owner, lines


def census(package: Path, run) -> list[str]:
    """Call ``run()`` under a line tracer limited to the modules of the
    package directory ``package``, and return the report line of every
    function there with lines that never ran, by file and line."""
    owner, lines = {}, {}
    for path in sorted(package.glob("*.py")):
        owned, coded = code_lines(path)
        owner.update(owned)
        lines.update(coded)
    hits = defaultdict(set)

    def trace(frame, event, arg):
        code = frame.f_code
        function = owner.get((code.co_filename, code.co_qualname, code.co_firstlineno))
        if function is None:
            return None
        seen = hits[function]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    report = []
    for function in sorted(lines, key=lambda f: (f[0], f[2])):
        missed = sorted(lines[function] - hits[function])
        if missed:
            filename, name, first = function
            path = Path(filename).relative_to(package.parent).as_posix()
            count = f"{len(missed)}/{len(lines[function])}"
            report.append(f"{path}:{name} ({first}) missed {count}: {missed}")
    return report


def run_everything(work: Path) -> None:
    """The presets, the example configs and the benchmark workloads, each
    writing under ``work``; SystemExit when one fails."""
    commands = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))["commands"]
    for argv in commands(work / "runs"):
        with contextlib.redirect_stdout(io.StringIO()):  # check-pe prints its report
            if cli.main(argv):
                raise SystemExit(f"dremkit {' '.join(argv)} failed")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        workload = workloads.Workload(name, 1, work / name)
        workload.warm_up()
        failures = workload.check(workload.study())
        if failures:
            raise SystemExit(f"workload {name}: oracle failures {failures}")


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        report = census(Path(dremkit.__file__).parent, lambda: run_everything(Path(work)))
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
