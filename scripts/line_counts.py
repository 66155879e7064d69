#!/usr/bin/env python3
"""Print the line counts of the Python files under DIR: all lines, and code
lines, the lines that hold a token other than a comment and are not part of
a docstring (a string that opens a module, class or function body, found by
``ast``). Blank lines, comment-only lines and docstring lines are not code.

Usage:
    python scripts/line_counts.py DIR

Prints ``all code`` for every file, by path relative to DIR, then ``all
code total``.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's ``source``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    root = parser.parse_args(argv).dir
    totals = [0, 0]
    for path in sorted(root.rglob("*.py")):
        counts = line_counts(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(*counts, path.relative_to(root).as_posix())
    print(*totals, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
