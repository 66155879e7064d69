#!/usr/bin/env python3
"""Run ``dremkit reproduce`` for every preset into OUT/<figure id>, and the
example configs (``simulate`` on examples/tracking-pe.json and on
examples/custom-n2.json, whose bank has a two-state channel, ``check-pe
--out`` on examples/counterexample.json and on examples/sincos.json, the CT
excitation report) into OUT/<file stem>, then print
one ``sha256  relative/path`` line per file under OUT, sorted by path.

Usage:
    python scripts/output_digests.py OUT

OUT should be absent or empty, since every file under it is listed. Two
checkouts' listings differ exactly where a change moved an output byte,
manifests included. The example configs are read from this script's
checkout, so running it against another library (PYTHONPATH) runs the same
configs.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from dremkit import cli

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
# (command, example config) pairs; each writes into OUT/<config stem>
EXAMPLE_RUNS = (
    ("simulate", "tracking-pe.json"),
    ("simulate", "custom-n2.json"),
    ("check-pe", "counterexample.json"),
    ("check-pe", "sincos.json"),
)


def digests(out: Path) -> list[str]:
    """The ``sha256  relative/path`` line of every file under ``out``, by path."""
    paths = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / p).read_bytes()).hexdigest()}  {p}" for p in paths]


def commands(out: Path) -> list[list[str]]:
    """The ``dremkit`` argument list of every run written under ``out``."""
    runs = [["reproduce", figure_id, "--out", str(out / figure_id)] for figure_id in cli.FIGURE_IDS]
    for command, name in EXAMPLE_RUNS:
        config = EXAMPLES / name
        runs.append([command, "--config", str(config), "--out", str(out / config.stem)])
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory the runs are written under")
    args = parser.parse_args()
    for argv in commands(args.out):
        # check-pe also prints the report it writes; only the listing goes to stdout
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            return code
    print("\n".join(digests(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
