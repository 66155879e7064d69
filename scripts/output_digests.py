#!/usr/bin/env python3
"""Run ``dremkit reproduce`` for every preset into OUT/<figure id> and print
one ``sha256  relative/path`` line per file under OUT, sorted by path.

Usage:
    python scripts/output_digests.py OUT

OUT should be absent or empty, since every file under it is listed. Two
checkouts' listings differ exactly where a change moved an output byte,
manifests included.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from dremkit import cli


def digests(out: Path) -> list[str]:
    """The ``sha256  relative/path`` line of every file under ``out``, by path."""
    paths = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / p).read_bytes()).hexdigest()}  {p}" for p in paths]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory the presets are written under")
    args = parser.parse_args()
    for figure_id in cli.FIGURE_IDS:
        code = cli.main(["reproduce", figure_id, "--out", str(args.out / figure_id)])
        if code:
            return code
    print("\n".join(digests(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
