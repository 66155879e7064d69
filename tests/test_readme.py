"""README's Python blocks run as written, so a renamed or deleted public name
fails here rather than leaving the docs broken."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_python_blocks_run_and_write_nothing(tmp_path, monkeypatch, capsys):
    blocks = python_blocks()
    # the library quick tour, then the studies as library calls
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # the quick tour prints its final estimate
    assert not list(tmp_path.iterdir())
