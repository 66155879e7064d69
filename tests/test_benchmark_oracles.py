"""The benchmark's own oracles, run in process on one seeded study of each
workload, so a change that breaks what ``perfbench/workloads.py`` reads of
the library fails here too."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["identify", "track", "library"])
def test_workload_oracles_pass(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    workloads = importlib.import_module("workloads")
    workload = workloads.Workload(name, 1, tmp_path)
    workload.warm_up()
    assert workload.check(workload.study()) == []
