"""External tracer for the traced benchmark runs.

The library has no spans of its own, so the tracer rebinds every public
function of the nine dremkit modules, at every namespace that binds it, to
a wrapper that records a span: name, start, end and parent. A function that
other modules import by name (``extend`` is bound in ``operators``,
``scenarios`` and the package) is wrapped once and rebound everywhere;
functions resolved at call time (``extend_with_feedforward`` imports
``operators.extend`` inside its body) then find the wrapper too. Classes are
left alone, except that ``Trajectory`` constructions are counted, with the
bytes copied into their frozen arrays, as spans of their own.

Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = (
    "signals",
    "scenarios",
    "operators",
    "mixing",
    "estimators",
    "ftc",
    "quadrature",
    "excitation",
    "cli",
)

def _mix_variant(args, kwargs):
    """``mix`` spans also carry the mixing dimension m, since the adjugate
    takes a different branch per m."""
    phi = kwargs.get("Phi", args[1] if len(args) > 1 else None)
    return f"m{phi.values.shape[1]}"


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[0]))


VARIANTS = {"mixing.mix": _mix_variant}
BYTES = {"cli.write_csv": _csv_bytes}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, bytes]
        self.stack = []
        self.modules = {name: importlib.import_module(f"dremkit.{name}") for name in LAYERS}
        self.namespaces = [importlib.import_module("dremkit"), *self.modules.values()]
        self.wrappers = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    self.wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        self.trajectory = self.modules["signals"].Trajectory
        self.post_init = self.trajectory.__post_init__
        self.rebound = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx, start, nbytes=0):
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[idx]
        span[1], span[2], span[4] = start, end, nbytes

    def _wrap(self, fn, name):
        variant = VARIANTS.get(name)
        nbytes = BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if variant is None else f"{name}.{variant(args, kwargs)}")
            start = time.perf_counter()
            size = 0
            try:
                result = fn(*args, **kwargs)
                if nbytes is not None:
                    size = nbytes(args, kwargs, result)
                return result
            finally:
                self._close(idx, start, size)

        return traced

    def install(self):
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    setattr(ns, attr, self.wrappers[obj])
                    self.rebound.append((ns, attr, obj))
        tracer, post_init = self, self.post_init

        def counted_post_init(traj):
            idx = tracer._open("signals.Trajectory")
            start = time.perf_counter()
            try:
                post_init(traj)
            finally:
                tracer._close(idx, start, getattr(traj.values, "nbytes", 0))

        self.trajectory.__post_init__ = counted_post_init

    def uninstall(self):
        self.trajectory.__post_init__ = self.post_init
        while self.rebound:
            ns, attr, obj = self.rebound.pop()
            setattr(ns, attr, obj)

    def study(self, fn):
        """Run ``fn`` traced under one root span; returns (result, root)."""
        self.install()
        try:
            root = self._open("study")
            start = time.perf_counter()
            try:
                result = fn()
            finally:
                self._close(root, start)
        finally:
            self.uninstall()
        return result, root

    def summarize(self, root):
        """Per-name self time (span minus child spans), calls and bytes for
        the study rooted at span ``root``."""
        spans = self.spans
        child_time = defaultdict(float)
        members = [root]
        inside = {root}
        for idx in range(root + 1, len(spans)):
            parent = spans[idx][3]
            if parent not in inside:
                break
            inside.add(idx)
            members.append(idx)
            child_time[parent] += spans[idx][2] - spans[idx][1]
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "bytes": 0})
        for idx in members:
            name, start, end, _, nbytes = spans[idx]
            rec = out[name]
            rec["self_s"] += (end - start) - child_time[idx]
            rec["calls"] += 1
            rec["bytes"] += nbytes
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "bytes"], "spans": self.spans},
                fh,
            )
