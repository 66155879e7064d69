#!/usr/bin/env python3
"""Record the benchmark of a change against its parent commit.

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``) in
two source checkouts, the parent and the change, in alternating pairs: pair
i runs the parent first when i is even and the change first when it is odd,
so a slow stretch of the host hits both sides. Each pair uses one seed and
runs every workload untraced (``--trace 0``, the end-to-end metrics) and
traced (``--trace 1``, the per-layer self times), for ``run_seconds`` of
``BENCHMARK.json``.

The record goes to ``BENCH_<pr>.json``: the machine, Python and numpy
versions, the seeds and run length, the median, q1 and q3 of every metric
on both sides, and the per-pair runs. It always runs ``PAIRS`` = 10 pairs,
the fewest from which a gain may be claimed, so every record can back one.
The record is then compared twice, and every end-to-end metric gets one verdict:

- ``flagged``: its median is worse by more than its ``BENCHMARK.json`` bound
  (a failed study is always flagged);
- ``unresolved``: the earlier side's own quartile spread, (q3 - q1) / median,
  is wider than the bound, so the medians cannot show that the metric is
  unchanged, and not every run of the later side reads better than every
  run of the earlier side;
- ``ok`` otherwise.

The two comparisons are:

- the change against the parent, from this record's own pairs;
- the change against the change side of the newest earlier ``BENCH_*.json``
  (recorded at another time, maybe in another host state: read it with the
  machine records side by side).

Usage, from the root of the change's checkout:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/bench_record.py --pr N --parent ../parent

Exits 1 when a metric is flagged or unresolved against the parent.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 11  # pair i runs seed FIRST_SEED + i on both sides


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": list(values)}


def pair_order(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def worse_by(before: float, after: float, better: str) -> float:
    """Relative change of ``after`` against ``before``, positive when worse."""
    change = (after - before) / abs(before) if before else 0.0
    return change if better == "lower" else -change


def all_runs_better(before: list[float], after: list[float], better: str) -> bool:
    """Whether every run in ``after`` reads better than every run in ``before``."""
    return max(after) < min(before) if better == "lower" else min(after) > max(before)


def spread(metric: dict) -> float:
    """Quartile spread of one side's runs, relative to its median."""
    return (metric["q3"] - metric["q1"]) / abs(metric["median"]) if metric["median"] else 0.0


def compare(before: dict, after: dict, spec: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric present on both sides.

    ``before`` and ``after`` map workload -> {"end_to_end": {metric:
    {"median", "q1", "q3", "runs"}}, "failed": n}, as ``side_summary``
    writes them; ``spec`` is the ``end_to_end`` list of ``BENCHMARK.json``.
    Each row carries a ``verdict`` (see the module docstring); a workload
    with failed studies after the change gets a ``failed`` row, always
    flagged.
    """
    rows = []
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload]["end_to_end"], after[workload]["end_to_end"]
        for metric in spec:
            name = metric["name"]
            if name not in old or name not in new:
                continue
            a, b = old[name]["median"], new[name]["median"]
            worse = worse_by(a, b, metric["better"])
            width = spread(old[name])
            if worse > metric["bound"]:
                verdict = "flagged"
            elif width > metric["bound"] and not all_runs_better(old[name]["runs"], new[name]["runs"], metric["better"]):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "before": a, "after": b, "worse_by": worse,
                "spread": width, "bound": metric["bound"], "verdict": verdict,
            })
        if after[workload].get("failed", 0):
            rows.append({
                "workload": workload, "metric": "failed", "before": before[workload].get("failed", 0),
                "after": after[workload]["failed"], "worse_by": None, "spread": None, "bound": 0,
                "verdict": "flagged",
            })
    return rows


def previous_record(directory: Path, pr: int) -> Path | None:
    """The ``BENCH_<n>.json`` in ``directory`` with the largest n below ``pr``."""
    found = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < pr:
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its result line plus the full record."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if args[0] in ("python", "python3"):
        args[0] = sys.executable
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    full = checkout / ".perfbench_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["machine"] = json.loads(full.read_text())["machine"] if full.is_file() else {}
    return result


def side_summary(runs: list[dict], traced: list[dict]) -> dict:
    def metric_table(results):
        names = results[0]["metrics"] if results else {}
        return {
            name: {"unit": results[0]["metrics"][name]["unit"],
                   **summary([r["metrics"][name]["value"] for r in results])}
            for name in names
        }

    return {
        "end_to_end": metric_table(runs),
        "per_layer": metric_table(traced),
        "attempted": sum(r["attempted"] for r in runs + traced),
        "failed": sum(r["failed"] for r in runs + traced),
    }


def print_rows(title: str, rows: list[dict]) -> None:
    print(title)
    for r in rows:
        mark = {"ok": "ok", "flagged": "FLAG", "unresolved": "UNRESOLVED"}[r["verdict"]]
        worse = "" if r["worse_by"] is None else (
            f"  worse by {r['worse_by']:+.1%}, spread {r['spread']:.1%} (bound {r['bound']:.0%})"
        )
        print(f"  {mark:10s} {r['workload']:9s} {r['metric']:14s} {r['before']:.6g} -> {r['after']:.6g}{worse}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True, help="number for the BENCH_<pr>.json name")
    parser.add_argument("--parent", type=Path, required=True, help="source checkout of the parent commit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}

    results = {w: {s: {0: [], 1: []} for s in SIDES} for w in workloads}
    machine = {}
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            for trace in (0, 1):
                for side in pair_order(pair):
                    start = time.monotonic()
                    r = run_once(checkouts[side], bench["command"], workload, seed, seconds, trace)
                    results[workload][side][trace].append(r)
                    machine = machine or r["machine"]
                    print(f"{workload} pair {pair} seed {seed} trace {trace} {side}: failed {r['failed']}"
                          f"/{r['attempted']} ({time.monotonic() - start:.0f} s)", flush=True)

    record = {
        "pr": args.pr,
        "command": bench["command"],
        "seconds": seconds,
        "seeds": seeds,
        "order": "pair i runs the parent first when i is even, the change first when it is odd",
        "machine": {**machine, "platform": platform.platform()},
        "workloads": {
            w: {s: side_summary(results[w][s][0], results[w][s][1]) for s in SIDES} for w in workloads
        },
    }
    parent = {w: v["parent"] for w, v in record["workloads"].items()}
    change = {w: v["change"] for w, v in record["workloads"].items()}
    record["vs_parent"] = compare(parent, change, bench["end_to_end"])
    earlier = previous_record(ROOT, args.pr)
    if earlier is not None:
        old = json.loads(earlier.read_text())
        record["vs_previous"] = {
            "file": earlier.name,
            "machine": old.get("machine", {}),
            "rows": compare({w: v["change"] for w, v in old["workloads"].items()}, change, bench["end_to_end"]),
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"wrote {out}")
    print_rows("change against parent (medians):", record["vs_parent"])
    if earlier is not None:
        print_rows(f"change against {earlier.name} (medians):", record["vs_previous"]["rows"])
    else:
        print("no earlier BENCH_*.json to compare with")
    return 1 if any(r["verdict"] != "ok" for r in record["vs_parent"]) else 0


if __name__ == "__main__":
    sys.exit(main())
