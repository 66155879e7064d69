"""One fresh interpreter of the benchmark: set up a workload and, unless
``--setup-only`` is given, run its closed loop of studies.

Prints ``ready`` once dremkit is imported and the workload's inputs are
built, so the parent can time set-up from process start. After the loop it
prints one JSON line with every study's wall time and oracle failures, the
peak resident memory and a machine-speed probe. With ``--trace 1`` it
alternates untraced and traced studies, so the tracing overhead comes from
one process and one stretch of time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def speed_probe(repeats=3):
    """Fixed interpreter-bound and numpy-bound work, as a machine-speed
    record beside each run (context only, never a gated metric)."""
    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        x = 0.0
        for k in range(200_000):
            x = 0.999 * x + 1e-3 * (k & 7)
        a = np.arange(1_000_000, dtype=float)
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def library_record():
    import numpy as np

    record = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    return record


def run(args):
    import workloads

    workload = workloads.Workload(args.workload, args.seed, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return None

    probe_s = speed_probe()
    workload.warm_up()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    studies = []
    at_least = 1 if tracer is None else 2  # a traced run needs one of each
    start = time.perf_counter()
    # start a study only if it is expected to end within --seconds, judged
    # by the previous one, so a run lasts --seconds and not a study more
    while len(studies) < at_least or time.perf_counter() - start + studies[-1]["seconds"] <= args.seconds:
        traced = tracer is not None and len(studies) % 2 == 1
        record = {"traced": traced}
        t0 = time.perf_counter()
        try:
            if traced:
                outcome, root = tracer.study(workload.study)
                record["layers"] = tracer.summarize(root)
            else:
                outcome = workload.study()
            record["seconds"] = time.perf_counter() - t0
            record["failures"] = workload.check(outcome)
        except Exception as exc:  # a raising study counts as failed
            record.setdefault("seconds", time.perf_counter() - t0)
            record["failures"] = [f"exception: {exc!r}"]
        # drop this study's arrays before the next one allocates its own
        outcome = None
        studies.append(record)
    if tracer is not None:
        tracer.dump(Path(args.work) / f"spans-{args.workload}-seed{args.seed}.json")
    return {
        "samples_per_study": workload.samples,
        "studies": studies,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": probe_s,
        "library": library_record(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
