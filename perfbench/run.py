"""dremkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (``identify``, ``track`` or ``library``; see
NOTES.md) from the root of a source checkout, using the library under
``src/``. Set-up is timed over several fresh interpreters; the studies then
run as a closed loop in one more interpreter for ``--seconds`` seconds, each
checked against its oracles. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of the traced studies. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files (configs, CSVs, spans, a full result record) go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("identify", "track", "library")

# fresh interpreters timed for set-up, besides the one that runs the studies
SETUP_PROBES = 6
# a run must end within this budget, however its workers behave
DEADLINE_S = 170.0

BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = (
    ("setup_s", "s"),
    ("study_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("scenarios.simulate_plant.self_s", "s"),
    ("scenarios.build_regressor.self_s", "s"),
    ("operators.apply_channel_ct.self_s", "s"),
    ("operators.apply_channel_ct.calls", "count"),
    ("operators.extend.self_s", "s"),
    ("operators.kre_ct.self_s", "s"),
    ("operators.sliding_window_phi.self_s", "s"),
    ("mixing.mix.self_s", "s"),
    ("mixing.mix.m3.self_s", "s"),
    ("mixing.mix.m5.self_s", "s"),
    ("mixing.extend_with_feedforward.self_s", "s"),
    ("mixing.adjugate.self_s", "s"),
    ("mixing.adjugate.calls", "count"),
    ("mixing.determinant.self_s", "s"),
    ("mixing.determinant.calls", "count"),
    ("estimators.drem_ct.self_s", "s"),
    ("estimators.ct_gradient.self_s", "s"),
    ("estimators.drem_dt.self_s", "s"),
    ("estimators.dt_gradient.self_s", "s"),
    ("ftc.run_ftc.self_s", "s"),
    ("ftc.run_ftc_alert.self_s", "s"),
    ("quadrature.cumulative_simpson.self_s", "s"),
    ("quadrature.cumulative_simpson.calls", "count"),
    ("excitation.pe_check_dt.self_s", "s"),
    ("excitation.pe_check_dt.calls", "count"),
    ("excitation.counterexample_suite.self_s", "s"),
    ("signals.sample_schedule.self_s", "s"),
    ("signals.Trajectory.calls", "count"),
    ("signals.Trajectory.bytes", "bytes"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result; exit without one."""


def machine_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": BLAS_PINS,
    }


def _worker_cmd(args, *extra):
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--work", str(WORK), *extra,
    ]


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _start(cmd, env, deadline):
    """Start a worker and return (process, seconds until it printed ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
    line = proc.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - start
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"worker did not finish set-up: {' '.join(cmd)}")
    return proc, elapsed


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def setup_time(args, env, deadline):
    proc, elapsed = _start(_worker_cmd(args, "--setup-only"), env, deadline)
    try:
        proc.wait(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up probe did not exit in time") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def run_studies(args, env, deadline):
    cmd = _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc, ready_s = _start(cmd, env, deadline)
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("study loop did not finish in time") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return ready_s, json.loads(out.decode().strip().splitlines()[-1])


def end_to_end(setup_samples, record):
    times = [s["seconds"] for s in record["studies"] if not s["traced"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "study_s": statistics.median(times),
        "samples_per_s": record["samples_per_study"] * len(times) / sum(times),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def _layer_row(layers):
    """One traced study's spans, keyed by metric name; module totals and
    ``mixing.mix`` over every m are sums of the finer spans."""
    row = defaultdict(int)
    for name, rec in layers.items():
        for key in ("self_s", "calls", "bytes"):
            row[f"{name}.{key}"] += rec[key]
        if "." in name:
            row[f"{name.split('.')[0]}.self_s"] += rec["self_s"]
        if name.startswith("mixing.mix."):
            row["mixing.mix.self_s"] += rec["self_s"]
    return row


def per_layer(record):
    traced = [s for s in record["studies"] if "layers" in s]
    plain = [s["seconds"] for s in record["studies"] if not s["traced"]]
    if not traced:
        raise BenchError("no traced study finished")
    rows = [_layer_row(s["layers"]) for s in traced]
    metrics = {name: statistics.median([row[name] for row in rows]) for name, _ in PER_LAYER}
    overhead = statistics.median([s["seconds"] for s in traced]) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = overhead - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="dremkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dremkit" / "__init__.py").is_file():
        print(f"error: no dremkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, **BLAS_PINS, PYTHONHASHSEED="0")
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_time(args, env, deadline)  # untimed: fills the bytecode and file caches
        setup_samples = [setup_time(args, env, deadline) for _ in range(SETUP_PROBES)]
        ready_s, record = run_studies(args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setup_samples.append(ready_s)

    studies = record["studies"]
    failed = sum(1 for s in studies if s["failures"])
    e2e = end_to_end(setup_samples, record)
    if args.trace:
        try:
            values, units = per_layer(record), dict(PER_LAYER)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        values, units = e2e, dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_record(), **record["library"]},
        "probe_s": record["probe_s"],
        "setup_samples_s": setup_samples,
        "study_seconds": [s["seconds"] for s in studies],
        "traced": [s["traced"] for s in studies],
        "failures": [s["failures"] for s in studies],
        "fail_ratio": failed / len(studies),
        "end_to_end": e2e,
        "metrics": metrics,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1)
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"studies {len(studies)}  failed {failed}  fail_ratio {failed / len(studies):.3g}")
    print(f"machine {full['machine']}  speed probe {record['probe_s']:.4f} s (context only)")
    for i, s in enumerate(studies):
        for failure in s["failures"]:
            print(f"  study {i} failed: {failure}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(studies), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
