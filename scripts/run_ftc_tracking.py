#!/usr/bin/env python3
"""Run the time-varying-parameter tracking study (scalar regression
y = Delta * theta with a jump and a ramp) and emit CSVs plus a summary of
how each estimator handles the parameter changes.

Usage:
    python scripts/run_ftc_tracking.py --delta pe --out results/tracking
"""

import argparse
from pathlib import Path

import numpy as np

from dremkit.cli import OutputWriter, write_result
from dremkit.scenarios import run_ftc_scenario
from dremkit.signals import DEFAULT_CT_STEP


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", choices=["pe", "nonpe", "both"], default="both")
    parser.add_argument("--out", default="results/tracking")
    parser.add_argument("--horizon", type=float, default=40.0)
    parser.add_argument("--step", type=float, default=DEFAULT_CT_STEP)
    args = parser.parse_args()

    kinds = ["pe", "nonpe"] if args.delta == "both" else [args.delta]
    for kind in kinds:
        result = run_ftc_scenario(kind, horizon=args.horizon, step=args.step)
        out = Path(args.out) / kind
        writer = OutputWriter(out)
        write_result(writer, result)
        writer.manifest({"delta_kind": kind, "horizon": args.horizon, "step": args.step})

        t = result.grid.times()
        print(f"== delta: {kind} ==")
        print(f"  activation times: plain {result.ftc_runs['ftc'].t_c},"
              f" windowed {result.ftc_runs['ftc_d'].t_c}")
        for name, run in result.runs.items():
            err = np.abs(run.theta_tilde.values[:, 0])
            seg = lambda a, b: err[(t >= a) & (t <= b)].max() if ((t >= a) & (t <= b)).any() else float("nan")
            print(
                f"  {name:10s} sup|error|: [1,3]={seg(1.0,3.0):.4f} "
                f"[11,19]={seg(11.0,19.0):.4f} [21,29]={seg(21.0,29.0):.4f}"
            )
        print(f"  wrote {out}")


if __name__ == "__main__":
    main()
