#!/usr/bin/env python3
"""Run the full nine-model benchmark at default settings and render all outputs.

Produces, under the chosen output directory:
  regression/ and classification/ with per-model curve CSVs and report JSONs,
  one accuracy-DDR plot per model, and per-task AUC summary tables + bar charts.

About 11 s on 2 CPUs at the defaults (n=1000, d=10, 21 grid points, 5
replicates); pass --quick for a coarse smoke-scale sweep.
"""

import argparse
import sys
from pathlib import Path

from ddrbench.cli import main as cli


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory root")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--quick", action="store_true", help="coarse grid, 1 replicate")
    args = parser.parse_args(argv)

    sizing = ["--grid", "5", "--replicates", "1", "--samples", "300"] if args.quick else []
    worst = 0
    for task in ("regression", "classification"):
        out = Path(args.out) / task
        code = cli(
            ["run", "--task", task, "--models", "all", "--seed", str(args.seed),
             "--out", str(out)] + sizing
        )
        worst = max(worst, code)
        if code == 1:
            return 1
        for curve in sorted(out.glob("*_curve.csv")):
            cli(["plot", "--curves", str(curve),
                 "--out", str(curve.with_name(curve.stem + ".svg"))])
        reports = sorted(str(p) for p in out.glob("*_report.json"))
        if reports:
            cli(["summary", "--reports", *reports, "--out", str(out / "summary.csv")])
            print(f"{task}: wrote {out}/summary.csv and plots")
    return worst


if __name__ == "__main__":
    sys.exit(run())
