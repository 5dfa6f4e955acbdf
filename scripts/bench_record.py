#!/usr/bin/env python3
"""Record one BENCH file: an untraced perfbench run of every workload.

Runs ``perfbench/run.py --trace 0`` on each workload that BENCHMARK.json
lists, one at a time, for the run length it sets and at the benchmark's
default seed.  Writes the end-to-end metrics to a JSON file together with the
CPU count, the Python and numpy versions, the ``HEAD`` commit and a ``dirty``
flag that is true when ``git status --porcelain`` lists any change, so a run
from an uncommitted tree is not mistaken for a run of its parent commit.

    python3 scripts/bench_record.py --out BENCH_6.json

Exits 1 if a workload's run fails or reads ``correct: false``; the file is
written either way.  Numbers from different hosts are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = ROOT / "BENCHMARK.json"


def git(*args: str) -> Optional[str]:
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def run_workload(workload: str, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    summary = json.loads(lines[-1])
    summary["metrics"] = {name: m["value"] for name, m in summary["metrics"].items()}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH file to write, e.g. BENCH_6.json")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    record = {
        "head": head.strip() if head else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        record["workloads"][workload] = run_workload(workload, spec["run_seconds"])
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
