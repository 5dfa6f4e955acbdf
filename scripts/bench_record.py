#!/usr/bin/env python3
"""Record one BENCH file: an untraced and a traced perfbench run of every workload.

Runs ``perfbench/run.py --trace 0`` on each workload that BENCHMARK.json
lists, one at a time, for the run length it sets and at the benchmark's
default seed, then ``--trace 1`` on each workload the same way; the traced
runs' per-layer metrics and the wrapped names no sweep called
(``uncalled_layers``, read from perfbench's result file) go under ``traced``.
Every run, traced or not, also carries ``reference_s``: perfbench's median
time of its fixed reference kernel on this host during that run (its result
file's ``raw_medians_s.reference_s``).
Then times the default ``ddrbench run`` of each task (all models, 21 grid
points, 5 replicates, seed 0) ``SWEEP_RUNS`` times at each of
``DDRBENCH_THREADS`` = 1 and 2, alternating the thread counts and swapping
which goes first in every round, so a slow phase of the host does not fall
on one count only.  Each sweep runs in a fresh interpreter with BLAS pinned
to one thread as perfbench pins it; its wall time includes interpreter
start-up and imports.  Every run's time is recorded together with their
median.  Writes
the end-to-end metrics and these timings to a JSON file together with the
CPU count, the Python and numpy versions, the OpenBLAS kernel (``blas_core``,
e.g. ``SkylakeX``, or ``unknown`` when numpy's BLAS does not report one; the
digests perfbench checks hold on one kernel only), the ``HEAD`` commit and a
``dirty`` flag that is true when ``git status --porcelain`` lists any change,
so a run from an uncommitted tree is not mistaken for a run of its parent
commit.

    python3 scripts/bench_record.py --out BENCH_9.json

Exits 1 if a workload's run, traced or not, fails or reads
``correct: false``, or a default sweep exits non-zero; the file is written
either way.  The end-to-end metrics are already scaled to a reference host,
but the traced per-layer times are not: divide each by its run's
``reference_s`` before comparing it with another BENCH file's, so the
comparison measures the code and not the host's speed or load.  The default
sweeps' wall times have no such reference and do not compare across hosts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
# perfbench writes each run's full record here; see perfbench/NOTES.md.
RESULTS = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TASKS = ("regression", "classification")
SWEEP_THREADS = (1, 2)
# Default sweeps per (task, thread count); one run could not tell 1 thread from 2.
SWEEP_RUNS = 3


def git(*args: str) -> Optional[str]:
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def blas_core() -> str:
    """The kernel the OpenBLAS that numpy loaded chose for this CPU, or "unknown"."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            try:
                corename = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def run_workload(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    summary = json.loads(lines[-1])
    summary["metrics"] = {name: m["value"] for name, m in summary["metrics"].items()}
    # run.py runs at its default seed 0 here.
    result = json.loads(
        (RESULTS / workload / f"result-seed0-trace{trace}.json").read_text(encoding="utf-8")
    )
    summary["reference_s"] = result["raw_medians_s"]["reference_s"]
    if trace:
        summary["uncalled_layers"] = result["uncalled_layers"]
    return summary


def time_default_sweep(task: str, threads: int) -> dict:
    """Wall time and exit code of one default ``ddrbench run`` of one task."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, DDRBENCH_THREADS=str(threads), PYTHONPATH=path, **BLAS_ENV)
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "ddrbench.cli", "run", "--task", task, "--out", out]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        wall_s = time.perf_counter() - start
    return {"wall_s": round(wall_s, 3), "exit": proc.returncode}


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
        "blas_core": blas_core(),
        "seconds": spec["run_seconds"],
        "workloads": {},
        "traced": {},
        "default_sweeps": {},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "workloads"), (1, "traced")):
        for workload in workloads:
            print(f"running {workload}, trace {trace} ...", file=sys.stderr, flush=True)
            record[key][workload] = run_workload(workload, spec["run_seconds"], trace)
    for task in TASKS:
        runs = {threads: [] for threads in SWEEP_THREADS}
        for i in range(SWEEP_RUNS):
            for threads in SWEEP_THREADS[:: 1 if i % 2 == 0 else -1]:
                print(f"timing default {task} sweep {i + 1}/{SWEEP_RUNS}, {threads} "
                      "thread(s) ...", file=sys.stderr, flush=True)
                runs[threads].append(time_default_sweep(task, threads))
        record["default_sweeps"][task] = {
            f"threads_{threads}": {
                "runs": timed,
                "median_wall_s": statistics.median(t["wall_s"] for t in timed),
            }
            for threads, timed in runs.items()
        }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(json.dumps(record, indent=2, sort_keys=True))
    sweeps = [
        t for by_threads in record["default_sweeps"].values()
        for timed in by_threads.values() for t in timed["runs"]
    ]
    runs = [*record["workloads"].values(), *record["traced"].values()]
    ok = all(w["correct"] for w in runs)
    return 0 if ok and all(t["exit"] == 0 for t in sweeps) else 1


if __name__ == "__main__":
    sys.exit(main())
