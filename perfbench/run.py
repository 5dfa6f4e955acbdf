#!/usr/bin/env python3
"""DDR-sweep benchmark for ddrbench.

Runs one workload as ``ddrbench run`` sweeps, each in a fresh child
interpreter, one after another (a closed loop with a single client), until
about ``--seconds`` have passed and at least three sweeps are done, or a
170 s cap comes first.  It checks every sweep's outputs and prints each
metric with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload regression --seed 0 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced sweeps.
``--trace 1`` alternates traced and untraced sweeps and reports the per-layer
metrics.  ``--pin`` re-derives the pinned output digests from serial sweeps at
the default seed.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SWEEPS = 3
SETUPS_PER_ROUND = 4
# The end-to-end timings are scaled to a host on which child.reference_s()
# takes this long; see NOTES.md.
REFERENCE_S = 0.15
# A run must exit within 180 s, so no child outlives this cap.
DEADLINE_S = 170.0

# name -> (ddrbench run arguments, DDRBENCH_THREADS); n_features = 10 and the
# default burn-in / thinning throughout.  NOTES.md gives the reason for each.
WORKLOADS = {
    "regression": (
        ["--task", "regression", "--models", "all", "--samples", "1000",
         "--replicates", "5", "--grid", "6"],
        1,
    ),
    "classification": (
        ["--task", "classification", "--models", "all", "--samples", "1000",
         "--replicates", "5", "--grid", "5"],
        1,
    ),
    "knn_wide_t2": (
        ["--task", "regression", "--models", "knnr", "--samples", "4000",
         "--replicates", "1", "--grid", "6"],
        2,
    ),
}

class BenchError(Exception):
    """A child failed to produce measurements; the run reports no result."""


class ChildTimeout(BenchError):
    """A child was stopped at the run's deadline."""


def run_argv(workload: str, seed: int, out_dir: Path) -> list:
    args, _ = WORKLOADS[workload]
    return ["run", *args, "--features", "10", "--seed", str(seed), "--out", str(out_dir)]


def child(request: dict, threads: int, deadline: float) -> dict:
    env = dict(os.environ, DDRBENCH_THREADS=str(threads), **BLAS_ENV)
    request = dict(request, src=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(request)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildTimeout(f"child stopped after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Output checks


def digest_dir(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def check_sweep(out_dir: Path, workload: str, seed: int, cells: int, pinned: dict):
    """Return (failed cells, problems, digests) for one sweep's output directory.

    Incomplete cells count as failed one by one; any other problem fails
    every cell of the sweep.
    """
    broken, incomplete = [], []
    digests = digest_dir(out_dir)
    reports = {
        name[: -len("_report.json")]: json.loads((out_dir / name).read_text(encoding="utf-8"))
        for name in digests
        if name.endswith("_report.json")
    }
    # An incomplete report is written without its curve CSV and without AUCs.
    partial = {model for model, report in reports.items() if report["incomplete_cells"]}
    expected = {n for n in pinned if n.endswith("_report.json") or n.split("_")[0] not in partial}
    if set(digests) != expected:
        broken.append(f"output files {sorted(digests)} != {sorted(expected)}")
    if seed == DEFAULT_SEED:
        broken += [
            f"{name} digest differs from the pinned one"
            for name in sorted(set(digests) & set(pinned))
            if digests[name] != pinned[name]
        ]
    args = WORKLOADS[workload][0]
    grid = int(args[args.index("--grid") + 1])
    for model, report in sorted(reports.items()):
        incomplete += report["incomplete_cells"]
        if report["master_seed"] != seed:
            broken.append(f"{model}: master_seed {report['master_seed']} != {seed}")
        if model in partial:
            continue
        for key in ("auc_train", "auc_test"):
            if not (isinstance(report[key], float) and 0.0 <= report[key] <= 1.0):
                broken.append(f"{model}: {key} = {report[key]!r} is not in [0, 1]")
    for name in sorted(n for n in digests if n.endswith("_curve.csv")):
        rows = (out_dir / name).read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != grid:
            broken.append(f"{name}: {len(rows)} curve rows for {grid} grid points")
    failed = cells if broken else len(incomplete)
    return failed, broken + [f"incomplete cell: {c}" for c in incomplete], digests


# ---------------------------------------------------------------------------
# Machine record


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str:
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(versions: dict, threads: int) -> dict:
    model = next(
        (line.split(":", 1)[1].strip()
         for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l3_cache": _read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")) or "unknown",
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "blas": versions.get("blas"),
        "blas_threads": BLAS_ENV,
        "ddrbench_threads": threads,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# The measured run


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _, threads = WORKLOADS[workload]
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    work = WORK / workload
    out_dir = work / "sweep"
    work.mkdir(parents=True, exist_ok=True)
    argv = run_argv(workload, seed, out_dir)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    # Host speed drifts over seconds to minutes, so set-up samples (each with
    # a reference sample) are spread over the whole run, a few before each
    # sweep, instead of taken in one burst.  A new round starts only if it is
    # expected to end by about --seconds, and never if it would run into the
    # deadline.  A sweep still running at the deadline is stopped and counts
    # all its cells as failed; its record keeps the time it ran, but the
    # timings come from finished sweeps only.
    setups, sweeps, rounds = [], [], []
    while len(sweeps) < MIN_SWEEPS or (
        time.monotonic() - start + statistics.median(rounds) / 2 < seconds
    ):
        if rounds and time.monotonic() + 1.5 * statistics.median(rounds) > deadline:
            break
        round_start = time.monotonic()
        for _ in range(SETUPS_PER_ROUND):
            setups.append(child({"argv": argv, "mode": "setup"}, threads, deadline))
        reference = statistics.median(s["reference_s"] for s in setups[-SETUPS_PER_ROUND:])
        traced = trace and len(sweeps) % 2 == 0
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = work / f"spans-seed{seed}-{len(sweeps)}.jsonl" if traced else None
        request = {"argv": argv, "mode": "sweep", "spans": str(spans) if spans else None}
        sweep_start = time.monotonic()
        try:
            result = child(request, threads, deadline)
        except ChildTimeout as exc:
            cells = setups[-1]["cells"]
            sweeps.append({"traced": traced, "timed_out": True, "setup_s": None,
                           "sweep_s": time.monotonic() - sweep_start, "cpu_s": None,
                           "peak_rss_mb": None, "reference_s": reference, "cells": cells,
                           "failed": cells, "problems": [str(exc)]})
            break
        result.update(traced=traced, timed_out=False, reference_s=reference)
        result["failed"], result["problems"], result["digests"] = check_sweep(
            out_dir, workload, seed, result["cells"], pinned
        )
        if result["exit_code"] != 0:
            result["problems"].append(f"ddrbench run exited {result['exit_code']}")
        if sweeps and result["digests"] != sweeps[0]["digests"]:
            result["problems"].append("outputs differ from the first sweep of this run")
            result["failed"] = result["cells"]
        sweeps.append(result)
        rounds.append(time.monotonic() - round_start)
    shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(s["cells"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    finished = [s for s in sweeps if not s["timed_out"]]
    plain = [s for s in finished if not s["traced"]]
    traced_sweeps = [s for s in finished if s["traced"]]
    if not plain or (trace and not traced_sweeps):
        raise BenchError(f"too few sweeps finished within {DEADLINE_S:.0f} s: "
                         f"{[s['sweep_s'] for s in sweeps]}")
    median = statistics.median
    raw = {
        "reference_s": median(s["reference_s"] for s in setups),
        "sweep_s": median(s["sweep_s"] for s in plain),
        "setup_s": median(s["setup_s"] for s in setups),
    }
    if trace:
        names = traced_sweeps[0]["layers"].keys()
        values = {n: median(s["layers"][n] for s in traced_sweeps) for n in names}
        values.update({
            "harness.cells": median(s["cells"] for s in traced_sweeps),
            "harness.failed_cells": median(s["failed"] for s in traced_sweeps),
            "harness.persist_bytes": median(s["persist_bytes"] for s in traced_sweeps),
            "harness.cpu_s": median(s["cpu_s"] for s in traced_sweeps),
            "harness.cpu_util": median(s["cpu_s"] / s["sweep_s"] for s in traced_sweeps),
            "trace.overhead_ratio": median(s["sweep_s"] for s in traced_sweeps)
            / median(s["sweep_s"] for s in plain) - 1.0,
        })
        uncalled = traced_sweeps[0]["uncalled"]
    else:
        # Each sweep is scaled by its round's reference, each set-up sample by
        # the reference timed in the same child; see NOTES.md.
        values = {
            "sweep_s": median(s["sweep_s"] * REFERENCE_S / s["reference_s"] for s in plain),
            "cells_per_s": median(
                s["cells"] / s["sweep_s"] * s["reference_s"] / REFERENCE_S for s in plain
            ),
            "setup_s": median(s["setup_s"] * REFERENCE_S / s["reference_s"] for s in setups),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in finished),
            "ok_cell_ratio": (attempted - failed) / attempted,
        }
        uncalled = None
    # BENCHMARK.json names every reported metric and its unit.
    spec = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(setups[0], threads),
        "sweeps": [
            {k: s[k] for k in ("traced", "timed_out", "setup_s", "sweep_s", "cpu_s",
                               "peak_rss_mb", "reference_s", "cells", "failed", "problems")}
            for s in sweeps
        ],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "reference_samples_s": [s["reference_s"] for s in setups],
        "raw_medians_s": raw,
        "uncalled_layers": uncalled,
        "summary": {
            # A stopped sweep left no outputs to check; its cells count as failed.
            "correct": all(not s["problems"] for s in finished),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def pin() -> int:
    """Write digests.json from one serial sweep per workload at the default seed."""
    pinned = {}
    for workload in WORKLOADS:
        out_dir = WORK / workload / "pin"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = run_argv(workload, DEFAULT_SEED, out_dir)
        result = child({"argv": argv, "mode": "sweep"}, 1, time.monotonic() + 600)
        if result["exit_code"] != 0:
            raise BenchError(f"{workload}: ddrbench run exited {result['exit_code']}")
        pinned[workload] = digest_dir(out_dir)
        shutil.rmtree(out_dir)
        print(f"{workload}: pinned {len(pinned[workload])} files", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin the output digests")
    args = parser.parse_args(argv)
    if not (SRC / "ddrbench" / "cli.py").is_file():
        print(f"error: no ddrbench sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            return pin()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = WORK / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for s in result["sweeps"]:
        print(f"sweep traced={int(s['traced'])} sweep_s={s['sweep_s']:.4f} "
              f"cells={s['cells']} failed={s['failed']} problems={s['problems']}")
    print("unscaled medians " + json.dumps(result["raw_medians_s"], sort_keys=True))
    if result["uncalled_layers"]:
        print("wrapped names not called: " + ", ".join(result["uncalled_layers"]))
    summary = result["summary"]
    for name, m in summary["metrics"].items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
