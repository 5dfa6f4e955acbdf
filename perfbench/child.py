"""One benchmark child: a fresh interpreter that sets up and runs one sweep.

Usage: ``python3 child.py '<request json>'``.  The request names the package
source directory, the ``ddrbench run`` arguments, the mode (``setup`` or
``sweep``) and, for a traced sweep, the file to write spans to.  The child
prints one JSON object on stdout with its measurements.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def build_config(cli, harness, argv):
    """The ExperimentConfig that ``cli.main(argv)`` builds for this sweep."""
    args = cli.build_parser().parse_args(argv)
    task = cli.TASK_ALIASES[args.task]
    return harness.ExperimentConfig(
        task=task,
        models=harness.resolve_models(task, args.models),
        n_samples=args.samples,
        n_features=args.features,
        ddr_grid=harness.default_grid(args.grid),
        tuples_per_grid_point=args.replicates,
        master_seed=args.seed,
        out_dir=args.out,
    )


def library_versions() -> dict:
    import numpy

    info = {"numpy": numpy.__version__, "blas": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def reference_s() -> float:
    """Time a fixed computation that runs no ddrbench code.

    A chain of small-array steps and a nearest-neighbour sort, like the
    sampler and kNN do.  Its time follows the host's current speed.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    s = np.full(10, 0.5)
    for _ in range(3000):
        step = rng.normal(0.0, 0.05, size=10)
        proposal = s + step - step.mean()
        if proposal.min() >= 0.0 and proposal.max() <= 1.0:
            s = proposal
    x = rng.standard_normal((1500, 10))
    sq = (x * x).sum(axis=1)
    np.argsort(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), axis=1)
    return time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    # Imported here so that setup_s covers importing the package and numpy.
    from ddrbench import cli, harness

    config = build_config(cli, harness, request["argv"])
    result = {
        "setup_s": time.perf_counter() - start,
        "cells": len(config.models) * len(config.ddr_grid) * config.tuples_per_grid_point,
    }
    if request["mode"] == "setup":
        result.update(library_versions(), reference_s=reference_s())
        print(json.dumps(result))
        return 0

    tracer = None
    if request.get("spans"):
        from ddrbench.models import MODEL_KINDS
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(harness)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        code = cli.main(request["argv"])
    else:
        code = tracer.call("cli.main", "cli.main", None, cli.main, request["argv"])
    sweep_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    out_dir = Path(config.out_dir)
    result.update(
        exit_code=code,
        sweep_s=sweep_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        persist_bytes=sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0,
    )
    if tracer is not None:
        tracer.write(request["spans"])
        result["layers"] = layer_metrics(tracer.spans, sweep_s, MODEL_KINDS)
        result["uncalled"] = tracer.uncalled()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
