"""Experiment orchestration: DDR grid sweeps, replication, and persistence.

The grid point is the unit of work.  At each grid point the DDR tuple chain
runs once; each generator then builds one noisy dataset and train/test split
per replicate, and every model on that generator is fitted and scored on
those same arrays.  A kind marked ``stacked`` in `models.MODELS` is fitted
once over the stack of those replicates' splits and predicts both stacks in
one call each; every other kind is fitted per replicate.  Grid points run in
parallel on a thread pool.

A sweep cell is one (model, grid point, replicate) triple with its own
seeds: each stage derives its random source from the master seed, a stable
key of the grid DDR value, the replicate index, and a stage tag.  The shared
stages' seeds never depended on the model, so sharing them changes no output,
and results do not depend on order or thread count.  A failure fails only
the cells that depend on the failed stage:

- a failed sampler fails every cell at its grid point;
- a failed dataset fails its replicate's cells on that generator, and
  leaves that replicate out of the stack;
- a failed stacked fit or predict fails that kind's cells at that grid
  point, because they all come from that one step;
- scoring stays per replicate, so a non-finite prediction fails only its
  own replicate's cell.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import datagen
from .datagen import CLASS_SEP, CLASSIFICATION, GENERATOR_TASKS, GENERATORS, REGRESSION
from .errors import ConfigError, DdrBenchError
from .evaluation import CurvePoint, PerformanceReport, f1_score, nmse_accuracy, report_from_curve
from .models import CLASSIFICATION_KINDS, MODELS, REGRESSION_KINDS, ModelSpec, fit, predict
from .rng import fnv1a64, make_rng, mix_seed
from .sampler import BURN_IN, THINNING, sample_ddr_tuples

SCHEMA_VERSION = 1

THREADS_ENV = "DDRBENCH_THREADS"

# Share of each dataset's rows (per class, for classification) used for training.
TRAIN_FRACTION = 0.8


def default_grid(points: int = 21) -> Tuple[float, ...]:
    """Evenly spaced DDR grid over [0, 1] including both endpoints."""
    if points < 2:
        raise ConfigError("the grid needs at least the two endpoints")
    return tuple(float(v) for v in np.linspace(0.0, 1.0, points))


class _ExperimentConfigFields(NamedTuple):
    # ExperimentConfig's fields; its __new__ checks and normalises them.
    task: str
    models: Tuple[str, ...]
    generator: str = "auto"
    n_samples: int = 1000
    n_features: int = 10
    ddr_grid: Tuple[float, ...] = default_grid()
    tuples_per_grid_point: int = 5
    master_seed: int = 0
    out_dir: Optional[str] = None


class ExperimentConfig(_ExperimentConfigFields):
    """Sweep settings; everything is echoed into the persisted reports."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ExperimentConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ConfigError(
                f"unknown task {self.task!r}; valid tasks: {REGRESSION}, {CLASSIFICATION}"
            )
        models = tuple(str(m).lower() for m in self.models)
        if not models:
            raise ConfigError("at least one model is required")
        for kind in models:
            if kind not in MODELS:
                raise ConfigError(
                    f"unknown model {kind!r}; valid models: {', '.join(MODELS)}"
                )
            if MODELS[kind].task != self.task:
                raise ConfigError(f"model {kind!r} does not belong to task {self.task!r}")
            if models.count(kind) > 1:
                raise ConfigError(f"model {kind!r} is listed more than once")
        if self.generator != "auto":
            if self.generator not in GENERATORS:
                raise ConfigError(
                    f"unknown generator {self.generator!r}; valid generators: "
                    f"{', '.join(sorted(GENERATORS))}, auto"
                )
            if GENERATOR_TASKS[self.generator] != self.task:
                raise ConfigError(
                    f"generator {self.generator!r} does not produce {self.task!r} data"
                )
        grid = tuple(float(v) for v in self.ddr_grid)
        # Every comparison with NaN is false, so this rejects NaN too.
        if len(grid) < 2 or not all(a < b for a, b in zip(grid, grid[1:])):
            raise ConfigError("ddr grid must be strictly increasing")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ConfigError("ddr grid must start at 0 and end at 1")
        # The seed key and the CSV's six-decimal DDR both rise with the DDR,
        # so two points that either of them merges are neighbours.
        for a, b in zip(grid, grid[1:]):
            if _grid_key(a) == _grid_key(b) or f"{a:.6f}" == f"{b:.6f}":
                raise ConfigError(
                    f"ddr grid points {a!r} and {b!r} are too close: "
                    "they would share a seed or a CSV row"
                )
        self = super().__new__(cls, **{**self._asdict(), "models": models, "ddr_grid": grid})
        for name in ("n_samples", "n_features", "tuples_per_grid_point", "master_seed"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed must be in [0, 2**64), not {self.master_seed}")
        if self.tuples_per_grid_point < 1:
            raise ConfigError("tuples_per_grid_point must be >= 1")
        if self.n_samples < 4 or self.n_features < 1:
            raise ConfigError("need n_samples >= 4 and n_features >= 1")
        test_rows = self.n_samples - _train_size(self.n_samples)
        if self.task == REGRESSION and test_rows < 2:
            raise ConfigError(
                f"n_samples={self.n_samples} leaves {test_rows} test row; "
                "regression scoring needs at least 2"
            )
        for kind in models:
            gen = self.generator_for(kind)
            if gen == "friedman1" and self.n_features < 5:
                raise ConfigError(f"{kind} uses friedman1, which needs >= 5 features")
            if gen == "linear" and self.n_samples < 2 * self.n_features:
                raise ConfigError(f"{kind} uses linear, which needs n_samples >= 2 * n_features")
            if gen == "two_class" and self.n_samples % 2 != 0:
                raise ConfigError(f"{kind} uses two_class, which needs an even n_samples")
        return self

    @classmethod
    def _make(cls, iterable) -> "ExperimentConfig":
        # _replace builds through _make, so a replaced config is checked too.
        return cls(*iterable)

    def generator_for(self, kind: str) -> str:
        return MODELS[kind].generator if self.generator == "auto" else self.generator

    def echo(self) -> dict:
        return {
            "task": self.task,
            "models": list(self.models),
            "generator": self.generator,
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "ddr_grid": list(self.ddr_grid),
            "tuples_per_grid_point": self.tuples_per_grid_point,
            "train_fraction": TRAIN_FRACTION,
            "class_sep": CLASS_SEP,
            "burn_in": BURN_IN,
            "thinning": THINNING,
        }


def seed_derivation(
    master_seed: int, grid_index: int, replicate_index: int, stage_tag: str
) -> int:
    """Collision-resistant seed for one stage of one sweep cell.

    Chained splitmix64 mixing: for any fixed three arguments, varying the
    fourth always changes the seed, and stage tags separate the datagen,
    sampler, split, and model streams.
    """
    return mix_seed(master_seed, grid_index, replicate_index, fnv1a64(stage_tag))


def _grid_key(ddr: float) -> int:
    # Quantized DDR value, so inserting grid points leaves other cells' seeds alone.
    return int(round(float(ddr) * (1 << 30)))


def _train_size(n: int) -> int:
    """Training rows out of n: TRAIN_FRACTION of them, leaving one or more on each side."""
    return min(max(int(round(TRAIN_FRACTION * n)), 1), n - 1)


def _split_indices(targets: np.ndarray, task: str, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    # Each label's rows, or all n rows as rng.permutation(n) = rng.permutation(np.arange(n)).
    rng = make_rng(seed)
    if task == CLASSIFICATION:
        groups = [np.flatnonzero(targets == label) for label in (0.0, 1.0)]
    else:
        groups = [targets.size]
    train_parts, test_parts = [], []
    for rows in groups:
        idx = rng.permutation(rows)
        cut = _train_size(idx.size)
        train_parts.append(idx[:cut])
        test_parts.append(idx[cut:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def _noisy_split(
    config: ExperimentConfig, generator_id: str, key: int, replicate: int, rs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One replicate's noisy dataset from one generator, as read-only train and test arrays."""
    gen_rng = make_rng(seed_derivation(config.master_seed, key, replicate, "datagen"))
    clean, targets = GENERATORS[generator_id](config.n_samples, config.n_features, gen_rng)
    deterministic, noise = datagen.inject_noise(
        clean, rs, make_rng(seed_derivation(config.master_seed, key, replicate, "noise"))
    )
    features = deterministic + noise
    train_idx, test_idx = _split_indices(
        targets, config.task, seed_derivation(config.master_seed, key, replicate, "split")
    )
    split = (features[train_idx], targets[train_idx], features[test_idx], targets[test_idx])
    # Every model on this generator gets these same arrays, so none may write into them.
    for arr in split:
        arr.flags.writeable = False
    return split


def _stack(splits) -> Tuple[np.ndarray, ...]:
    """The replicates' (x_train, y_train, x_test, y_test) splits as four read-only stacks."""
    stack = tuple(np.stack(arrays) for arrays in zip(*splits))
    for arr in stack:
        arr.flags.writeable = False
    return stack


def _fit_predict(spec: ModelSpec, data) -> Tuple[np.ndarray, np.ndarray]:
    """Fit on a split's training arrays; return the predictions on its train and test features."""
    x_train, y_train, x_test, _ = data
    trained = fit(spec, x_train, y_train)
    return predict(trained, x_train), predict(trained, x_test)


def _predictions(config: ExperimentConfig, kind: str, key: int, splits: dict, stack) -> dict:
    """Each replicate's (train, test) predictions by one kind, or the error that failed them.

    A stacked kind is fitted once on ``stack``, the stack of ``splits`` in
    replicate order, so an error there is every replicate's.  Any other kind
    is fitted on each replicate's split with that cell's model seed.
    """
    if MODELS[kind].stacked:
        try:
            train, test = _fit_predict(ModelSpec(kind), stack)
        except DdrBenchError as exc:
            return {ri: exc for ri in splits}
        return {ri: (train[i], test[i]) for i, ri in enumerate(splits)}
    out = {}
    for ri, data in splits.items():
        spec = ModelSpec(kind, seed=seed_derivation(config.master_seed, key, ri, "model"))
        try:
            out[ri] = _fit_predict(spec, data)
        except DdrBenchError as exc:
            out[ri] = exc
    return out


def _run_grid_point(
    config: ExperimentConfig, gi: int
) -> Dict[str, List[Union[Tuple[float, float], str]]]:
    """Score every (model, replicate) cell at one grid point.

    Returns one list per model kind, one entry per replicate in order: the
    (train, test) accuracy pair, or the failure message.  The DDR tuples are
    sampled once, and each replicate's dataset is built once per generator
    and shared by every model on that generator.  A failure fails exactly
    the cells that depend on the failed step.
    """
    ddr = config.ddr_grid[gi]
    key = _grid_key(ddr)
    replicates = range(config.tuples_per_grid_point)
    cells: Dict[str, list] = {kind: [None] * len(replicates) for kind in config.models}

    def failure(kind, ri, exc) -> str:
        return f"{kind} at ddr={ddr:g} rep={ri}: {exc}"

    try:
        tuples = sample_ddr_tuples(
            config.n_features,
            ddr,
            config.tuples_per_grid_point,
            make_rng(seed_derivation(config.master_seed, key, 0, "sampler")),
        )
    except DdrBenchError as exc:
        return {kind: [failure(kind, ri, exc) for ri in replicates] for kind in cells}

    metric = f1_score if config.task == CLASSIFICATION else nmse_accuracy
    by_generator: Dict[str, List[str]] = {}
    for kind in cells:
        by_generator.setdefault(config.generator_for(kind), []).append(kind)
    for generator_id, kinds in by_generator.items():
        splits = {}
        for ri in replicates:
            try:
                splits[ri] = _noisy_split(config, generator_id, key, ri, tuples[ri])
            except DdrBenchError as exc:
                for kind in kinds:
                    cells[kind][ri] = failure(kind, ri, exc)
        if not splits:
            continue
        # Every split of a config has the same shapes, so the replicates stack.
        stack = _stack(splits.values()) if any(MODELS[k].stacked for k in kinds) else None
        for kind in kinds:
            for ri, outcome in _predictions(config, kind, key, splits, stack).items():
                if isinstance(outcome, DdrBenchError):
                    cells[kind][ri] = failure(kind, ri, outcome)
                    continue
                (_, y_train, _, y_test), (train_pred, test_pred) = splits[ri], outcome
                try:
                    cells[kind][ri] = (metric(y_train, train_pred), metric(y_test, test_pred))
                except DdrBenchError as exc:
                    cells[kind][ri] = failure(kind, ri, exc)
    return cells


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "0").strip()
    try:
        requested = int(raw) if raw else 0
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if requested < 0:
        raise ConfigError(f"{THREADS_ENV} must be non-negative")
    if requested > 0:
        return requested
    # "auto": the CPUs this process may run on, fewer than the machine's
    # when the process is pinned to some of them.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ThreadPoolExecutor(max_workers: int):
    """Return a `concurrent.futures.ThreadPoolExecutor` that runs grid points at once."""
    # Imported here: a serial sweep never loads concurrent.futures or logging (start-up).
    from concurrent.futures import ThreadPoolExecutor as pool_type

    return pool_type(max_workers=max_workers)


def run_experiment(config: ExperimentConfig) -> List[PerformanceReport]:
    """Run the full sweep and return one report per model.

    A failed stage fails only the cells that depend on it; each affected
    model's report is marked incomplete, keeps the diagnostics, and carries
    no AUC.
    """
    threads = _thread_count()
    # Made before the sweep, so an unusable directory fails before any cell runs.
    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    grid_indices = range(len(config.ddr_grid))
    if threads == 1:
        per_point = [_run_grid_point(config, gi) for gi in grid_indices]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_point = list(pool.map(partial(_run_grid_point, config), grid_indices))

    reports = []
    for kind in config.models:
        rows = [point[kind] for point in per_point]
        fields = dict(
            model=kind,
            task=config.task,
            generator=config.generator_for(kind),
            config=config.echo(),
            master_seed=config.master_seed,
        )
        failures = sorted(cell for cells in rows for cell in cells if isinstance(cell, str))
        if failures:
            reports.append(PerformanceReport(incomplete_cells=tuple(failures), **fields))
            continue
        points = []
        for ddr, cells in zip(config.ddr_grid, rows):
            train = np.array([cell[0] for cell in cells])
            test = np.array([cell[1] for cell in cells])
            ddof = 1 if train.size > 1 else 0
            points.append(
                CurvePoint(
                    ddr=ddr,
                    train_accuracy=float(np.mean(train)),
                    test_accuracy=float(np.mean(test)),
                    train_std=float(np.std(train, ddof=ddof)),
                    test_std=float(np.std(test, ddof=ddof)),
                    replicates=train.size,
                )
            )
        reports.append(report_from_curve(tuple(points), **fields))

    if config.out_dir is not None:
        write_outputs(reports, config.out_dir)
    return reports


# ---------------------------------------------------------------------------
# Persistence: curve CSV, report JSON, and the cross-model summary CSV.

def write_text_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into place.

    A crash mid-write leaves the previous file whole rather than a partial one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


CURVE_CSV_HEADER = "ddr,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std,replicates"


def curve_csv_lines(curve: Sequence[CurvePoint]) -> List[str]:
    lines = [CURVE_CSV_HEADER]
    for p in curve:
        lines.append(
            f"{p.ddr:.6f},{p.train_accuracy:.6f},{p.train_std:.6f},"
            f"{p.test_accuracy:.6f},{p.test_std:.6f},{p.replicates}"
        )
    return lines


def write_curve_csv(curve: Sequence[CurvePoint], path) -> None:
    write_text_atomic(path, "\n".join(curve_csv_lines(curve)) + "\n")


def report_payload(report: PerformanceReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": report.model,
        "task": report.task,
        "generator": report.generator,
        "auc_train": report.auc_train,
        "auc_test": report.auc_test,
        "trust_points": [[d, t] for d, t in report.trust_points],
        "config": report.config,
        "master_seed": report.master_seed,
        "incomplete_cells": list(report.incomplete_cells),
    }


def write_report_json(report: PerformanceReport, path) -> None:
    write_text_atomic(path, json.dumps(report_payload(report), indent=2, sort_keys=True) + "\n")


def write_summary_csv(reports: Sequence[dict], path) -> None:
    """Cross-model AUC table from report payloads, sorted by model name."""
    lines = ["model,auc_train,auc_test"]
    for payload in sorted(reports, key=lambda p: p["model"]):
        lines.append(
            f"{payload['model']},{payload['auc_train']:.6f},{payload['auc_test']:.6f}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_outputs(reports: Sequence[PerformanceReport], out_dir) -> None:
    out = Path(out_dir)
    for report in reports:
        curve_path = out / f"{report.model}_curve.csv"
        if report.curve is not None:
            write_curve_csv(report.curve, curve_path)
        else:
            # A curve left by an earlier run would sit beside a report without one.
            curve_path.unlink(missing_ok=True)
        write_report_json(report, out / f"{report.model}_report.json")


def resolve_models(task: str, selector: str) -> Tuple[str, ...]:
    """Expand a CLI model selector ('all' or comma-separated kinds)."""
    if selector.strip().lower() == "all":
        return REGRESSION_KINDS if task == REGRESSION else CLASSIFICATION_KINDS
    kinds = tuple(part.strip().lower() for part in selector.split(",") if part.strip())
    if not kinds:
        raise ConfigError("no models given")
    return kinds
