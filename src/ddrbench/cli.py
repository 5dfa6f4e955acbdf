"""Command-line front end: run sweeps, plot curves, summarize reports.

Exit codes: 0 success, 1 configuration error, 2 partial completion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import harness, svg
from .datagen import CLASSIFICATION, REGRESSION
from .errors import ConfigError, DdrBenchError
from .models import MODELS

TASK_ALIASES = {"regression": REGRESSION, "classification": CLASSIFICATION}

YLABEL_BY_TASK = {
    REGRESSION: "NMSE-Based Accuracy",
    CLASSIFICATION: "F1 Score",
}

CONFIG_KEYS = (
    "task",
    "models",
    "generator",
    "samples",
    "features",
    "grid",
    "replicates",
    "seed",
    "out",
)


def _read_utf8(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None


def load_config_file(path: str) -> Dict[str, str]:
    """Parse the optional `key = value` config file ('#' starts a comment)."""
    values: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(_read_utf8(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}"
            )
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def _nonempty(flag: str, path: Optional[str]) -> Optional[str]:
    """Reject an empty output path, which would mean the current directory."""
    if path == "":
        raise ConfigError(f"{flag} must not be empty")
    return path


def cmd_run(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}

    def setting(flag, key: str, cast=str, default=None):
        """The flag if given, else the config file's value, else the default."""
        if flag is not None:
            return flag
        if key not in file_values:
            return default
        try:
            return cast(file_values[key])
        except ValueError:
            raise ConfigError(
                f"{args.config}: {key} = {file_values[key]!r} is not a valid {cast.__name__}"
            ) from None

    task_name = setting(args.task, "task")
    if task_name is None:
        raise ConfigError("--task is required (regression or classification)")
    if task_name not in TASK_ALIASES:
        raise ConfigError(
            f"unknown task {task_name!r}; valid tasks: {', '.join(TASK_ALIASES)}"
        )
    task = TASK_ALIASES[task_name]
    out_dir = _nonempty("--out", setting(args.out, "out"))
    if out_dir is None:
        raise ConfigError("--out directory is required")
    # Only the values set here are passed; ExperimentConfig holds the defaults.
    given = {
        "generator": setting(args.generator, "generator"),
        "n_samples": setting(args.samples, "samples", int),
        "n_features": setting(args.features, "features", int),
        "tuples_per_grid_point": setting(args.replicates, "replicates", int),
        "master_seed": setting(args.seed, "seed", int),
    }
    grid_points = setting(args.grid, "grid", int)
    if grid_points is not None:
        given["ddr_grid"] = harness.default_grid(grid_points)
    config = harness.ExperimentConfig(
        task=task,
        models=harness.resolve_models(task, setting(args.models, "models", default="all")),
        out_dir=out_dir,
        **{name: value for name, value in given.items() if value is not None},
    )
    reports = harness.run_experiment(config)
    incomplete = [r.model for r in reports if not r.complete]
    if incomplete:
        print(f"incomplete reports: {', '.join(sorted(incomplete))}", file=sys.stderr)
        return 2
    return 0


def read_curve_csv(path: str) -> Dict[str, List[float]]:
    """Parse a curve CSV into its ddr, train-mean and test-mean series.

    Every field is checked: the five numbers must be finite, the DDRs must
    lie in [0, 1] and rise strictly, the two means lie in [0, 1], the two
    standard deviations be non-negative and ``replicates`` a positive
    integer.  A malformed row is reported with its row number.
    """
    lines = _read_utf8(path).splitlines()
    if not lines or lines[0] != harness.CURVE_CSV_HEADER:
        raise ConfigError(f"{path}: row 1: bad or missing curve header")
    width = len(harness.CURVE_CSV_HEADER.split(","))
    curve = {"ddr": [], "train": [], "test": []}
    for row_no, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != width:
            raise ConfigError(f"{path}: row {row_no}: expected {width} fields, got {len(fields)}")
        try:
            ddr, train, train_std, test, test_std = map(float, fields[:5])
            replicates = int(fields[5])
        except ValueError as exc:
            raise ConfigError(f"{path}: row {row_no}: {exc}")
        if not all(map(math.isfinite, (ddr, train, train_std, test, test_std))):
            raise ConfigError(f"{path}: row {row_no}: values must be finite, got {line!r}")
        if not 0.0 <= ddr <= 1.0:
            raise ConfigError(f"{path}: row {row_no}: ddr must lie in [0, 1], got {line!r}")
        if curve["ddr"] and ddr <= curve["ddr"][-1]:
            raise ConfigError(f"{path}: row {row_no}: ddrs must rise strictly, got {line!r}")
        if not (0.0 <= train <= 1.0 and 0.0 <= test <= 1.0):
            raise ConfigError(f"{path}: row {row_no}: means must lie in [0, 1], got {line!r}")
        if train_std < 0.0 or test_std < 0.0:
            raise ConfigError(f"{path}: row {row_no}: std must be >= 0, got {line!r}")
        if replicates < 1:
            raise ConfigError(f"{path}: row {row_no}: replicates must be positive, got {line!r}")
        for name, value in zip(("ddr", "train", "test"), (ddr, train, test)):
            curve[name].append(value)
    if len(curve["ddr"]) < 2:
        raise ConfigError(f"{path}: need at least two curve rows")
    return curve


def _model_from_filename(path: str) -> Optional[str]:
    stem = Path(path).stem
    kind = stem.split("_", 1)[0].lower()
    return kind if kind in MODELS else None


def _refuse_overwriting_inputs(outputs, inputs) -> None:
    """Reject any output path that resolves to an input, before anything is read or written."""
    sources = {Path(p).resolve() for p in inputs}
    for out in outputs:
        if Path(out).resolve() in sources:
            raise ConfigError(f"{out} is also an input and would be overwritten")


def cmd_plot(args) -> int:
    _nonempty("--out", args.out)
    _refuse_overwriting_inputs([args.out], args.curves)
    series = []
    ylabel = args.ylabel
    for path in args.curves:
        curve = read_curve_csv(path)
        kind = _model_from_filename(path)
        prefix = f"{kind} " if kind and len(args.curves) > 1 else ""
        series.append((f"{prefix}train", curve["ddr"], curve["train"]))
        series.append((f"{prefix}test", curve["ddr"], curve["test"]))
        if ylabel is None and kind is not None:
            ylabel = YLABEL_BY_TASK[MODELS[kind].task]
    title = args.title
    if title is None:
        kinds = [k for k in (_model_from_filename(p) for p in args.curves) if k]
        title = f"Accuracy vs. DDR ({', '.join(kinds)})" if kinds else "Accuracy vs. DDR"
    text = svg.line_chart(series, title, "DDR", ylabel or "Accuracy")
    harness.write_text_atomic(args.out, text)
    return 0


def read_report_json(path: str) -> dict:
    """Load a report payload, rejecting any that `summary` cannot tabulate.

    A complete report carries AUCs in [0, 1]; an incomplete one carries null
    for both.  Either way its model is a kind in `models.MODELS`, so the
    name cannot break the summary table's rows.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: not a valid report JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object, got a {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != harness.SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version {version!r} != {harness.SCHEMA_VERSION}")
    for name in ("model", "auc_train", "auc_test"):
        if name not in payload:
            raise ConfigError(f"{path}: missing field {name!r}")
    if payload["auc_train"] is not None or payload["auc_test"] is not None:
        for name in ("auc_train", "auc_test"):
            value = payload[name]
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not numeric or not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{path}: field {name!r} must be a number in [0, 1], got {value!r}"
                )
    model = payload["model"]
    if not isinstance(model, str) or model not in MODELS:
        raise ConfigError(
            f"{path}: field 'model' must be one of {', '.join(MODELS)}, got {model!r}"
        )
    return payload


def cmd_summary(args) -> int:
    if not args.reports:
        raise ConfigError("at least one report JSON is required")
    _nonempty("--out", args.out)
    svg_path = _nonempty("--svg", args.svg) or str(Path(args.out).with_suffix(".svg"))
    if Path(svg_path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"the table and the bar chart would both be written to {args.out}")
    _refuse_overwriting_inputs([args.out, svg_path], args.reports)
    payloads = []
    for path in args.reports:
        payload = read_report_json(path)
        if payload["auc_test"] is None:
            print(f"skipping incomplete report {path}", file=sys.stderr)
            continue
        payloads.append(payload)
    if not payloads:
        raise ConfigError("no complete reports to summarize")
    payloads.sort(key=lambda p: p["model"])
    harness.write_summary_csv(payloads, args.out)
    text = svg.bar_chart(
        [p["model"] for p in payloads],
        [p["auc_test"] for p in payloads],
        "Model Performance (Normalized AUC)",
        "Normalized AUC",
    )
    harness.write_text_atomic(svg_path, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddrbench",
        description="Sweep dataset DDR levels and score model robustness to noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a DDR sweep and write curve/report files")
    run.add_argument("--task", choices=sorted(TASK_ALIASES))
    run.add_argument("--models", help="comma-separated model kinds, or 'all'")
    run.add_argument("--generator", help="dataset generator id, or 'auto'")
    d = harness.ExperimentConfig  # the help texts quote its defaults
    run.add_argument("--samples", type=int, help=f"samples per dataset (default {d.n_samples})")
    run.add_argument("--features", type=int, help=f"feature columns (default {d.n_features})")
    points = len(harness.default_grid())
    run.add_argument("--grid", type=int, help=f"number of DDR grid points (default {points})")
    run.add_argument(
        "--replicates", type=int,
        help=f"datasets per grid point (default {d.tuples_per_grid_point})",
    )
    run.add_argument("--seed", type=int, help=f"master seed (default {d.master_seed})")
    run.add_argument("--out", help="output directory")
    run.add_argument("--config", help="optional key = value config file; flags win")
    run.set_defaults(func=cmd_run)

    plot = sub.add_parser("plot", help="render curve CSVs as a deterministic SVG")
    plot.add_argument("--curves", nargs="+", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--title")
    plot.add_argument("--ylabel")
    plot.set_defaults(func=cmd_plot)

    summary = sub.add_parser("summary", help="tabulate AUCs across report JSONs")
    summary.add_argument("--reports", nargs="*", default=[])
    summary.add_argument("--out", required=True)
    summary.add_argument("--svg", help="bar chart path (default: table path with .svg)")
    summary.set_defaults(func=cmd_summary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DdrBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
