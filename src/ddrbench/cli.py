"""Command-line front end: run sweeps, plot curves, summarize reports.

The plot and summary commands live in `charts`, imported only when they run.
Exit codes: 0 success, 1 configuration error, 2 partial completion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional

from . import harness
from .datagen import CLASSIFICATION, REGRESSION
from .errors import ConfigError, DdrBenchError

TASK_ALIASES = {"regression": REGRESSION, "classification": CLASSIFICATION}

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


def cmd_plot(args) -> int:
    from . import charts  # imported here: a sweep never plots or summarizes (start-up)

    return charts.cmd_plot(args)


def cmd_summary(args) -> int:
    from . import charts  # imported here: a sweep never plots or summarizes (start-up)

    return charts.cmd_summary(args)


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
    d = harness.ExperimentConfig._field_defaults  # the help texts quote its defaults
    run.add_argument("--samples", type=int, help=f"samples per dataset (default {d['n_samples']})")
    run.add_argument("--features", type=int, help=f"feature columns (default {d['n_features']})")
    points = len(d["ddr_grid"])
    run.add_argument("--grid", type=int, help=f"number of DDR grid points (default {points})")
    run.add_argument(
        "--replicates", type=int,
        help=f"datasets per grid point (default {d['tuples_per_grid_point']})",
    )
    run.add_argument("--seed", type=int, help=f"master seed (default {d['master_seed']})")
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
