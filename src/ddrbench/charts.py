"""The plot and summary subcommands: read sweep outputs, draw SVG charts.

`cli` imports this module only when one of the two runs, so a sweep never
loads it or the SVG writer (start-up).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import harness, svg
from .cli import _nonempty, _read_utf8
from .datagen import CLASSIFICATION, REGRESSION
from .errors import ConfigError
from .models import MODELS

YLABEL_BY_TASK = {
    REGRESSION: "NMSE-Based Accuracy",
    CLASSIFICATION: "F1 Score",
}


def _output_file(flag: str, path: Optional[str]) -> Optional[str]:
    """Reject an output file path that is empty or ends in no name, such as ``.`` or ``/``."""
    if _nonempty(flag, path) is not None and not Path(path).name:
        raise ConfigError(f"{flag} names no file")
    return path


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
    _output_file("--out", args.out)
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
    # True == 1 == 1.0 in Python, so the type is checked before the value.
    if type(version) is not int or version != harness.SCHEMA_VERSION:
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
    _output_file("--out", args.out)
    svg_path = _output_file("--svg", args.svg) or str(Path(args.out).with_suffix(".svg"))
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
