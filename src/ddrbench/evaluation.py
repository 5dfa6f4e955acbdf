"""Accuracy metrics, trust points, and the normalized-AUC performance score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateTargetError, DomainError
from .signals import DdrValue


def nmse_accuracy(y_true, y_pred) -> float:
    """1 minus the MSE normalized by the population target variance, floored at 0.

    Perfect predictions score 1; predicting the target mean scores 0.  A
    non-finite target or prediction is an error, not a score of 0.
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1 or yt.size < 2:
        raise DomainError("need two equal-length vectors of at least two values")
    if not (np.all(np.isfinite(yt)) and np.all(np.isfinite(yp))):
        raise DomainError("targets and predictions must be finite")
    variance = float(np.var(yt))
    if variance == 0.0:
        raise DegenerateTargetError("targets have zero variance")
    mse = float(np.mean(np.square(yt - yp)))
    return max(0.0, 1.0 - mse / variance)


def f1_score(y_true, y_pred) -> float:
    """F1 with class 1 positive; 1.0 for an empty confusion, 0.0 when TP = 0."""
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise DomainError("need two equal-length label vectors")
    if not (set(np.unique(yt)) <= {0.0, 1.0} and set(np.unique(yp)) <= {0.0, 1.0}):
        raise DomainError("labels must all be 0 or 1")
    tp = float(np.sum((yt == 1.0) & (yp == 1.0)))
    fp = float(np.sum((yt == 0.0) & (yp == 1.0)))
    fn = float(np.sum((yt == 1.0) & (yp == 0.0)))
    if tp == 0.0:
        return 1.0 if fp == 0.0 and fn == 0.0 else 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def trust_point(accuracy: float, ddr: float) -> float:
    """Single-point trustworthiness: accuracy times DDR."""
    acc = float(accuracy)
    if not 0.0 <= acc <= 1.0:
        raise DomainError(f"accuracy must lie in [0, 1], got {acc!r}")
    return acc * float(DdrValue(ddr))


@dataclass(frozen=True)
class CurvePoint:
    """One grid point of an accuracy-DDR curve, aggregated over replicates."""

    ddr: float
    train_accuracy: float
    test_accuracy: float
    train_std: float
    test_std: float
    replicates: int


def normalized_auc(ddrs, accuracies) -> float:
    """Trapezoidal area under accuracy(DDR) for DDR in [0, 1].

    DDRs must rise strictly from 0 to 1 and every accuracy lie in [0, 1].
    The domain has unit length, so the raw area is already normalized.
    """
    x = np.asarray(ddrs, dtype=np.float64)
    y = np.asarray(accuracies, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise DomainError("need equal-length DDR and accuracy vectors of at least two points")
    if not np.all(np.diff(x) > 0.0):
        raise DomainError("DDRs must be strictly increasing")
    if x[0] != 0.0 or x[-1] != 1.0:
        raise DomainError("DDRs must span 0 to 1")
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise DomainError("accuracies must lie in [0, 1]")
    return float(np.trapezoid(y, x))


@dataclass(frozen=True, eq=False)
class PerformanceReport:
    """Per-model sweep outcome: curve, AUCs, trust points, and the config echo.

    A report whose incomplete_cells are empty carries the curve and AUCs.
    When any experiment cell failed, the report carries the per-cell
    diagnostics instead, and no curve or AUC.
    """

    model: str
    task: str
    generator: str
    config: dict
    master_seed: int
    curve: Optional[Tuple[CurvePoint, ...]] = None
    auc_train: Optional[float] = None
    auc_test: Optional[float] = None
    trust_points: Tuple[Tuple[float, float], ...] = ()
    incomplete_cells: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.incomplete_cells


def report_from_curve(curve: Tuple[CurvePoint, ...], **fields) -> PerformanceReport:
    """Assemble the complete-report case: AUCs plus test-accuracy trust points.

    ``fields`` are the report's remaining fields: model, task, generator,
    config and master_seed.
    """
    ddrs = [p.ddr for p in curve]
    return PerformanceReport(
        curve=curve,
        auc_train=normalized_auc(ddrs, [p.train_accuracy for p in curve]),
        auc_test=normalized_auc(ddrs, [p.test_accuracy for p in curve]),
        trust_points=tuple((p.ddr, trust_point(p.test_accuracy, p.ddr)) for p in curve),
        **fields,
    )
