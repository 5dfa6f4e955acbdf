"""Power and DDR arithmetic on plain arrays.

Observed data is modeled as the sum of a deterministic part D and a noise
part E, held as two equal-shape arrays.  The deterministic-to-data ratio
(DDR) measures the fraction of the observed power carried by D: 1 means
fully deterministic data, 0 pure noise.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateSignalError, DomainError

ArrayLike = Union[Sequence[float], np.ndarray]


def _checked(values: ArrayLike, ndim: int) -> np.ndarray:
    """The input as a checked float64 array, copied only if it is not one already."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DomainError(f"expected a {ndim}-D array, got shape {arr.shape}")
    if arr.size < 1:
        raise DomainError(f"signal must contain at least one value, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("signal values must all be finite")
    return arr


def _parts(
    deterministic: ArrayLike, noise: ArrayLike, ndim: int
) -> Tuple[np.ndarray, np.ndarray]:
    det, noi = _checked(deterministic, ndim), _checked(noise, ndim)
    if det.shape != noi.shape:
        raise DomainError(
            "deterministic and noise parts must have equal shapes, got "
            f"{det.shape} and {noi.shape}"
        )
    return det, noi


class DdrValue(float):
    """A deterministic-to-data ratio, always in [0, 1].

    Out-of-range ratios are never accepted silently; `DdrValue.clamped` is
    the one documented way to coerce a raw ratio into range, and it keeps
    the unclamped value on the `raw` attribute for diagnostics.
    """

    raw: float

    def __new__(cls, value: float) -> "DdrValue":
        v = float(value)
        if math.isnan(v) or not 0.0 <= v <= 1.0:
            raise DomainError(f"DDR must lie in [0, 1], got {v!r}")
        obj = super().__new__(cls, v)
        obj.raw = v
        return obj

    @classmethod
    def clamped(cls, raw: float) -> "DdrValue":
        """Clamp a raw ratio into [0, 1], recording the unclamped value."""
        r = float(raw)
        if math.isnan(r):
            raise DomainError("cannot clamp NaN into a DDR")
        obj = super().__new__(cls, min(max(r, 0.0), 1.0))
        obj.raw = r
        return obj


def _power(vals: np.ndarray) -> float:
    p = float(np.sum(np.square(vals)) / vals.size)
    if not math.isfinite(p):
        raise DomainError(f"power must be finite, got {p!r}")
    return p


def power(x: ArrayLike) -> float:
    """Mean of squares: (1/n) * sum(x_t^2).

    Zero exactly when every value is zero.  numpy's pairwise summation keeps
    the result stable for long signals.
    """
    return _power(_checked(x, 1))


def ddr_exact(deterministic: ArrayLike, noise: ArrayLike) -> DdrValue:
    """Power ratio P(D) / P(D + E), clamped into [0, 1].

    On finite samples the raw ratio can exceed 1 when D and E are negatively
    correlated; the unclamped ratio stays available as `.raw`.
    """
    det, noi = _parts(deterministic, noise, 1)
    p_obs = _power(det + noi)
    if p_obs == 0.0:
        raise DegenerateSignalError("observed signal has zero power")
    return DdrValue.clamped(_power(det) / p_obs)


def ddr_approx(deterministic: ArrayLike, noise: ArrayLike) -> DdrValue:
    """Cross-term-free ratio P(D) / (P(D) + P(E)); in [0, 1] by construction.

    Coincides with `ddr_exact` exactly when sum(D*E) = 0, and converges to it
    for long signals with independent zero-mean noise.
    """
    det, noi = _parts(deterministic, noise, 1)
    p_det = _power(det)
    denom = p_det + _power(noi)
    if denom == 0.0:
        raise DegenerateSignalError("both parts of the signal have zero power")
    return DdrValue(p_det / denom)


def matrix_ddr_power_ratio(deterministic: ArrayLike, noise: ArrayLike) -> DdrValue:
    """Dataset-level DDR as a pooled power ratio: sum_j P(D_j) / sum_j P(Y_j).

    Both parts are (samples x columns) matrices.  On standardized columns
    every P(Y_j) is about 1, so the ratio tracks mean(r_j), not the two-norm R.
    """
    det, noi = _parts(deterministic, noise, 2)
    p_obs = _power(det + noi)
    if p_obs == 0.0:
        raise DegenerateSignalError("observed matrix has zero power in every column")
    return DdrValue.clamped(_power(det) / p_obs)


def matrix_ddr_two_norm(rs: Sequence[float]) -> DdrValue:
    """Dataset-level DDR R from per-column DDRs via n * R^2 = sum(r_i^2)."""
    if len(rs) == 0:
        raise DomainError("matrix DDR needs at least one per-column DDR")
    values = np.asarray([float(DdrValue(r)) for r in rs])
    return DdrValue(math.sqrt(float(np.mean(np.square(values)))))
