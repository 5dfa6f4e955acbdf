"""DDR-invariant standardization.

Rescales a deterministic signal and synthesizes Gaussian noise so that the
observed column has sample mean ~0, sample power ~1, and DDR equal to the
requested ratio r.  The deterministic part maps through a positive affine
transform alpha * d + beta; the noise is zero-mean with variance 1 - r.
The mean/power guarantees are asymptotic, so they are tolerance-based and
should only be asserted for long signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateDeterministicError, DomainError
from .rng import RandomSource
from .signals import ArrayLike, DdrValue, _checked


@dataclass(frozen=True)
class StandardizationParams:
    """Affine scale/shift for the deterministic part plus the noise variance.

    alpha = 0 is permitted only for the pure-noise case (noise_variance = 1),
    where the deterministic part collapses to zero.
    """

    alpha: float
    beta: float
    noise_variance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_variance <= 1.0:
            raise DomainError(
                f"noise variance must lie in [0, 1], got {self.noise_variance!r}"
            )
        if self.alpha < 0.0 or not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be a finite non-negative real, got {self.alpha!r}")
        if self.alpha == 0.0 and self.noise_variance != 1.0:
            raise DomainError("alpha may be zero only for a pure-noise column")


def standardize_params(d: ArrayLike, r: float) -> StandardizationParams:
    """Solve for alpha, beta and the noise variance at the requested DDR.

    alpha = sqrt(r) / S_d and beta = -(mean(d) / S_d) * sqrt(r), where S_d is
    the sample standard deviation of d with the n-1 denominator; the noise
    variance is 1 - r.  r = 0 short-circuits to the pure-noise parameters
    without touching S_d, so constant signals are acceptable there.
    """
    ratio = DdrValue(r)
    if ratio == 0.0:
        return StandardizationParams(alpha=0.0, beta=0.0, noise_variance=1.0)
    vals = _checked(d, 1)
    if vals.size < 2:
        raise DomainError("standardization needs at least two samples")
    s_d = float(np.std(vals, ddof=1))
    if s_d == 0.0:
        raise DegenerateDeterministicError(
            "deterministic signal is constant; it cannot carry a nonzero DDR"
        )
    sqrt_r = math.sqrt(ratio)
    alpha = sqrt_r / s_d
    beta = -(float(np.mean(vals)) / s_d) * sqrt_r
    return StandardizationParams(alpha=alpha, beta=beta, noise_variance=1.0 - ratio)


def ddr_invariant_standardize(
    d: ArrayLike, r: float, rng: RandomSource
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the standardized column: affine image of d plus fresh noise.

    Returns the parts (D_std, E_std): D_std = alpha * d + beta, and E_std
    drawn i.i.d. from N(0, 1 - r).  For long signals the observed sum has
    mean ~0 and power ~1, and the approximate DDR of the result is ~r.
    """
    params = standardize_params(d, r)
    vals = _checked(d, 1)
    det = params.alpha * vals + params.beta
    noise = rng.normal(0.0, math.sqrt(params.noise_variance), size=vals.size)
    return det, noise
