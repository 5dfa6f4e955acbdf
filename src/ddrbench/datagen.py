"""Bottom-up synthetic dataset construction.

Clean deterministic features come first, targets are computed from the clean
features only, and noise is then injected into the features at prescribed
per-column DDRs.  Targets never receive noise: all non-determinism enters
the learning problem through the feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .errors import DegenerateDeterministicError, DomainError
from .rng import RandomSource

REGRESSION = "regression"
CLASSIFICATION = "binary-classification"

# Distance of each two_class cluster centre from the origin, along the separation axis.
CLASS_SEP = 2.0


@dataclass(frozen=True, eq=False)
class CleanDataset:
    """Noise-free features plus targets derived from them.

    The dataset takes ownership of the arrays it is given: float64 arrays are
    kept as they are, not copied, and marked read-only in place.
    """

    features: np.ndarray
    targets: np.ndarray
    task: str

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] < 1:
            raise DomainError("features must be a matrix with at least one column")
        if targets.ndim != 1 or targets.size != features.shape[0]:
            raise DomainError("targets must be one value per sample row")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
            raise DomainError("dataset values must all be finite")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise DomainError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION:
            labels = set(np.unique(targets))
            if not labels <= {0.0, 1.0}:
                raise DomainError("classification targets must be 0/1 labels")
            if targets.size >= 4 and len(labels) != 2:
                raise DomainError("classification targets must contain both classes")
        features.flags.writeable = targets.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True, eq=False)
class NoisyDataset:
    """Standardized noisy features, kept as their deterministic and noise parts.

    Column j of both read-only matrices is feature j at DDR ``rs[j]``, the
    read-only vector of nominal per-column DDRs; the targets are the clean
    dataset's, untouched.
    """

    deterministic: np.ndarray
    noise: np.ndarray
    targets: np.ndarray
    rs: np.ndarray

    @property
    def observed(self) -> np.ndarray:
        return self.deterministic + self.noise


def gen_linear_regression(
    n_samples: int, n_features: int, rng: RandomSource
) -> CleanDataset:
    """Gaussian features with targets from a hidden linear map.

    Weights are i.i.d. U[-1, 1]; targets carry no additive noise, so an exact
    least-squares fit on the clean data recovers the weights.
    """
    if n_samples < 2 * n_features:
        raise DomainError("need n_samples >= 2 * n_features for a stable fit")
    features = rng.standard_normal((n_samples, n_features))
    weights = rng.uniform(-1.0, 1.0, size=n_features)
    targets = features @ weights
    return CleanDataset(features, targets, REGRESSION)


def gen_friedman1(n_samples: int, n_features: int, rng: RandomSource) -> CleanDataset:
    """The Friedman #1 benchmark surface over U[0,1] features.

    y = 10 sin(pi x1 x2) + 20 (x3 - 0.5)^2 + 10 x4 + 5 x5; columns beyond the
    fifth are inert distractors.
    """
    if n_features < 5:
        raise DomainError("the Friedman #1 surface needs at least five features")
    x = rng.uniform(0.0, 1.0, size=(n_samples, n_features))
    targets = (
        10.0 * np.sin(math.pi * x[:, 0] * x[:, 1])
        + 20.0 * np.square(x[:, 2] - 0.5)
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
    )
    return CleanDataset(x, targets, REGRESSION)


def informative_count(n_features: int) -> int:
    """Size of the random coordinate subset that carries class separation."""
    return min(n_features, max(2, n_features // 5))


def gen_two_class(
    n_samples: int, n_features: int, rng: RandomSource, class_sep: float = CLASS_SEP
) -> CleanDataset:
    """Two identity-covariance Gaussian clusters at +/- class_sep along a random axis.

    The separation axis is a random unit vector supported on a small random
    coordinate subset, so the remaining columns are inert distractors in the
    same spirit as the Friedman surface.  Labels are exactly balanced; rows
    are shuffled so positional splits stay representative.
    """
    if n_samples < 4 or n_samples % 2 != 0:
        raise DomainError("two-class generation needs an even n_samples >= 4")
    if class_sep < 0.0:
        raise DomainError("class separation must be non-negative")
    n_informative = informative_count(n_features)
    support = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    axis = np.zeros(n_features)
    axis[support] = rng.standard_normal(n_informative)
    axis /= np.linalg.norm(axis)
    half = n_samples // 2
    labels = np.concatenate([np.zeros(half), np.ones(half)])
    centers = np.where(labels[:, None] > 0.5, class_sep, -class_sep) * axis
    features = centers + rng.standard_normal((n_samples, n_features))
    order = rng.permutation(n_samples)
    return CleanDataset(features[order], labels[order], CLASSIFICATION)


# Every generator is called as fn(n_samples, n_features, rng).
GENERATORS: Dict[str, Callable[..., CleanDataset]] = {
    "linear": gen_linear_regression,
    "friedman1": gen_friedman1,
    "two_class": gen_two_class,
}

GENERATOR_TASKS: Dict[str, str] = {
    "linear": REGRESSION,
    "friedman1": REGRESSION,
    "two_class": CLASSIFICATION,
}


def inject_noise(clean: CleanDataset, rs: np.ndarray, rng: RandomSource) -> NoisyDataset:
    """Standardize every clean feature column at its per-column DDR.

    ``rs`` holds one DDR in [0, 1] per feature column, such as one row of
    `sample_ddr_tuples`.

    Column j becomes alpha_j * x_j + beta_j plus N(0, 1 - r_j) noise, where
    alpha_j = sqrt(r_j) / S_j and beta_j = -(mean_j / S_j) sqrt(r_j) for the
    column's n-1 sample standard deviation S_j, taken for all columns in one
    pass.  The noise of column j is the j-th block of n draws from rng, as a
    per-column loop would draw it; `per_column_standardize` in
    tests/test_datagen.py is that loop, and holds this one to its bits.
    Targets carry over untouched.  A constant clean column is only legal at
    r = 0; otherwise the degenerate-column error names the lowest offending
    index.
    """
    n_samples, n_features = clean.features.shape
    rs = np.array(rs, dtype=np.float64)
    if rs.shape != (n_features,):
        raise DomainError(f"DDR vector has shape {rs.shape} for {n_features} columns")
    if not np.all((rs >= 0.0) & (rs <= 1.0)):
        raise DomainError(f"every DDR must lie in [0, 1], got {rs.tolist()}")
    rs.flags.writeable = False
    active = rs > 0.0
    alpha, beta = np.zeros(n_features), np.zeros(n_features)
    if np.any(active):
        if n_samples < 2:
            raise DomainError("standardization needs at least two samples")
        # Row-wise reductions over contiguous rows sum in the same order as a
        # reduction over one column, so these match a per-column loop bit for bit.
        columns = np.ascontiguousarray(clean.features.T[active])
        s_d = np.std(columns, axis=1, ddof=1)
        constant = np.flatnonzero(active)[s_d == 0.0]
        if constant.size:
            j = constant[0]
            raise DegenerateDeterministicError(
                f"feature column {j} is constant but requests DDR {float(rs[j]):g}"
            )
        sqrt_r = np.sqrt(rs[active])
        alpha[active] = sqrt_r / s_d
        beta[active] = -(np.mean(columns, axis=1) / s_d) * sqrt_r
        scale = alpha[active]
        if not np.all(np.isfinite(scale) & (scale > 0.0)):
            raise DomainError("alpha must be finite and positive wherever r > 0")
    variance = 1.0 - rs
    deterministic = alpha * clean.features + beta
    noise = rng.normal(0.0, np.sqrt(variance)[:, None], size=(n_features, n_samples)).T
    deterministic.flags.writeable = noise.flags.writeable = False
    return NoisyDataset(
        deterministic=deterministic,
        noise=noise,
        targets=clean.targets,
        rs=rs,
    )
