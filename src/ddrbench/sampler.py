"""Hit-and-run sampling of per-column DDR tuples.

The sweep needs n-tuples of per-column DDRs <r_1..r_n> whose squares sum to
n * R^2 for a dataset-level target R.  In s-space (s_i = r_i^2) that set is
the convex slice {s in [0,1]^n : sum(s) = n R^2}; a hit-and-run chain walks
the slice by sampling uniformly along random chords, which makes the squared
tuples asymptotically uniform.  No correction is applied for the fact that
the r-tuples themselves are then not uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, SamplerError
from .rng import RandomSource
from .signals import DdrValue

_MIN_CHORD = 1e-13
_MAX_DIRECTION_RETRIES = 100


@dataclass(frozen=True)
class DdrTuple:
    """Per-column DDRs realizing a dataset-level target R.

    Invariant: sum(r_i^2) equals n * target^2 to within 1e-9.
    """

    rs: Tuple[DdrValue, ...]
    target: DdrValue

    def __post_init__(self) -> None:
        if len(self.rs) == 0:
            raise DomainError("a DDR tuple needs at least one column")
        rs = tuple(DdrValue(r) for r in self.rs)
        target = DdrValue(self.target)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "target", target)
        residual = abs(sum(r * r for r in rs) - len(rs) * target * target)
        if residual > 1e-9:
            raise DomainError(
                f"tuple violates the two-norm constraint by {residual:.3e}"
            )

    def __len__(self) -> int:
        return len(self.rs)


class BoxSlice:
    """The unit box [0, 1]^dim cut by the hyperplane sum(x) = total.

    Directions live in the hyperplane's tangent space (components sum to
    zero), so every step preserves the coordinate sum by construction.
    """

    def __init__(self, dim: int, total: float):
        if not 0.0 <= total <= dim:
            raise DomainError(f"slice level {total!r} lies outside [0, {dim}]")
        self.dim = dim
        self.total = float(total)

    def random_direction(self, rng: RandomSource) -> np.ndarray:
        for _ in range(_MAX_DIRECTION_RETRIES):
            d = rng.standard_normal(self.dim)
            d -= d.mean()
            norm = float(np.linalg.norm(d))
            if norm > 1e-12:
                return d / norm
        raise SamplerError("could not draw a usable in-slice direction")

    def chord(self, x: np.ndarray, d: np.ndarray) -> Tuple[float, float]:
        """Lambda interval of {x + lam * d} inside the box faces."""
        lo, hi = -math.inf, math.inf
        for i in range(self.dim):
            if abs(d[i]) <= 1e-16:
                continue
            a = (0.0 - x[i]) / d[i]
            b = (1.0 - x[i]) / d[i]
            if a > b:
                a, b = b, a
            lo = max(lo, a)
            hi = min(hi, b)
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise SamplerError("direction is parallel to every box face")
        return lo, hi

    def clamp(self, x: np.ndarray) -> np.ndarray:
        # Clip into the box, then spread the (tiny) sum error evenly so the
        # slice equation keeps holding to machine precision.
        x = np.clip(x, 0.0, 1.0)
        x = x + (self.total - float(np.sum(x))) / self.dim
        return np.clip(x, 0.0, 1.0)


def _step(region: BoxSlice, x: np.ndarray, rng: RandomSource) -> np.ndarray:
    """One hit-and-run step: a uniform point on the chord along a random direction."""
    for _ in range(_MAX_DIRECTION_RETRIES):
        d = region.random_direction(rng)
        lo, hi = region.chord(x, d)
        if hi - lo > _MIN_CHORD:
            lam = rng.uniform(lo, hi)
            return region.clamp(x + lam * d)
    raise SamplerError("no chord of positive length after bounded retries")


def sample_ddr_tuples(
    n: int,
    target: float,
    count: int,
    rng: RandomSource,
    burn_in: int = 1000,
    thinning: int = 10,
) -> list[DdrTuple]:
    """Draw per-column DDR tuples for a dataset-level target R.

    Chain states are squared DDRs on the slice {s in [0,1]^n : sum s = nR^2},
    started from the always-feasible symmetric point s_i = R^2; tuples map
    back through r_i = sqrt(s_i).  Degenerate targets (R = 0, R = 1, or
    n = 1) force a single feasible corner, which is returned directly.
    """
    if n < 1:
        raise DomainError("need at least one column")
    if count < 1:
        raise DomainError("need at least one tuple")
    if burn_in < 0 or thinning < 1:
        raise DomainError("burn_in must be >= 0 and thinning >= 1")
    big_r = DdrValue(target)
    total = n * big_r * big_r
    if n == 1 or total == 0.0 or total == float(n):
        forced = tuple(DdrValue(big_r) for _ in range(n))
        return [DdrTuple(rs=forced, target=big_r) for _ in range(count)]

    region = BoxSlice(n, total)
    s = np.full(n, big_r * big_r)
    for _ in range(burn_in):
        s = _step(region, s, rng)
    tuples = []
    for _ in range(count):
        for _ in range(thinning):
            s = _step(region, s, rng)
        rs = tuple(DdrValue(math.sqrt(si)) for si in s)
        tuples.append(DdrTuple(rs=rs, target=big_r))
    return tuples
