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

import numpy as np

from .errors import DomainError, SamplerError
from .rng import RandomSource
from .signals import DdrValue

_MIN_CHORD = 1e-13
_MAX_DIRECTION_RETRIES = 100

# Chain steps before the first tuple, and between consecutive tuples.
BURN_IN = 1000
THINNING = 10


def _direction(n: int, rng: RandomSource) -> np.ndarray:
    """A random unit direction whose components sum to zero, so steps stay on the slice."""
    for _ in range(_MAX_DIRECTION_RETRIES):
        d = rng.standard_normal(n)
        # The same bits as d.mean() and np.linalg.norm(d), without their overhead.
        d -= d.sum() / n
        norm = math.sqrt(d.dot(d))
        if norm > 1e-12:
            return d / norm
    raise SamplerError("could not draw a usable in-slice direction")


def _step(s: np.ndarray, total: float, rng: RandomSource) -> np.ndarray:
    """One hit-and-run step: a uniform point on the chord along a random direction.

    The coordinate arithmetic runs on Python floats: on a few dozen
    coordinates that is cheaper than the numpy calls it replaces, and each
    operation rounds as its numpy counterpart did, so the chain's bits are
    unchanged.  Only the sum of the clipped point stays a numpy reduction,
    whose pairwise order a Python loop would not reproduce.
    """
    coords = s.tolist()
    for _ in range(_MAX_DIRECTION_RETRIES):
        d = _direction(s.size, rng).tolist()
        # The chord is the lambda interval of {s + lam * d} inside every box face.
        lo, hi = -math.inf, math.inf
        for si, di in zip(coords, d):
            if abs(di) > 1e-16:
                a = (0.0 - si) / di
                b = (1.0 - si) / di
                if a > b:
                    a, b = b, a
                if a > lo:
                    lo = a
                if b < hi:
                    hi = b
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise SamplerError("direction is parallel to every box face")
        if hi - lo > _MIN_CHORD:
            lam = rng.uniform(lo, hi)
            # Clip into the box, then spread the (tiny) sum error evenly so the
            # slice equation keeps holding to machine precision.
            x = [_clip(si + lam * di) for si, di in zip(coords, d)]
            shift = (total - float(np.array(x).sum())) / s.size
            return np.array([_clip(xi + shift) for xi in x])
    raise SamplerError("no chord of positive length after bounded retries")


def _clip(v: float) -> float:
    """np.clip(v, 0.0, 1.0) on one float."""
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def sample_ddr_tuples(n: int, target: float, count: int, rng: RandomSource) -> np.ndarray:
    """Draw per-column DDR tuples for a dataset-level target R.

    Returns a read-only (count, n) float64 array, one tuple per row, whose
    entries lie in [0, 1] and whose rows' squares sum to n R^2 to within
    1e-9.  Chain states are squared DDRs on the slice
    {s in [0,1]^n : sum s = nR^2}, started from the always-feasible symmetric
    point s_i = R^2, run for BURN_IN steps and then THINNING steps per
    tuple; tuples map back through r_i = sqrt(s_i).  Degenerate
    targets (R = 0, R = 1, or n = 1) force a single feasible corner, which is
    returned directly.
    """
    if n < 1:
        raise DomainError("need at least one column")
    if count < 1:
        raise DomainError("need at least one tuple")
    big_r = DdrValue(target)
    total = n * big_r * big_r
    if n == 1 or total == 0.0 or total == float(n):
        tuples = np.full((count, n), float(big_r))
    else:
        s = np.full(n, big_r * big_r)
        for _ in range(BURN_IN):
            s = _step(s, total, rng)
        tuples = np.empty((count, n))
        for row in tuples:
            for _ in range(THINNING):
                s = _step(s, total, rng)
            np.sqrt(s, out=row)
    residual = float(np.max(np.abs(np.sum(np.square(tuples), axis=1) - total)))
    if not (residual <= 1e-9 and np.all((tuples >= 0.0) & (tuples <= 1.0))):
        raise SamplerError(
            f"tuples leave [0, 1] or miss the two-norm constraint by {residual:.3e}"
        )
    tuples.flags.writeable = False
    return tuples
