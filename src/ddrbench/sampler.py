"""Hit-and-run sampling of per-column DDR tuples.

The sweep needs n-tuples of per-column DDRs <r_1..r_n> whose squares sum to
n * R^2 for a dataset-level target R.  In s-space (s_i = r_i^2) that set is
the convex slice {s in [0,1]^n : sum(s) = n R^2}; a hit-and-run chain walks
the slice by sampling uniformly along random chords, which makes the squared
tuples asymptotically uniform.  No correction is applied for the fact that
the r-tuples themselves are then not uniform.

A step draws a ``standard_normal(n)`` row, centres and normalises it, and
draws another while the norm is at most ``_MIN_NORM`` or the chord is no
longer than ``_MIN_CHORD``; it then moves to ``uniform(lo, hi)``, which numpy
computes as ``lo + (hi - lo) * random()``.  Between redraws the stream is
one normal row and one ``random()`` per step, whatever the chain's state, so
the chain draws it ahead in blocks of at most ``_BLOCK_VALUES`` normals,
normalises a block's rows in a few array calls and steps on Python floats,
taking each moved point's sum from numpy's own ``np.add.reduce``.  A redraw
rewinds the generator to the block's start, draws the rows before it and the
discarded row once more, and opens a new block at that step.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .errors import DomainError, SamplerError
from .signals import DdrValue

_MIN_NORM = 1e-12
_MIN_CHORD = 1e-13
_MAX_DIRECTION_RETRIES = 100

# Chain steps before the first tuple, and between consecutive tuples.
BURN_IN = 1000
THINNING = 10

# Normals per pre-drawn block (32 KB), whatever the number of tuples.
_BLOCK_VALUES = 4096


def _chord(coords: List[float], d: List[float]) -> Tuple[float, float]:
    """The lambda interval of {coords + lam * d} inside every box face."""
    lo, hi = -math.inf, math.inf
    for si, di in zip(coords, d):
        # 0 - si <= 1 - si, so the face bounds come ordered by the sign of di.
        if di > 1e-16:
            a = (0.0 - si) / di
            b = (1.0 - si) / di
        elif di < -1e-16:
            a = (1.0 - si) / di
            b = (0.0 - si) / di
        else:
            continue
        if a > lo:
            lo = a
        if b < hi:
            hi = b
    return lo, hi


def _moved(coords: List[float], d: List[float], lam: float, total: float) -> List[float]:
    """coords + lam * d clipped into the box, with the (tiny) sum error spread
    evenly so the slice equation keeps holding to machine precision.

    Each clip is np.clip(v, 0.0, 1.0) on one float, keeping -0.0 as numpy does,
    and the sum is np.add.reduce, numpy's own pairwise sum, as np.sum takes it.
    """
    x = [
        0.0 if (v := si + lam * di) < 0.0 else 1.0 if v > 1.0 else v
        for si, di in zip(coords, d)
    ]
    shift = (total - float(np.add.reduce(x))) / len(x)
    return [0.0 if (v := xi + shift) < 0.0 else 1.0 if v > 1.0 else v for xi in x]


def _chain(s: np.ndarray, total: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The (count, n) states the chain from s keeps: after BURN_IN steps, then every THINNING."""
    n = s.size
    coords = s.tolist()
    states = np.empty((count, n))
    normal, uniform = rng.standard_normal, rng.random
    done, steps = 0, BURN_IN + THINNING * count
    redrawn_at = bad_norms = short_chords = 0
    while done < steps:
        start, entry = done, rng.bit_generator.state
        directions = np.empty((min(max(1, _BLOCK_VALUES // n), steps - done), n))
        draws = []
        for d in directions:
            normal(out=d)
            draws.append(uniform())
        # Centre and normalise each row with the bits of d - d.sum() / n and
        # sqrt(d.dot(d)): a row-wise add.reduce is each row's pairwise sum,
        # and a stacked matmul of a row by itself runs the same ddot.
        directions -= (np.add.reduce(directions, axis=1) / n)[:, None]
        norms = np.sqrt(np.matmul(directions[:, None, :], directions[:, :, None]).ravel())
        directions /= norms[:, None]
        for d, u, ok in zip(directions.tolist(), draws, (norms > _MIN_NORM).tolist()):
            if not ok:
                break
            lo, hi = _chord(coords, d)
            if not _MIN_CHORD < hi - lo < math.inf:
                break
            # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random().
            coords = _moved(coords, d, lo + (hi - lo) * u, total)
            done += 1
            if done > BURN_IN and (done - BURN_IN) % THINNING == 0:
                states[(done - BURN_IN) // THINNING - 1] = coords
        else:
            continue
        # Row done - start is redrawn, so no random() follows it.
        rng.bit_generator.state = entry
        for d in directions[: done - start]:
            normal(out=d)
            uniform()
        normal(out=directions[done - start])
        if done > redrawn_at:  # a step was completed since the last redraw
            redrawn_at, bad_norms, short_chords = done, 0, 0
        if not ok:
            bad_norms += 1
            if bad_norms == _MAX_DIRECTION_RETRIES:
                raise SamplerError("could not draw a usable in-slice direction")
            continue
        bad_norms = 0
        if not math.isfinite(hi - lo):
            raise SamplerError("direction is parallel to every box face")
        short_chords += 1
        if short_chords == _MAX_DIRECTION_RETRIES:
            raise SamplerError("no chord of positive length after bounded retries")
    return states


def sample_ddr_tuples(n: int, target: float, count: int, rng: np.random.Generator) -> np.ndarray:
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
        tuples = np.sqrt(_chain(np.full(n, big_r * big_r), total, count, rng))
    residual = float(np.max(np.abs(np.sum(np.square(tuples), axis=1) - total)))
    if not (residual <= 1e-9 and np.all((tuples >= 0.0) & (tuples <= 1.0))):
        raise SamplerError(
            f"tuples leave [0, 1] or miss the two-norm constraint by {residual:.3e}"
        )
    tuples.flags.writeable = False
    return tuples
