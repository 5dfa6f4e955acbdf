"""Hit-and-run chain behavior and DDR tuple sampling."""

import hashlib

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ddrbench import sampler
from ddrbench.errors import DomainError, SamplerError
from ddrbench.harness import _grid_key, seed_derivation
from ddrbench.rng import make_rng
from ddrbench.sampler import _direction, _step, sample_ddr_tuples


def rejection_oracle(n, total, count, rng):
    """Uniform points on {s >= 0, sum s = total} cut to the unit box.

    Dirichlet(1..1) scaled by the total is uniform on the simplex slice;
    rejecting points with any coordinate above 1 leaves the box portion.
    """
    out = []
    while len(out) < count:
        block = rng.dirichlet(np.ones(n), size=2 * count) * total
        keep = block[np.all(block <= 1.0, axis=1)]
        out.extend(keep.tolist())
    return np.asarray(out[:count])


class TestHitAndRun:
    def test_slice_sum_preserved(self):
        x, rng = np.full(4, 0.3), make_rng(4)
        for _ in range(500):
            x = _step(x, 1.2, rng)
            assert abs(x.sum() - 1.2) <= 1e-9
            assert 0.0 <= x.min() and x.max() <= 1.0


def numpy_direction(n, rng):
    """The chain's direction as it was first written, in numpy calls."""
    for _ in range(sampler._MAX_DIRECTION_RETRIES):
        d = rng.standard_normal(n)
        d -= d.mean()
        norm = float(np.linalg.norm(d))
        if norm > 1e-12:
            return d / norm
    raise SamplerError("could not draw a usable in-slice direction")


def numpy_step(s, total, rng):
    """The chain's step as it was first written, in numpy calls: the bit reference."""
    for _ in range(sampler._MAX_DIRECTION_RETRIES):
        d = numpy_direction(s.size, rng)
        moving = np.abs(d) > 1e-16
        a = (0.0 - s[moving]) / d[moving]
        b = (1.0 - s[moving]) / d[moving]
        lo = float(np.max(np.minimum(a, b), initial=-np.inf))
        hi = float(np.min(np.maximum(a, b), initial=np.inf))
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise SamplerError("direction is parallel to every box face")
        if hi - lo > sampler._MIN_CHORD:
            lam = rng.uniform(lo, hi)
            x = np.clip(s + lam * d, 0.0, 1.0)
            x = x + (total - float(np.sum(x))) / s.size
            return np.clip(x, 0.0, 1.0)
    raise SamplerError("no chord of positive length after bounded retries")


class TestStepBits:
    @pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
    @pytest.mark.parametrize("big_r", [1e-3, 0.3, 0.7, 0.999])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_matches_numpy_reference(self, n, big_r, seed):
        # Both steps draw from twin streams; every state, and the streams
        # themselves, must stay identical along the chain.
        total = n * big_r * big_r
        s = np.full(n, big_r * big_r)
        ours, ref = make_rng(seed), make_rng(seed)
        for _ in range(60):
            got, expected = _step(s, total, ours), numpy_step(s, total, ref)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == expected.tobytes()
            s = got
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
    def test_direction_matches_numpy_reference(self, n):
        ours, ref = make_rng(n), make_rng(n)
        for _ in range(20):
            assert _direction(n, ours).tobytes() == numpy_direction(n, ref).tobytes()

    @pytest.mark.parametrize(
        "state",
        [
            [0.0, 0.4, 0.6, 0.5],
            [-0.0, 0.4, 0.6, 0.5],
            [1.0, 0.4, 0.6, 0.5],
            [0.0, 1.0, 0.3, 0.7, 0.5],
            [0.0, 1.0, -0.0, 0.5, 1.0, 0.0, 0.25, 0.75],
        ],
        ids=["zero", "negative-zero", "one", "zero-and-one", "mostly-faces"],
    )
    def test_step_on_box_faces_matches(self, state):
        # Coordinates on the box faces put the chord bounds and both clips at
        # their edges; a state on many faces has no chord left and must fail
        # the same way in both.
        s = np.array(state)
        total = float(np.sum(s))

        def outcome(step, seed):
            rng = make_rng(seed)
            try:
                result = step(s, total, rng).tobytes()
            except SamplerError as exc:
                result = str(exc)
            return result, rng.bit_generator.state

        for seed in range(40):
            assert outcome(_step, seed) == outcome(numpy_step, seed)


def chain_tuples(step, n, big_r, count, rng):
    """The tuples of a chain that draws as it steps, one `step` at a time."""
    total = n * big_r * big_r
    s = np.full(n, big_r * big_r)
    for _ in range(sampler.BURN_IN):
        s = step(s, total, rng)
    rows = []
    for _ in range(count):
        for _ in range(sampler.THINNING):
            s = step(s, total, rng)
        rows.append(np.sqrt(s))
    return np.array(rows)


def chain_outcome(chain, rng):
    """A chain's tuple bytes or error message, and the generator state it leaves."""
    try:
        result = chain(rng).tobytes()
    except SamplerError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


# Enough tuples that every chain below spans more than one pre-drawn block.
LONG_COUNT = 420


class TestDrawnChain:
    def test_long_count_spans_blocks(self):
        steps = sampler.BURN_IN + sampler.THINNING * LONG_COUNT
        assert steps > sampler._BLOCK_VALUES // 2  # rows per block at n = 2

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 200])
    @pytest.mark.parametrize("big_r", [1e-3, 0.4, 0.999])
    @pytest.mark.parametrize("count", [1, 5, LONG_COUNT])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_stepped_chain(self, monkeypatch, n, big_r, count, seed):
        ref, ours = make_rng(seed), make_rng(seed)
        expected = chain_tuples(_step, n, big_r, count, ref)

        def no_step(s, total, rng):
            raise AssertionError("the pre-drawn chain fell back to _step")

        monkeypatch.setattr(sampler, "_step", no_step)
        got = sample_ddr_tuples(n, big_r, count, ours)
        assert got.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "n, big_r, min_chord, fails",
        [
            (3, 0.5, 0.3, False),
            (10, 0.7, 0.3, False),
            (5, 0.3, 0.07, False),
            (3, 0.5, 10.0, True),
            (2, 0.9, 0.6, True),
        ],
        ids=["n3-some", "n10-some", "n5-some", "n3-every", "n2-every"],
    )
    def test_retrying_chain_matches_numpy_steps(self, monkeypatch, n, big_r, min_chord, fails):
        # With chords this long required, some steps (or every step) retry,
        # so the pre-drawn stream is wrong from there on and the chain must
        # restart from the generator state at entry, one `_step` at a time.
        monkeypatch.setattr(sampler, "_MIN_CHORD", min_chord)
        expected = chain_outcome(
            lambda rng: chain_tuples(numpy_step, n, big_r, 5, rng), make_rng(6)
        )
        steps = []
        step = sampler._step
        monkeypatch.setattr(sampler, "_step", lambda *args: steps.append(1) or step(*args))
        got = chain_outcome(lambda rng: sample_ddr_tuples(n, big_r, 5, rng), make_rng(6))
        assert got == expected
        assert isinstance(got[0], str) == fails  # "no chord ... after bounded retries"
        assert steps  # the fallback ran

    def test_pairwise_sum_matches_numpy(self):
        # Lengths on both sides of numpy's 8-value unroll and 128-value block.
        rng = make_rng(3)
        for n in [*range(1, 300), 1000, 5000]:
            for scale in (1.0, 1e-300, 1e300):
                x = scale * rng.standard_normal(n) * rng.uniform(0.0, 1e3, n)
                assert sampler._pairwise_sum(x.tolist()) == float(np.add.reduce(x)), (n, scale)


class TestSampleDdrTuples:
    def test_single_column_forced(self):
        tuples = sample_ddr_tuples(1, 0.6, 3, make_rng(5))
        assert [tuple(map(float, t)) for t in tuples] == [(0.6,)] * 3

    def test_full_ddr_forced_corner(self):
        tuples = sample_ddr_tuples(2, 1.0, 4, make_rng(6))
        assert all(tuple(map(float, t)) == (1.0, 1.0) for t in tuples)

    def test_zero_ddr_forced_corner(self):
        tuples = sample_ddr_tuples(3, 0.0, 2, make_rng(7))
        assert all(tuple(map(float, t)) == (0.0, 0.0, 0.0) for t in tuples)

    def test_constraint_and_membership(self):
        for n, big_r in [(2, 0.3), (3, 0.5), (5, 0.9), (10, 0.1)]:
            tuples = sample_ddr_tuples(n, big_r, 50, make_rng(8))
            for t in tuples:
                assert all(0.0 <= r <= 1.0 for r in t)
                assert abs(sum(r * r for r in t) - n * big_r**2) <= 1e-9

    def test_seed_determinism(self):
        a = sample_ddr_tuples(4, 0.6, 10, make_rng(9))
        b = sample_ddr_tuples(4, 0.6, 10, make_rng(9))
        assert np.array_equal(a, b)

    def test_marginals_match_rejection_oracle(self):
        # Uniformity holds for the squared tuples; compare in s-space.
        n, big_r, count = 3, 0.5, 2000
        tuples = sample_ddr_tuples(n, big_r, count, make_rng(10))
        chain = np.square(tuples)
        oracle = rejection_oracle(n, n * big_r**2, count, make_rng(11))
        for j in range(n):
            assert ks_2samp(chain[:, j], oracle[:, j]).pvalue > 0.01

    def test_high_level_slice_against_oracle(self):
        # total > 1 exercises the rejection step of the oracle too.
        n, big_r, count = 2, 0.9, 2000
        tuples = sample_ddr_tuples(n, big_r, count, make_rng(12))
        chain = np.square(tuples)
        oracle = rejection_oracle(n, n * big_r**2, count, make_rng(13))
        assert ks_2samp(chain[:, 0], oracle[:, 0]).pvalue > 0.01

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            sample_ddr_tuples(0, 0.5, 1, make_rng(14))
        with pytest.raises(DomainError):
            sample_ddr_tuples(2, 0.5, 0, make_rng(15))
        with pytest.raises(DomainError):
            sample_ddr_tuples(2, 1.5, 1, make_rng(16))


# sha256 of sample_ddr_tuples(...).tobytes().  The digests pin the chain's
# bits: an edit that changes any bit of any tuple fails here.
CHAIN_DIGESTS = [
    ((4, 0.6, 10, 9), "d326dd0be84c84a9a0f3da8f85e24ef30a885c3e95a118be92179fe4514fb328"),
    ((2, 0.9, 20, 12), "4abb3c8a5196c391e8ec8f1ed6ceb93039ed212a0093bc68dabf795ca14fb3a1"),
    ((50, 0.05, 3, 3), "8c5b932b5f928dc2d2813e1068862069c40676342ac73130166f8dfd5097a440"),
]

# The chains a default sweep at master seed 0 runs at these grid points.
SWEEP_CHAIN_DIGESTS = {
    0.5: "ef77e6a2e0c44e5d86abbd6d71b55f97d2d1eb977dc4e8f69b36a31a525adc9a",
    0.95: "5662d9ad28f87baa9ef0c4dbc048bb8f326ba97b008d402fc479de0c8299a7d9",
}


class TestArrayContract:
    @pytest.mark.parametrize(
        "n, big_r, count", [(4, 0.6, 3), (1, 0.6, 2), (3, 0.0, 2), (2, 1.0, 4)]
    )
    def test_read_only_float_matrix(self, n, big_r, count):
        tuples = sample_ddr_tuples(n, big_r, count, make_rng(1))
        assert tuples.shape == (count, n)
        assert tuples.dtype == np.float64
        assert not tuples.flags.writeable
        with pytest.raises(ValueError):
            tuples[0, 0] = 0.5

    @pytest.mark.parametrize("args, digest", CHAIN_DIGESTS)
    def test_chain_bytes_pinned(self, args, digest):
        n, big_r, count, seed = args
        tuples = sample_ddr_tuples(n, big_r, count, make_rng(seed))
        assert hashlib.sha256(tuples.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("ddr", sorted(SWEEP_CHAIN_DIGESTS))
    def test_sweep_chain_bytes_pinned(self, ddr):
        rng = make_rng(seed_derivation(0, _grid_key(ddr), 0, "sampler"))
        tuples = sample_ddr_tuples(10, ddr, 5, rng)
        assert hashlib.sha256(tuples.tobytes()).hexdigest() == SWEEP_CHAIN_DIGESTS[ddr]

    @pytest.mark.parametrize(
        "off_slice",
        [
            # drifts off the sum constraint
            lambda s, total, count, rng: np.tile(s + 1e-3, (count, 1)),
            # on the sum, off the box
            lambda s, total, count, rng: np.tile(np.array([0.0, 2.0, 1.0]) * total / 3, (count, 1)),
        ],
        ids=["sum-drift", "outside-box"],
    )
    def test_off_slice_chain_raises(self, monkeypatch, off_slice):
        monkeypatch.setattr(sampler, "_chain", off_slice)
        with pytest.raises(SamplerError):
            sample_ddr_tuples(3, 0.8, 2, make_rng(2))
