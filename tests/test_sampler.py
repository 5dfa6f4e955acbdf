"""Hit-and-run chain behavior and DDR tuple sampling."""

import hashlib

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ddrbench import sampler
from ddrbench.errors import DomainError, SamplerError
from ddrbench.harness import _grid_key, seed_derivation
from ddrbench.rng import make_rng
from ddrbench.sampler import sample_ddr_tuples


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


@pytest.fixture
def every_state(monkeypatch):
    """`sampler._chain` with no burn-in or thinning, so it keeps every state."""
    monkeypatch.setattr(sampler, "BURN_IN", 0)
    monkeypatch.setattr(sampler, "THINNING", 1)
    return sampler._chain


class TestHitAndRun:
    def test_slice_sum_preserved(self, every_state):
        for x in every_state(np.full(4, 0.3), 1.2, 500, make_rng(4)):
            assert abs(x.sum() - 1.2) <= 1e-9
            assert 0.0 <= x.min() and x.max() <= 1.0


def numpy_direction(n, rng):
    """The chain's direction as it was first written, in numpy calls."""
    for _ in range(sampler._MAX_DIRECTION_RETRIES):
        d = rng.standard_normal(n)
        d -= d.mean()
        norm = float(np.linalg.norm(d))
        if norm > sampler._MIN_NORM:
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
    # 7, 8, 9, 128 and 129 sit at the edges of numpy's pairwise sum: in order
    # under 8 values, 8 running sums up to 128, split in halves beyond.
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 10, 50, 128, 129, 200])
    @pytest.mark.parametrize("big_r", [1e-3, 0.3, 0.7, 0.999])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_matches_numpy_reference(self, every_state, n, big_r, seed):
        # The chain and the reference steps draw from twin streams; every
        # state, and the streams themselves, must stay identical.
        total = n * big_r * big_r
        s = np.full(n, big_r * big_r)
        ours, ref = make_rng(seed), make_rng(seed)
        got = every_state(s, total, 60, ours)
        assert got.dtype == np.float64 and got.shape == (60, n)
        for row in got:
            s = numpy_step(s, total, ref)
            assert row.tobytes() == s.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state

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
    def test_step_on_box_faces_matches(self, every_state, state):
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

        def one_state(s, total, rng):
            return every_state(s, total, 1, rng)[0]

        for seed in range(40):
            assert outcome(one_state, seed) == outcome(numpy_step, seed)


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


# Patched minima under which some steps (or every step) redraw.
RETRY_CASES = [
    pytest.param(3, 0.5, {"_MIN_CHORD": 0.3}, False, id="n3-some"),
    pytest.param(10, 0.7, {"_MIN_CHORD": 0.3}, False, id="n10-some"),
    pytest.param(5, 0.3, {"_MIN_CHORD": 0.07}, False, id="n5-some"),
    pytest.param(3, 0.5, {"_MIN_CHORD": 10.0}, True, id="n3-every"),
    pytest.param(2, 0.9, {"_MIN_CHORD": 0.6}, True, id="n2-every"),
    pytest.param(3, 0.5, {"_MIN_NORM": 1.0}, False, id="n3-some-norms"),
    pytest.param(10, 0.5, {"_MIN_NORM": 2.8}, False, id="n10-some-norms"),
    pytest.param(2, 0.5, {"_MIN_NORM": 5.0}, True, id="n2-every-norm"),
    # Every chord is too short, and 70% (or 5%) of the norms are too small:
    # a usable direction resets the count of bad norms, and a bad norm does
    # not reset the count of short chords.
    pytest.param(
        3, 0.5, {"_MIN_CHORD": 10.0, "_MIN_NORM": 1.55}, True, id="n3-every-chord-most-norms"
    ),
    pytest.param(
        3, 0.5, {"_MIN_CHORD": 10.0, "_MIN_NORM": 0.32}, True, id="n3-every-chord-few-norms"
    ),
]


def check_retrying_chain(monkeypatch, n, big_r, minima, fails):
    """A 5-tuple chain under patched minima must match numpy_step's outcome,
    end with the retry limit's message exactly when `fails`, and differ from
    the same seed's chain at the default minima."""

    def chain(rng):
        return sample_ddr_tuples(n, big_r, 5, rng)

    plain = chain_outcome(chain, make_rng(6))
    for name, value in minima.items():
        monkeypatch.setattr(sampler, name, value)
    expected = chain_outcome(
        lambda rng: chain_tuples(numpy_step, n, big_r, 5, rng), make_rng(6)
    )
    got = chain_outcome(chain, make_rng(6))
    assert got == expected
    assert isinstance(got[0], str) == fails
    assert got != plain  # some step redrew


class TestDrawnChain:
    def test_long_count_spans_blocks(self):
        steps = sampler.BURN_IN + sampler.THINNING * LONG_COUNT
        assert steps > sampler._BLOCK_VALUES // 2  # rows per block at n = 2

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 200])
    @pytest.mark.parametrize("big_r", [1e-3, 0.4, 0.999])
    @pytest.mark.parametrize("count", [1, 5, LONG_COUNT])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_stepped_chain(self, n, big_r, count, seed):
        ref, ours = make_rng(seed), make_rng(seed)
        expected = chain_tuples(numpy_step, n, big_r, count, ref)
        got = sample_ddr_tuples(n, big_r, count, ours)
        assert got.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n, big_r, minima, fails", RETRY_CASES)
    def test_retrying_chain_matches_numpy_steps(self, monkeypatch, n, big_r, minima, fails):
        # With chords this long, or direction norms this large, required,
        # some steps (or every step) redraw their direction, so the chain
        # must rewind and redraw its stream from there on.
        check_retrying_chain(monkeypatch, n, big_r, minima, fails)

    @pytest.mark.parametrize("n, big_r, minima, fails", RETRY_CASES)
    def test_one_row_blocks_retry_per_step(self, monkeypatch, n, big_r, minima, fails):
        # With one row per block every redraw opens a block, yet the retry
        # counts must still start again at each step, not at each block.
        monkeypatch.setattr(sampler, "_BLOCK_VALUES", n)
        check_retrying_chain(monkeypatch, n, big_r, minima, fails)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_redraw_in_a_later_block_matches_numpy_steps(self, monkeypatch, seed):
        # Near the 0.2% quantile of chord lengths: a few steps of each chain
        # redraw, most of them blocks after the first, so the rewind must
        # replay that block's rows up to the redrawn one.
        def chain(rng):
            return sample_ddr_tuples(10, 0.5, LONG_COUNT, rng)

        plain = chain_outcome(chain, make_rng(seed))
        monkeypatch.setattr(sampler, "_MIN_CHORD", 0.0151)
        expected = chain_outcome(
            lambda rng: chain_tuples(numpy_step, 10, 0.5, LONG_COUNT, rng), make_rng(seed)
        )
        got = chain_outcome(chain, make_rng(seed))
        assert got == expected
        assert got != plain


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
