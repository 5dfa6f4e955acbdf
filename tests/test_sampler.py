"""Hit-and-run chain behavior and DDR tuple sampling."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ddrbench.errors import DomainError
from ddrbench.rng import make_rng
from ddrbench.sampler import BoxSlice, DdrTuple, _step, sample_ddr_tuples
from ddrbench.signals import DdrValue


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


class TestDdrTuple:
    def test_constraint_enforced(self):
        with pytest.raises(DomainError):
            DdrTuple((DdrValue(0.5), DdrValue(0.5)), DdrValue(0.9))

    def test_valid_tuple(self):
        t = DdrTuple((DdrValue(0.6), DdrValue(0.8)), DdrValue(np.sqrt(0.5)))
        assert len(t) == 2


class TestHitAndRun:
    def test_slice_sum_preserved(self):
        region = BoxSlice(4, 1.2)
        x, rng = np.full(4, 0.3), make_rng(4)
        for _ in range(500):
            x = _step(region, x, rng)
            assert abs(x.sum() - 1.2) <= 1e-9
            assert 0.0 <= x.min() and x.max() <= 1.0


class TestSampleDdrTuples:
    def test_single_column_forced(self):
        tuples = sample_ddr_tuples(1, 0.6, 3, make_rng(5))
        assert [tuple(map(float, t.rs)) for t in tuples] == [(0.6,)] * 3

    def test_full_ddr_forced_corner(self):
        tuples = sample_ddr_tuples(2, 1.0, 4, make_rng(6))
        assert all(tuple(map(float, t.rs)) == (1.0, 1.0) for t in tuples)

    def test_zero_ddr_forced_corner(self):
        tuples = sample_ddr_tuples(3, 0.0, 2, make_rng(7))
        assert all(tuple(map(float, t.rs)) == (0.0, 0.0, 0.0) for t in tuples)

    def test_constraint_and_membership(self):
        for n, big_r in [(2, 0.3), (3, 0.5), (5, 0.9), (10, 0.1)]:
            tuples = sample_ddr_tuples(n, big_r, 50, make_rng(8))
            for t in tuples:
                assert all(0.0 <= r <= 1.0 for r in t.rs)
                assert abs(sum(r * r for r in t.rs) - n * big_r**2) <= 1e-9

    def test_seed_determinism(self):
        a = sample_ddr_tuples(4, 0.6, 10, make_rng(9))
        b = sample_ddr_tuples(4, 0.6, 10, make_rng(9))
        assert [t.rs for t in a] == [t.rs for t in b]

    def test_marginals_match_rejection_oracle(self):
        # Uniformity holds for the squared tuples; compare in s-space.
        n, big_r, count = 3, 0.5, 2000
        tuples = sample_ddr_tuples(n, big_r, count, make_rng(10))
        chain = np.array([[float(r) ** 2 for r in t.rs] for t in tuples])
        oracle = rejection_oracle(n, n * big_r**2, count, make_rng(11))
        for j in range(n):
            assert ks_2samp(chain[:, j], oracle[:, j]).pvalue > 0.01

    def test_high_level_slice_against_oracle(self):
        # total > 1 exercises the rejection step of the oracle too.
        n, big_r, count = 2, 0.9, 2000
        tuples = sample_ddr_tuples(n, big_r, count, make_rng(12))
        chain = np.array([[float(r) ** 2 for r in t.rs] for t in tuples])
        oracle = rejection_oracle(n, n * big_r**2, count, make_rng(13))
        assert ks_2samp(chain[:, 0], oracle[:, 0]).pvalue > 0.01

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            sample_ddr_tuples(0, 0.5, 1, make_rng(14))
        with pytest.raises(DomainError):
            sample_ddr_tuples(2, 0.5, 0, make_rng(15))
        with pytest.raises(DomainError):
            sample_ddr_tuples(2, 1.5, 1, make_rng(16))
