"""DDR-invariant standardization of deterministic signals, as `inject_noise` does it.

Each case standardizes one signal as the single column of a feature matrix.
"""

import math

import numpy as np
import pytest

from ddrbench.datagen import inject_noise
from ddrbench.errors import DegenerateDeterministicError, DomainError
from ddrbench.rng import make_rng
from ddrbench.signals import ddr_approx, power


def standardize(d, r, seed):
    """The deterministic and noise parts of signal d standardized at DDR r."""
    d = np.asarray(d, dtype=np.float64)
    det, noise = inject_noise(d[:, None], [r], make_rng(seed))
    return det[:, 0], noise[:, 0]


class TestParams:
    def test_hand_values(self):
        # d = [0, 2]: mean 1, sample std sqrt(2), so alpha = 0.5 and beta = -0.5.
        det, _ = standardize([0, 2], 0.5, 0)
        assert det == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_full_ddr_kills_noise(self):
        _, noise = standardize([1, 5, 2], 1.0, 0)
        assert np.array_equal(noise, np.zeros(3))

    def test_zero_ddr_pure_noise(self):
        det, _ = standardize([3, 3, 3], 0.0, 0)
        assert np.array_equal(det, np.zeros(3))

    def test_constant_signal_rejected_for_positive_ddr(self):
        with pytest.raises(DegenerateDeterministicError):
            standardize([2, 2, 2], 0.5, 0)

    def test_short_signal_rejected(self):
        with pytest.raises(DomainError):
            standardize([1.0], 0.5, 0)


class TestStandardize:
    def test_noiseless_case_exact(self):
        det, noise = standardize([0, 2], 1.0, 0)
        assert np.allclose(det, [-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.array_equal(noise, [0.0, 0.0])

    def test_pure_noise_case(self):
        det, _ = standardize([5, 7, 9, 11], 0.0, 1)
        assert np.array_equal(det, np.zeros(4))
        _, big_noise = standardize(np.arange(10_000.0), 0.0, 2)
        assert power(big_noise) == pytest.approx(1.0, abs=0.05)

    def test_monte_carlo_ddr(self):
        d = make_rng(7).uniform(0.0, 1.0, 10_000)
        det, noise = standardize(d, 0.25, 8)
        assert ddr_approx(det, noise) == pytest.approx(0.25, abs=0.05)

    def test_affine_image_perfect_correlation(self):
        d = make_rng(9).standard_normal(500)
        det, _ = standardize(d, 0.6, 10)
        corr = np.corrcoef(d, det)[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        d = make_rng(11).standard_normal(64)
        a = standardize(d, 0.4, 12)
        b = standardize(d, 0.4, 12)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 1.0])
    def test_guarantees_at_large_length(self, r):
        # Mean ~0, power ~1, DDR ~r; asymptotic, so tolerance-based.
        for seed in range(5):
            d = make_rng(100 + seed).uniform(0.0, 1.0, 10_000)
            det, noise = standardize(d, r, 200 + seed)
            obs = det + noise
            assert abs(float(np.mean(obs))) <= 0.05
            assert abs(float(power(obs)) - 1.0) <= 0.05
            assert abs(float(ddr_approx(det, noise)) - r) <= 0.05
