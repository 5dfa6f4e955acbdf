"""DDR-invariant standardization of deterministic signals."""

import math

import numpy as np
import pytest

from ddrbench.errors import DegenerateDeterministicError, DomainError
from ddrbench.rng import make_rng
from ddrbench.signals import ddr_approx, power
from ddrbench.standardize import StandardizationParams, ddr_invariant_standardize, standardize_params


class TestParams:
    def test_hand_values(self):
        # d = [0, 2]: mean 1, sample std sqrt(2)
        p = standardize_params([0, 2], 0.5)
        assert p.alpha == pytest.approx(0.5, abs=1e-12)
        assert p.beta == pytest.approx(-0.5, abs=1e-12)
        assert p.noise_variance == pytest.approx(0.5, abs=1e-12)

    def test_full_ddr_kills_noise(self):
        assert standardize_params([1, 5, 2], 1.0).noise_variance == 0.0

    def test_zero_ddr_pure_noise(self):
        p = standardize_params([3, 3, 3], 0.0)
        assert p.alpha == 0.0
        assert p.noise_variance == 1.0

    def test_constant_signal_rejected_for_positive_ddr(self):
        with pytest.raises(DegenerateDeterministicError):
            standardize_params([2, 2, 2], 0.5)

    def test_short_signal_rejected(self):
        with pytest.raises(DomainError):
            standardize_params([1.0], 0.5)

    def test_params_invariant_guard(self):
        with pytest.raises(DomainError):
            StandardizationParams(alpha=0.0, beta=0.0, noise_variance=0.5)
        with pytest.raises(DomainError):
            StandardizationParams(alpha=1.0, beta=0.0, noise_variance=1.5)


class TestStandardize:
    def test_noiseless_case_exact(self):
        det, noise = ddr_invariant_standardize([0, 2], 1.0, make_rng(0))
        assert np.allclose(det, [-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.array_equal(noise, [0.0, 0.0])

    def test_pure_noise_case(self):
        det, _ = ddr_invariant_standardize([5, 7, 9, 11], 0.0, make_rng(1))
        assert np.array_equal(det, np.zeros(4))
        _, big_noise = ddr_invariant_standardize(np.arange(10_000.0), 0.0, make_rng(2))
        assert power(big_noise) == pytest.approx(1.0, abs=0.05)

    def test_monte_carlo_ddr(self):
        d = make_rng(7).uniform(0.0, 1.0, 10_000)
        det, noise = ddr_invariant_standardize(d, 0.25, make_rng(8))
        assert ddr_approx(det, noise) == pytest.approx(0.25, abs=0.05)

    def test_affine_image_perfect_correlation(self):
        d = make_rng(9).standard_normal(500)
        det, _ = ddr_invariant_standardize(d, 0.6, make_rng(10))
        corr = np.corrcoef(d, det)[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        d = make_rng(11).standard_normal(64)
        a = ddr_invariant_standardize(d, 0.4, make_rng(12))
        b = ddr_invariant_standardize(d, 0.4, make_rng(12))
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 1.0])
    def test_guarantees_at_large_length(self, r):
        # Mean ~0, power ~1, DDR ~r; asymptotic, so tolerance-based.
        for seed in range(5):
            d = make_rng(100 + seed).uniform(0.0, 1.0, 10_000)
            det, noise = ddr_invariant_standardize(d, r, make_rng(200 + seed))
            obs = det + noise
            assert abs(float(np.mean(obs))) <= 0.05
            assert abs(float(power(obs)) - 1.0) <= 0.05
            assert abs(float(ddr_approx(det, noise)) - r) <= 0.05
