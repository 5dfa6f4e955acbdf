"""Dataset generators and feature-noise injection."""

import math

import numpy as np
import pytest

from ddrbench.datagen import (
    GENERATORS,
    REGRESSION,
    gen_friedman1,
    gen_linear_regression,
    gen_two_class,
    inject_noise,
)
from ddrbench.errors import DegenerateDeterministicError, DomainError
from ddrbench.evaluation import f1_score
from ddrbench.models import ModelSpec, fit, predict
from ddrbench.rng import make_rng
from ddrbench.sampler import sample_ddr_tuples
from ddrbench.signals import (
    ddr_approx,
    ddr_exact,
    matrix_ddr_power_ratio,
    power,
)


def per_column_standardize(d, r, rng):
    """Frozen one-column standardization that `inject_noise` must match bit for bit.

    alpha = sqrt(r) / S_d and beta = -(mean(d) / S_d) sqrt(r), where S_d is
    the sample standard deviation with the n-1 denominator; r = 0 gives the
    pure-noise column without touching S_d.  Returns the deterministic part
    alpha * d + beta and n fresh N(0, 1 - r) noise draws.
    """
    alpha = beta = 0.0
    if r > 0.0:
        s_d = float(np.std(d, ddof=1))
        sqrt_r = math.sqrt(r)
        alpha = sqrt_r / s_d
        beta = -(float(np.mean(d)) / s_d) * sqrt_r
    noise = rng.normal(0.0, math.sqrt(1.0 - r), size=d.size)
    return alpha * d + beta, noise


class TestLinearRegression:
    def test_ols_recovers_weights(self):
        data = gen_linear_regression(100, 5, make_rng(0))
        model = fit(ModelSpec("olsr"), data.features, data.targets)
        assert np.max(np.abs(predict(model, data.features) - data.targets)) <= 1e-8

    def test_zero_row_maps_to_zero(self):
        data = gen_linear_regression(50, 1, make_rng(1))
        # y = w * x exactly, so the fitted line passes through the origin
        model = fit(ModelSpec("olsr"), data.features, data.targets)
        assert predict(model, np.zeros((1, 1)))[0] == pytest.approx(0.0, abs=1e-8)

    def test_determinism(self):
        a = gen_linear_regression(100, 5, make_rng(42))
        b = gen_linear_regression(100, 5, make_rng(42))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_size_precondition(self):
        with pytest.raises(DomainError):
            gen_linear_regression(9, 5, make_rng(2))


class TestFriedman1:
    def test_center_point_value(self):
        # 10 sin(pi/4) + 0 + 5 + 2.5
        data = gen_friedman1(10, 6, make_rng(3))
        x = np.full((1, 6), 0.5)
        expected = 10.0 * math.sin(math.pi * 0.25) + 5.0 + 2.5
        got = (
            10.0 * np.sin(math.pi * x[:, 0] * x[:, 1])
            + 20.0 * (x[:, 2] - 0.5) ** 2
            + 10.0 * x[:, 3]
            + 5.0 * x[:, 4]
        )[0]
        assert got == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(14.5710678, abs=1e-6)

    def test_vanishing_point(self):
        # x1 = 0, x3 = 0.5, x4 = x5 = 0 makes every term zero
        x = np.array([0.0, 0.7, 0.5, 0.0, 0.0])
        value = (
            10.0 * math.sin(math.pi * x[0] * x[1])
            + 20.0 * (x[2] - 0.5) ** 2
            + 10.0 * x[3]
            + 5.0 * x[4]
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_inert_feature_ignored(self):
        data = gen_friedman1(200, 8, make_rng(4))
        perturbed = data.features.copy()
        perturbed[:, 5] = np.random.default_rng(0).permutation(perturbed[:, 5])
        recomputed = (
            10.0 * np.sin(math.pi * perturbed[:, 0] * perturbed[:, 1])
            + 20.0 * (perturbed[:, 2] - 0.5) ** 2
            + 10.0 * perturbed[:, 3]
            + 5.0 * perturbed[:, 4]
        )
        assert np.allclose(recomputed, data.targets)

    def test_needs_five_features(self):
        with pytest.raises(DomainError):
            gen_friedman1(100, 4, make_rng(5))


class TestTwoClass:
    def test_exact_balance(self):
        data = gen_two_class(1000, 10, make_rng(6))
        assert int(np.sum(data.targets == 0.0)) == 500
        assert int(np.sum(data.targets == 1.0)) == 500

    def test_zero_separation_is_chance_level(self):
        data = gen_two_class(1000, 10, make_rng(7), class_sep=0.0)
        model = fit(ModelSpec("blrc"), data.features[:800], data.targets[:800])
        score = f1_score(data.targets[800:], predict(model, data.features[800:]))
        assert 0.4 <= score <= 0.6

    def test_wide_separation_is_trivial(self):
        data = gen_two_class(1000, 10, make_rng(8), class_sep=10.0)
        model = fit(ModelSpec("blrc"), data.features[:800], data.targets[:800])
        assert f1_score(data.targets[800:], predict(model, data.features[800:])) >= 0.99

    def test_even_split_required(self):
        with pytest.raises(DomainError):
            gen_two_class(3, 5, make_rng(9))
        with pytest.raises(DomainError):
            gen_two_class(11, 5, make_rng(9))

    def test_determinism(self):
        a = gen_two_class(200, 6, make_rng(10))
        b = gen_two_class(200, 6, make_rng(10))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)


class TestInjectNoise:
    @pytest.mark.parametrize("generator_id", sorted(GENERATORS))
    @pytest.mark.parametrize("big_r", [0.0, 0.3, 1.0])
    def test_matches_per_column_standardization(self, generator_id, big_r):
        clean = GENERATORS[generator_id](200, 6, make_rng(30))
        t = sample_ddr_tuples(6, big_r, 1, make_rng(31))[0]
        noisy = inject_noise(clean, t, make_rng(32))
        rng = make_rng(32)
        for j, r in enumerate(t):
            det, noise = per_column_standardize(clean.features[:, j], r, rng)
            assert noisy.deterministic[:, j].tobytes() == det.tobytes()
            assert noisy.noise[:, j].tobytes() == noise.tobytes()

    def test_noiseless_tuple_is_affine(self):
        clean = gen_linear_regression(200, 3, make_rng(11))
        noisy = inject_noise(clean, [1.0, 1.0, 1.0], make_rng(12))
        assert np.array_equal(noisy.targets, clean.targets)
        for j in range(3):
            assert np.array_equal(noisy.noise[:, j], np.zeros(200))
            corr = np.corrcoef(clean.features[:, j], noisy.observed[:, j])[0, 1]
            assert corr == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_tuple_pure_noise(self):
        clean = gen_linear_regression(200, 2, make_rng(13))
        noisy = inject_noise(clean, [0.0, 0.0], make_rng(14))
        for j in range(2):
            assert float(ddr_approx(noisy.deterministic[:, j], noisy.noise[:, j])) == 0.0

    def test_per_column_ddr_tracks_tuple(self):
        clean = gen_linear_regression(10_000, 2, make_rng(15))
        noisy = inject_noise(clean, [0.25, 0.75], make_rng(16))
        for j, r in enumerate([0.25, 0.75]):
            realized = ddr_approx(noisy.deterministic[:, j], noisy.noise[:, j])
            assert float(realized) == pytest.approx(r, abs=0.05)

    def test_standardized_moments_at_scale(self):
        clean = gen_friedman1(10_000, 5, make_rng(17))
        noisy = inject_noise(
            clean, [0.1, 0.3, 0.5, 0.7, 0.9], make_rng(18)
        )
        for j in range(5):
            obs = noisy.observed[:, j]
            assert abs(float(np.mean(obs))) <= 0.05
            assert abs(float(power(obs)) - 1.0) <= 0.05

    def test_matrix_ddr_recorded(self):
        clean = gen_linear_regression(100, 2, make_rng(19))
        t = np.array([0.6, 0.8])
        noisy = inject_noise(clean, t, make_rng(20))
        assert noisy.rs.tobytes() == t.tobytes()
        assert not noisy.rs.flags.writeable

    @pytest.mark.parametrize("big_r", [0.2, 0.5, 0.8])
    def test_realized_ddr_tracks_nominal(self, big_r):
        clean = gen_linear_regression(20_000, 10, make_rng(40))
        t = sample_ddr_tuples(10, big_r, 1, make_rng(41))[0]
        noisy = inject_noise(clean, t, make_rng(42))
        for j, r in enumerate(t):
            realized = ddr_exact(noisy.deterministic[:, j], noisy.noise[:, j])
            assert abs(float(realized) - r) <= 0.02, (j, float(realized), r)
        # Each observed column has power ~1, so the pooled ratio is the mean
        # of the per-column DDRs, which lies below the two-norm R.
        pooled = float(matrix_ddr_power_ratio(noisy.deterministic, noisy.noise))
        assert abs(pooled - float(np.mean(t))) <= 0.01, (pooled, np.mean(t))

    def test_observed_is_derived_sum(self):
        clean = gen_linear_regression(50, 2, make_rng(25))
        noisy = inject_noise(clean, [0.3, 0.6], make_rng(26))
        assert np.array_equal(noisy.observed, noisy.deterministic + noisy.noise)

    def test_matrices_read_only(self):
        clean = gen_linear_regression(50, 2, make_rng(27))
        noisy = inject_noise(clean, [0.3, 0.6], make_rng(28))
        for arr in (noisy.deterministic, noisy.noise, noisy.targets):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, ...] = 0.0

    def test_tuple_length_mismatch(self):
        clean = gen_linear_regression(100, 3, make_rng(21))
        with pytest.raises(DomainError):
            inject_noise(clean, [0.5, 0.5], make_rng(22))

    @pytest.mark.parametrize(
        "rs",
        [[-0.1, 0.5], [0.5, 1.1], [0.5, math.nan], [[0.5, 0.5]]],
        ids=["negative", "above-one", "nan", "two-dimensional"],
    )
    def test_bad_ddr_vector_rejected(self, rs):
        clean = gen_linear_regression(100, 2, make_rng(21))
        with pytest.raises(DomainError):
            inject_noise(clean, rs, make_rng(22))

    def test_constant_column_error_names_index(self):
        from ddrbench.datagen import CleanDataset

        features = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        clean = CleanDataset(features, np.arange(10.0), REGRESSION)
        with pytest.raises(DegenerateDeterministicError, match="column 1"):
            inject_noise(clean, [0.5, 0.5], make_rng(23))

    def test_constant_column_fine_at_zero_ddr(self):
        from ddrbench.datagen import CleanDataset

        features = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        clean = CleanDataset(features, np.arange(10.0), REGRESSION)
        noisy = inject_noise(clean, [0.5, 0.0], make_rng(24))
        assert np.array_equal(noisy.deterministic[:, 1], np.zeros(10))

    def test_constant_column_error_names_lowest_index(self):
        from ddrbench.datagen import CleanDataset

        features = np.column_stack([np.arange(10.0), np.full(10, 3.0), np.full(10, -1.0)])
        clean = CleanDataset(features, np.arange(10.0), REGRESSION)
        with pytest.raises(DegenerateDeterministicError, match="column 1 is constant but requests DDR 0.5"):
            inject_noise(clean, [0.5, 0.5, 0.25], make_rng(23))
        with pytest.raises(DegenerateDeterministicError, match="column 2 is constant but requests DDR 0.25"):
            inject_noise(clean, [0.5, 0.0, 0.25], make_rng(23))

    def test_single_sample_needs_zero_ddr(self):
        from ddrbench.datagen import CleanDataset

        clean = CleanDataset(np.ones((1, 2)), np.ones(1), REGRESSION)
        with pytest.raises(DomainError, match="at least two samples"):
            inject_noise(clean, [0.5, 0.0], make_rng(23))
        noisy = inject_noise(clean, [0.0, 0.0], make_rng(23))
        assert np.array_equal(noisy.deterministic, np.zeros((1, 2)))


class TestCleanDataset:
    def test_takes_ownership_without_copy(self):
        from ddrbench.datagen import CleanDataset

        features, targets = np.ones((4, 2)), np.arange(4.0)
        clean = CleanDataset(features, targets, REGRESSION)
        assert clean.features is features and clean.targets is targets
        assert not features.flags.writeable and not targets.flags.writeable

    def test_converts_other_dtypes(self):
        from ddrbench.datagen import CleanDataset

        clean = CleanDataset([[1, 2], [3, 4]], [0, 1], REGRESSION)
        assert clean.features.dtype == np.float64 and clean.targets.dtype == np.float64
        assert not clean.features.flags.writeable
