"""Power and DDR arithmetic on plain arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrbench.errors import DegenerateSignalError, DomainError
from numpy.random import default_rng as make_rng
from ddrbench.signals import (
    DdrValue,
    ddr_approx,
    ddr_exact,
    matrix_ddr_power_ratio,
    matrix_ddr_two_norm,
    power,
)


class TestSignalTypes:
    def test_ddr_value_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            DdrValue(1.0000001)
        with pytest.raises(DomainError):
            DdrValue(-0.1)

    def test_ddr_clamped_keeps_raw(self):
        v = DdrValue.clamped(1.25)
        assert v == 1.0
        assert v.raw == 1.25


class TestPower:
    def test_zero_signal(self):
        assert power([0, 0, 0]) == 0.0

    def test_unit_constant(self):
        assert power([1, 1, 1, 1]) == 1.0

    def test_direct_sum(self):
        # (1 + 4 + 9) / 3 evaluated by hand
        assert power([1, 2, 3]) == pytest.approx(14.0 / 3.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            power([])

    def test_non_finite_rejected(self):
        for bad in ([1.0, float("nan")], [1.0, float("inf")]):
            with pytest.raises(DomainError):
                power(bad)
            with pytest.raises(DomainError):
                ddr_exact(bad, [0.0, 0.0])
            with pytest.raises(DomainError):
                ddr_approx([0.0, 0.0], bad)

    def test_non_finite_result_rejected(self):
        # Every value is finite, but the mean of squares overflows.
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            power([1e200])

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(DomainError):
            power([[1.0, 2.0]])
        with pytest.raises(DomainError):
            ddr_exact([[1.0]], [[0.0]])

    @given(
        c=st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-6),
        values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
    )
    @settings(max_examples=100)
    def test_quadratic_scaling(self, c, values):
        base = power(values)
        scaled = power([c * v for v in values])
        assert scaled == pytest.approx(c * c * base, rel=1e-12, abs=1e-12)


class TestDdr:
    def test_exact_noise_free(self):
        assert ddr_exact([1, 1], [0, 0]) == 1.0

    def test_exact_pure_noise(self):
        assert ddr_exact([0, 0], [1, -1]) == 0.0

    def test_exact_hand_value(self):
        # P(D) = 4, P(Y) = P([3, 1]) = 5
        assert ddr_exact([2, 2], [1, -1]) == pytest.approx(0.8, abs=1e-9)

    def test_exact_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            ddr_exact([1, -1], [-1, 1])

    def test_exact_clamps_anticorrelated(self):
        # D = [2, 2], E = [-1, -1]: raw ratio 4 / 1 = 4
        v = ddr_exact([2, 2], [-1, -1])
        assert v == 1.0
        assert v.raw == pytest.approx(4.0)

    def test_approx_noise_free(self):
        assert ddr_approx([1, 1], [0, 0]) == 1.0

    def test_approx_hand_value(self):
        # 4 / (4 + 1); equals ddr_exact because sum(D * E) = 0
        assert ddr_approx([2, 2], [1, -1]) == pytest.approx(0.8, abs=1e-9)

    def test_approx_zero_deterministic(self):
        assert ddr_approx([0], [5]) == 0.0

    def test_approx_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            ddr_approx([0, 0], [0, 0])

    def test_empty_rejected(self):
        for ddr in (ddr_exact, ddr_approx):
            with pytest.raises(DomainError):
                ddr([], [])

    def test_unequal_lengths_rejected(self):
        for ddr in (ddr_exact, ddr_approx):
            with pytest.raises(DomainError):
                ddr([1.0, 2.0], [1.0])

    def test_exact_equals_approx_when_orthogonal(self):
        rng = make_rng(3)
        det = rng.standard_normal(10)
        noise = rng.standard_normal(10)
        noise -= det * (det @ noise) / (det @ det)
        assert ddr_exact(det, noise).raw == pytest.approx(
            float(ddr_approx(det, noise)), rel=1e-10
        )

    def test_identity_at_large_length(self):
        # Cross term vanishes for independent zero-mean noise as length grows.
        for seed in range(20):
            rng = make_rng(seed)
            det, noise = rng.standard_normal(100_000), rng.standard_normal(100_000)
            assert abs(ddr_exact(det, noise).raw - ddr_approx(det, noise)) < 0.01


def columns(*cols):
    """A (samples x columns) matrix from column lists."""
    return np.column_stack(cols)


class TestMatrixDdr:
    def test_single_column_reduces_to_exact(self):
        assert matrix_ddr_power_ratio(columns([2, 2]), columns([1, -1])) == pytest.approx(
            0.8, abs=1e-9
        )

    def test_noiseless_columns(self):
        assert matrix_ddr_power_ratio(columns([1, 2], [3, 4]), np.zeros((2, 2))) == 1.0

    def test_hand_value_two_columns(self):
        # P(D)=1,P(Y)=1 and P(D)=0,P(Y)=1 -> (1+0)/(1+1)
        det = columns([1, -1], [0, 0])
        noise = columns([0, 0], [1, -1])
        assert matrix_ddr_power_ratio(det, noise) == pytest.approx(0.5, abs=1e-9)

    def test_identical_columns_match_single(self):
        det, noise = [1.0, 2.0, -0.5], [0.1, -0.3, 0.2]
        four = matrix_ddr_power_ratio(columns(*[det] * 4), columns(*[noise] * 4))
        assert four == pytest.approx(float(ddr_exact(det, noise)), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            matrix_ddr_power_ratio(np.empty((3, 0)), np.empty((3, 0)))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSignalError):
            matrix_ddr_power_ratio(np.zeros((2, 1)), np.zeros((2, 1)))

    def test_unequal_shapes_rejected(self):
        with pytest.raises(DomainError):
            matrix_ddr_power_ratio(np.ones((4, 2)), np.ones((4, 3)))
        with pytest.raises(DomainError):
            matrix_ddr_power_ratio(np.ones(4), np.ones(4))

    def test_two_norm_singleton(self):
        assert matrix_ddr_two_norm([0.3]) == pytest.approx(0.3, abs=1e-12)

    def test_two_norm_all_ones(self):
        assert matrix_ddr_two_norm([1, 1, 1]) == 1.0

    def test_two_norm_hand_value(self):
        # sqrt((0.36 + 0.64) / 2)
        assert matrix_ddr_two_norm([0.6, 0.8]) == pytest.approx(
            math.sqrt(0.5), abs=1e-9
        )

    def test_two_norm_empty_rejected(self):
        with pytest.raises(DomainError):
            matrix_ddr_two_norm([])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_two_norm_in_range(self, rs):
        value = matrix_ddr_two_norm(rs)
        assert 0.0 <= value <= 1.0
        assert min(rs) - 1e-12 <= value <= max(rs) + 1e-12
