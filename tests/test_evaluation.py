"""Metrics, trust points, curves, and the normalized AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrbench.errors import DegenerateTargetError, DomainError
from ddrbench.evaluation import (
    CurvePoint,
    f1_score,
    nmse_accuracy,
    normalized_auc,
    report_from_curve,
    trust_point,
)


class TestNmseAccuracy:
    def test_perfect_prediction(self):
        assert nmse_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        assert nmse_accuracy(y, np.full(4, y.mean())) == 0.0

    def test_hand_value(self):
        # MSE = 0.5, population variance = 1
        assert nmse_accuracy([0, 2], [0, 1]) == pytest.approx(0.5, abs=1e-9)

    def test_clamped_below_zero(self):
        assert nmse_accuracy([0.0, 1.0], [10.0, -10.0]) == 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateTargetError):
            nmse_accuracy([2.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "y_true, y_pred",
        [([0.0, 1.0], [0.5, np.nan]), ([0.0, 1.0], [np.inf, 0.5]), ([0.0, np.nan], [0.0, 1.0])],
    )
    def test_non_finite_rejected(self, y_true, y_pred):
        # max(0.0, nan) is 0.0: a diverged learner must not score as a bad one.
        with pytest.raises(DomainError, match="finite"):
            nmse_accuracy(y_true, y_pred)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30), st.floats(-10, 10))
    @settings(max_examples=100)
    def test_constant_offset_formula(self, values, c):
        y = np.asarray(values)
        if np.var(y) < 1e-9:
            return
        got = nmse_accuracy(y, y + c)
        assert got == pytest.approx(max(0.0, 1.0 - c * c / np.var(y)), rel=1e-9, abs=1e-9)

    def test_permutation_invariant(self):
        y = np.array([1.0, 4.0, 2.0, 8.0])
        p = np.array([1.5, 3.5, 2.5, 7.0])
        perm = [2, 0, 3, 1]
        assert nmse_accuracy(y, p) == pytest.approx(
            nmse_accuracy(y[perm], p[perm]), abs=1e-12
        )


class TestF1:
    def test_perfect(self):
        assert f1_score([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_all_negative_with_positives(self):
        assert f1_score([1, 0, 1], [0, 0, 0]) == 0.0

    def test_hand_confusion(self):
        # TP=2, FP=1, FN=1 -> P = R = 2/3
        assert f1_score([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]) == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )

    def test_empty_confusion_is_one(self):
        assert f1_score([0, 0], [0, 0]) == 1.0

    def test_invalid_labels_rejected(self):
        with pytest.raises(DomainError):
            f1_score([0, 2], [0, 1])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_permutation_invariant(self, pairs):
        y = np.array([a for a, _ in pairs], dtype=float)
        p = np.array([b for _, b in pairs], dtype=float)
        perm = np.arange(len(pairs))[::-1]
        assert f1_score(y, p) == f1_score(y[perm], p[perm])


class TestTrustPoint:
    def test_zero_ddr(self):
        assert trust_point(0.9, 0.0) == 0.0

    def test_unit_corner(self):
        assert trust_point(1.0, 1.0) == 1.0

    def test_product(self):
        assert trust_point(0.9, 0.8) == pytest.approx(0.72, abs=1e-9)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100)
    def test_bounded_by_min(self, acc, ddr):
        assert trust_point(acc, ddr) <= min(acc, ddr) + 1e-12


class TestCurveAndAuc:
    def test_constant_one(self):
        assert normalized_auc([0.0, 0.5, 1.0], [1.0, 1.0, 1.0]) == 1.0

    def test_linear_curve_exact(self):
        grid = np.linspace(0.0, 1.0, 7)
        assert normalized_auc(grid, grid) == pytest.approx(0.5, abs=1e-12)

    def test_two_trapezoid_hand_sum(self):
        assert normalized_auc([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]) == pytest.approx(0.5, abs=1e-9)

    def test_dominating_curve_has_larger_auc(self):
        grid = [0.0, 0.5, 1.0]
        assert normalized_auc(grid, [0.2, 0.5, 0.9]) >= normalized_auc(grid, [0.1, 0.3, 0.6])

    def test_train_and_test_series_differ(self):
        curve = (CurvePoint(0.0, 1.0, 0.0, 0.0, 0.0, 1), CurvePoint(1.0, 1.0, 1.0, 0.0, 0.0, 1))
        report = report_from_curve(
            curve, model="olsr", task="regression", generator="linear", config={}, master_seed=0
        )
        assert report.complete and report.curve is curve
        assert report.auc_train == 1.0
        assert report.auc_test == 0.5
        assert report.trust_points == ((0.0, 0.0), (1.0, 1.0))

    def test_curve_requires_unit_span(self):
        with pytest.raises(DomainError, match="span"):
            normalized_auc([0.1, 1.0], [0.5, 0.6])
        with pytest.raises(DomainError, match="span"):
            normalized_auc([0.0, 0.9], [0.5, 0.6])

    def test_curve_requires_strict_order(self):
        with pytest.raises(DomainError, match="increasing"):
            normalized_auc([0.0, 0.5, 0.5, 1.0], [0.5, 0.6, 0.7, 1.0])

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_accuracy_outside_unit_interval(self, bad):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            normalized_auc([0.0, 0.5, 1.0], [0.5, bad, 0.5])

    @pytest.mark.parametrize(
        "ddrs, accuracies",
        [([0.0, 0.5, 1.0], [0.5, 0.5]), ([0.0, 1.0], [0.5, 0.5, 0.5]), ([1.0], [0.5])],
    )
    def test_needs_equal_length_vectors(self, ddrs, accuracies):
        with pytest.raises(DomainError, match="equal-length"):
            normalized_auc(ddrs, accuracies)
