"""The nine learners: contract, worked examples, and training invariants."""

import tracemalloc

import numpy as np
import pytest

from ddrbench.datagen import gen_linear_regression, gen_two_class
from ddrbench.errors import DomainError
from ddrbench.evaluation import f1_score, nmse_accuracy
from ddrbench.models import (
    MODEL_KINDS,
    REGRESSION_KINDS,
    MlpClassifier,
    ModelSpec,
    fit,
    predict,
)
from ddrbench.rng import make_rng


from conftest import grad_check_error


class TestModelSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            ModelSpec("boost")

    def test_unknown_param_rejected(self):
        with pytest.raises(DomainError):
            ModelSpec("knnr", {"neighbors": 3})

    def test_param_ranges(self):
        with pytest.raises(DomainError):
            ModelSpec("knnr", {"k": 0})
        with pytest.raises(DomainError):
            ModelSpec("blrc", {"step": -0.1})

    def test_defaults_merged(self):
        spec = ModelSpec("dtc", {"max_depth": 4})
        assert spec.hyperparameters["max_depth"] == 4
        assert spec.hyperparameters["min_samples_split"] == 80


class TestContracts:
    def test_predict_rejects_wrong_width(self):
        data = gen_linear_regression(50, 3, make_rng(0))
        model = fit(ModelSpec("olsr"), data.features, data.targets)
        with pytest.raises(DomainError):
            predict(model, np.zeros((5, 4)))

    def test_fit_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            fit(ModelSpec("olsr"), np.zeros((5, 2)), np.zeros(4))

    def test_classification_requires_binary_labels(self):
        with pytest.raises(DomainError):
            fit(ModelSpec("blrc"), np.zeros((4, 2)), np.array([0.0, 1.0, 2.0, 1.0]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_determinism(self, kind):
        if kind in REGRESSION_KINDS:
            data = gen_linear_regression(80, 4, make_rng(1))
        else:
            data = gen_two_class(80, 4, make_rng(1))
        a = predict(fit(ModelSpec(kind, seed=5), data.features, data.targets), data.features)
        b = predict(fit(ModelSpec(kind, seed=5), data.features, data.targets), data.features)
        assert np.array_equal(a, b)


class TestOls:
    def test_exact_recovery(self):
        data = gen_linear_regression(100, 5, make_rng(2))
        model = fit(ModelSpec("olsr"), data.features, data.targets)
        assert nmse_accuracy(data.targets, predict(model, data.features)) >= 1 - 1e-12

    def test_singular_system_min_norm(self):
        X = np.column_stack([np.arange(6.0), np.arange(6.0)])  # rank 1
        y = 2.0 * np.arange(6.0)
        model = fit(ModelSpec("olsr"), X, y)
        assert np.allclose(predict(model, X), y, atol=1e-8)


class TestCart:
    def test_single_leaf_predicts_mean(self):
        X = make_rng(3).standard_normal((20, 3))
        y = make_rng(4).standard_normal(20)
        model = fit(ModelSpec("dtr", {"max_depth": 0}), X, y)
        assert np.allclose(predict(model, X), np.mean(y))

    def test_fully_grown_purifies(self):
        X = make_rng(5).standard_normal((100, 4))
        y = (make_rng(6).uniform(size=100) > 0.5).astype(float)
        model = fit(
            ModelSpec("dtc", {"max_depth": None, "min_samples_split": 2}), X, y
        )
        assert f1_score(y, predict(model, X)) == 1.0

    def test_regression_split_reduces_error(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = fit(ModelSpec("dtr", {"max_depth": 1, "min_samples_split": 2}), X, y)
        assert nmse_accuracy(y, predict(model, X)) == pytest.approx(1.0, abs=1e-12)

    def test_leaf_majority_tie_is_class_one(self):
        X = np.zeros((4, 1))  # unsplittable: constant feature
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit(ModelSpec("dtc"), X, y)
        assert np.all(predict(model, X) == 1.0)


class TestKnn:
    def test_k1_memorizes_training_data(self):
        X = make_rng(7).standard_normal((30, 3))
        y = make_rng(8).standard_normal(30)
        model = fit(ModelSpec("knnr", {"k": 1}), X, y)
        assert np.array_equal(predict(model, X), y)

    def test_row_permutation_invariance(self):
        X = make_rng(9).standard_normal((60, 2))
        y = (make_rng(10).uniform(size=60) > 0.5).astype(float)
        Z = make_rng(11).standard_normal((20, 2))
        base = predict(fit(ModelSpec("knnc"), X, y), Z)
        perm = make_rng(12).permutation(60)
        shuffled = predict(fit(ModelSpec("knnc"), X[perm], y[perm]), Z)
        assert np.array_equal(base, shuffled)

    def test_distance_tie_prefers_lowest_index(self):
        # Duplicate training rows with different targets: the earlier row wins.
        X = np.array([[0.0], [0.0], [5.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = fit(ModelSpec("knnr", {"k": 1}), X, y)
        assert predict(model, np.array([[0.0]]))[0] == 1.0

    def test_vote_tie_prefers_class_one(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit(ModelSpec("knnc", {"k": 4}), X, y)
        assert predict(model, np.array([[1.5]]))[0] == 1.0

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(DomainError):
            fit(ModelSpec("knnr", {"k": 10}), np.zeros((5, 1)), np.zeros(5))

    @staticmethod
    def full_sort_predict(kind, k, X, y, Z):
        """The kernel's distances, neighbours from a full stable argsort, same vote."""
        train = X.copy()
        d2 = np.sum(np.square(Z), axis=1, keepdims=True) - 2.0 * (Z @ train.T)
        d2 += np.sum(np.square(train), axis=1)
        votes = y[np.argsort(d2, axis=1, kind="stable")[:, :k]]
        if kind == "knnc":
            return (2.0 * np.sum(votes, axis=1) >= k).astype(np.float64)
        return np.mean(votes, axis=1)

    @pytest.mark.parametrize("kind", ["knnr", "knnc"])
    @pytest.mark.parametrize("decimals", [None, 0, 1])
    @pytest.mark.parametrize("k", [1, 5, 199, 200])
    def test_matches_full_stable_sort(self, kind, decimals, k):
        rng = make_rng(21)
        X = rng.standard_normal((300, 4))
        if decimals is not None:
            X = np.round(X, decimals)  # forces ties at the k-th distance
        y = rng.standard_normal(300)
        if kind == "knnc":
            y = (y > 0.0).astype(np.float64)
        model = fit(ModelSpec(kind, {"k": k}), X[:200], y[:200])
        for Z in (X[:200], X[200:]):
            expected = self.full_sort_predict(kind, k, X[:200], y[:200], Z)
            assert predict(model, Z).tobytes() == expected.tobytes()

    def test_exact_and_tied_rows_in_one_call(self, monkeypatch):
        # Lattice queries among lattice training rows tie at the 5th distance;
        # continuous queries do not.  Both kinds of row share one predict call.
        rng = make_rng(22)
        X = np.round(rng.standard_normal((200, 3)))
        y = rng.standard_normal(200)
        Z = np.vstack([X[:50], rng.standard_normal((50, 3))])
        expected = self.full_sort_predict("knnr", 5, X, y, Z)
        model = fit(ModelSpec("knnr", {"k": 5}), X, y)
        sorted_rows = {5: 0, 200: 0}
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            sorted_rows[a.shape[1]] += a.shape[0]
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        got = predict(model, Z)
        monkeypatch.undo()
        assert got.tobytes() == expected.tobytes()
        assert sorted_rows[5] > 0 and sorted_rows[200] > 0
        assert sorted_rows[5] + sorted_rows[200] == 100

    @pytest.mark.parametrize("decimals", [None, 0])
    def test_predict_peak_memory(self, decimals):
        # Rounded to integers, about 1600 of the 2000 rows tie and take the full sort.
        rng = make_rng(23)
        X, Z = rng.standard_normal((2000, 10)), rng.standard_normal((2000, 10))
        if decimals is not None:
            X, Z = np.round(X, decimals), np.round(Z, decimals)
        model = fit(ModelSpec("knnr"), X, rng.standard_normal(2000))
        tracemalloc.start()
        try:
            predict(model, Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The distance matrix and one temporary of its size while it is built.
        assert peak <= 2.05 * Z.shape[0] * 2000 * 8


class TestLinearSubgradient:
    def test_svr_learns_linear_map(self):
        data = gen_linear_regression(400, 8, make_rng(13))
        model = fit(ModelSpec("lsvr"), data.features, data.targets)
        assert nmse_accuracy(data.targets, predict(model, data.features)) >= 0.99

    def test_svc_separates_wide_clusters(self):
        data = gen_two_class(400, 3, make_rng(14), class_sep=4.0)
        model = fit(ModelSpec("lsvc"), data.features, data.targets)
        assert f1_score(data.targets, predict(model, data.features)) >= 0.99

    def test_blrc_zero_weights_tie_break(self):
        model = fit(ModelSpec("blrc", {"iterations": 1, "step": 0.0001}), np.zeros((6, 2)), np.array([0.0, 1.0] * 3))
        # constant zero features keep weights at zero: probability 0.5 -> class 1
        assert np.all(predict(model, np.zeros((4, 2))) == 1.0)


class TestNoiselessAccuracyFloor:
    # KNN/CART need dense samples for locality; the SVR tube needs target
    # variation well above epsilon, which the multivariate case provides.
    @pytest.mark.parametrize(
        "kind,n_samples,n_features",
        [("olsr", 100, 5), ("knnr", 1000, 1), ("dtr", 4000, 1), ("lsvr", 500, 10)],
    )
    def test_noiseless_linear_data(self, kind, n_samples, n_features):
        data = gen_linear_regression(n_samples, n_features, make_rng(15))
        model = fit(ModelSpec(kind), data.features, data.targets)
        floor = 1 - 1e-12 if kind == "olsr" else 0.99
        assert nmse_accuracy(data.targets, predict(model, data.features)) >= floor


class TestMlp:
    def test_gradient_matches_finite_differences(self):
        rng = make_rng(16)
        X = rng.standard_normal((3, 4))
        y = (rng.uniform(size=3) > 0.5).astype(float)
        params = MlpClassifier.init_params(4, 5, 0.5, seed=17)
        assert grad_check_error(params, X, y) <= 1e-5

    def test_loss_non_increasing(self):
        data = gen_two_class(200, 5, make_rng(18))
        model = fit(ModelSpec("mlpc", seed=19), data.features, data.targets)
        history = model.impl.loss_history
        assert len(history) == 301
        worst = max(b - a for a, b in zip(history, history[1:]))
        assert worst <= 1e-6

    def test_learns_separable_data(self):
        data = gen_two_class(400, 4, make_rng(20), class_sep=3.0)
        model = fit(ModelSpec("mlpc", seed=21), data.features, data.targets)
        assert f1_score(data.targets, predict(model, data.features)) >= 0.95

    def test_seed_changes_init(self):
        a = MlpClassifier.init_params(3, 4, 0.5, seed=1)
        b = MlpClassifier.init_params(3, 4, 0.5, seed=2)
        assert not np.array_equal(a["w1"], b["w1"])
