"""The nine learners: contract, worked examples, and training invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from ddrbench.datagen import gen_linear_regression, gen_two_class
from ddrbench.errors import DomainError
from ddrbench.evaluation import f1_score, nmse_accuracy
from ddrbench.models import (
    MODEL_KINDS,
    MODELS,
    REGRESSION_KINDS,
    CartTree,
    KnnModel,
    LinearSvc,
    LinearSvr,
    LogisticClassifier,
    MlpClassifier,
    ModelSpec,
    OlsRegressor,
    _BLOCK_ROWS,
    _sigmoid,
    fit,
    predict,
)
from ddrbench.rng import make_rng


from conftest import grad_check_error


class TestModelSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            ModelSpec("boost")


# Hyperparameters of the trainers compared against reference loops below.
MLPC = dict(hidden_units=32, epochs=300, step=0.05, init_scale=0.5)
BLRC = dict(iterations=500, step=0.1)

# Every learner's fixed hyperparameters, as `MODELS[kind].build(41)` sets them.
PINNED = {
    "olsr": (OlsRegressor, {}),
    "dtr": (CartTree, dict(max_depth=10, min_samples_split=80, classification=False)),
    "knnr": (KnnModel, dict(k=5, classification=False)),
    "lsvr": (LinearSvr, dict(epsilon=0.1, c=1.0, epochs=200, step=1e-3)),
    "blrc": (LogisticClassifier, BLRC),
    "dtc": (CartTree, dict(max_depth=10, min_samples_split=80, classification=True)),
    "knnc": (KnnModel, dict(k=5, classification=True)),
    "lsvc": (LinearSvc, dict(c=1.0, epochs=200, step=1e-3)),
    "mlpc": (MlpClassifier, dict(MLPC, seed=41)),
}


class TestModelTable:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fixed_hyperparameters(self, kind):
        cls, expected = PINNED[kind]
        learner = MODELS[kind].build(41)
        assert type(learner) is cls
        assert vars(learner) == expected


class TestContracts:
    def test_predict_rejects_wrong_width(self):
        X, y = gen_linear_regression(50, 3, make_rng(0))
        model = fit(ModelSpec("olsr"), X, y)
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
            X, y = gen_linear_regression(80, 4, make_rng(1))
        else:
            X, y = gen_two_class(80, 4, make_rng(1))
        a = predict(fit(ModelSpec(kind, seed=5), X, y), X)
        b = predict(fit(ModelSpec(kind, seed=5), X, y), X)
        assert np.array_equal(a, b)


class TestOls:
    def test_exact_recovery(self):
        X, y = gen_linear_regression(100, 5, make_rng(2))
        model = fit(ModelSpec("olsr"), X, y)
        assert nmse_accuracy(y, predict(model, X)) >= 1 - 1e-12

    def test_singular_system_min_norm(self):
        X = np.column_stack([np.arange(6.0), np.arange(6.0)])  # rank 1
        y = 2.0 * np.arange(6.0)
        model = fit(ModelSpec("olsr"), X, y)
        assert np.allclose(predict(model, X), y, atol=1e-8)


class TestCart:
    def test_single_leaf_predicts_mean(self):
        X = make_rng(3).standard_normal((20, 3))
        y = make_rng(4).standard_normal(20)
        model = CartTree(0, 80, classification=False).fit(X, y)
        assert np.allclose(model.predict(X), np.mean(y))

    def test_fully_grown_purifies(self):
        X = make_rng(5).standard_normal((100, 4))
        y = (make_rng(6).uniform(size=100) > 0.5).astype(float)
        model = CartTree(None, 2, classification=True).fit(X, y)
        assert f1_score(y, model.predict(X)) == 1.0

    def test_regression_split_reduces_error(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = CartTree(1, 2, classification=False).fit(X, y)
        assert nmse_accuracy(y, model.predict(X)) == pytest.approx(1.0, abs=1e-12)

    def test_leaf_majority_tie_is_class_one(self):
        X = np.zeros((4, 1))  # unsplittable: constant feature
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit(ModelSpec("dtc"), X, y)
        assert np.all(predict(model, X) == 1.0)


class TestKnn:
    def test_k1_memorizes_training_data(self):
        X = make_rng(7).standard_normal((30, 3))
        y = make_rng(8).standard_normal(30)
        model = KnnModel(1, classification=False).fit(X, y)
        assert np.array_equal(model.predict(X), y)

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
        model = KnnModel(1, classification=False).fit(X, y)
        assert model.predict(np.array([[0.0]]))[0] == 1.0

    def test_vote_tie_prefers_class_one(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = KnnModel(4, classification=True).fit(X, y)
        assert model.predict(np.array([[1.5]]))[0] == 1.0

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(DomainError):
            KnnModel(10, classification=False).fit(np.zeros((5, 1)), np.zeros(5))

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
        # Scaled by 1e200, every distance overflows to inf or NaN.
        for X in (X, X * 1e200):
            with np.errstate(over="ignore", invalid="ignore"):
                model = KnnModel(k, classification=kind == "knnc").fit(X[:200], y[:200])
                for Z in (X[:200], X[200:]):
                    expected = self.full_sort_predict(kind, k, X[:200], y[:200], Z)
                    assert model.predict(Z).tobytes() == expected.tobytes()

    def test_exact_and_tied_rows_in_one_call(self, monkeypatch):
        # Lattice queries among lattice training rows tie at the 5th distance;
        # continuous queries do not.  Both kinds of row share one predict call,
        # and neither sorts a whole distance row.
        rng = make_rng(22)
        X = np.round(rng.standard_normal((200, 3)))
        y = rng.standard_normal(200)
        Z = np.vstack([X[:50], rng.standard_normal((50, 3))])
        expected = self.full_sort_predict("knnr", 5, X, y, Z)
        model = KnnModel(5, classification=False).fit(X, y)
        full_rows = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.shape[1] == X.shape[0]:
                full_rows.append(a.shape[0])
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        got = model.predict(Z)
        monkeypatch.undo()
        assert got.tobytes() == expected.tobytes()
        assert not full_rows

    @pytest.mark.parametrize("decimals", [None, 0])
    def test_predict_peak_memory(self, decimals):
        # Rounded to integers, about 1600 of the 2000 rows tie at the k-th distance.
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

    @pytest.mark.parametrize("n_train", [5, 800, 3200])
    # Counts next to one and two full blocks, and next to 256 and 512 rows,
    # which split into four to nine blocks.
    @pytest.mark.parametrize(
        "n_query",
        [1] + sorted({m * b + r for b in (_BLOCK_ROWS, 256) for m in (1, 2) for r in (-1, 0, 1, 2)}),
    )
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_row_blocks_match_one_shot(self, n_train, n_query, decimals):
        # The bit rule predict relies on: near-equal row blocks of the query
        # times the training matrix give the one-shot product's bits.  This is
        # a property of the BLAS numpy links, which this test pins.  Rounded
        # to one decimal, many distances tie in exact arithmetic and their
        # order rests on the low bits, so a block that rounds differently (a
        # one-row block, say) changes the predictions too.
        rng = make_rng(24)
        X, Z = rng.standard_normal((n_train, 10)), rng.standard_normal((n_query, 10))
        if decimals is not None:
            X, Z = np.round(X, decimals), np.round(Z, decimals)
        blocks = np.array_split(Z, -(-n_query // _BLOCK_ROWS))
        assert max(map(len, blocks)) <= _BLOCK_ROWS
        assert np.concatenate([b @ X.T for b in blocks]).tobytes() == (Z @ X.T).tobytes()
        y = rng.standard_normal(n_train)
        labels = (y > 0.0).astype(np.float64)
        k1 = KnnModel(1, classification=False).fit(X, y)
        assert k1.predict(Z).tobytes() == self.full_sort_predict("knnr", 1, X, y, Z).tobytes()
        # knnr and knnc use k = 5, which equals the training size at n_train = 5.
        for kind, target in (("knnr", y), ("knnc", labels)):
            expected = self.full_sort_predict(kind, 5, X, target, Z)
            assert predict(fit(ModelSpec(kind), X, target), Z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_train", [130, 800, 3200])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_predict_on_the_fitted_array(self, n_train, decimals):
        # The query is the very buffer passed to fit, the case in which a
        # product of one buffer with its own transpose would go to BLAS syrk.
        rng = make_rng(27)
        X = rng.standard_normal((n_train, 10))
        if decimals is not None:
            X = np.round(X, decimals)
        y = rng.standard_normal(n_train)
        labels = (y > 0.0).astype(np.float64)
        for kind, target in (("knnr", y), ("knnc", labels)):
            expected = self.full_sort_predict(kind, 5, X, target, X)
            assert predict(fit(ModelSpec(kind), X, target), X).tobytes() == expected.tobytes()

    def test_fit_keeps_one_training_size_matrix(self):
        X = make_rng(28).standard_normal((300, 10))
        model = KnnModel(5, classification=False).fit(X, np.zeros(300))
        held = [v for v in vars(model).values() if isinstance(v, np.ndarray) and v.ndim == 2]
        assert len(held) == 1
        assert held[0].shape == X.shape and held[0].dtype == np.float64
        assert not np.shares_memory(held[0], X)

    def test_predict_peak_memory_is_a_few_blocks(self):
        # 3200 queries against 3200 training rows: a one-shot distance matrix
        # alone would be 82 MB.  Blocked, predict holds one block's distances,
        # their partitioned copy and candidate mask, plus the (queries x k)
        # neighbour and vote arrays.
        rng = make_rng(26)
        X, Z = rng.standard_normal((3200, 10)), rng.standard_normal((3200, 10))
        model = fit(ModelSpec("knnr"), X, rng.standard_normal(3200))
        tracemalloc.start()
        try:
            predict(model, Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = 4 * 3200 * 5 * 8
        assert peak <= 3 * _BLOCK_ROWS * 3200 * 8 + outputs


class TestLinearSubgradient:
    def test_svr_learns_linear_map(self):
        X, y = gen_linear_regression(400, 8, make_rng(13))
        model = fit(ModelSpec("lsvr"), X, y)
        assert nmse_accuracy(y, predict(model, X)) >= 0.99

    def test_svc_separates_wide_clusters(self):
        X, y = gen_two_class(400, 3, make_rng(14), class_sep=4.0)
        model = fit(ModelSpec("lsvc"), X, y)
        assert f1_score(y, predict(model, X)) >= 0.99

    def test_blrc_zero_weights_tie_break(self):
        model = LogisticClassifier(1, step=0.0001).fit(np.zeros((6, 2)), np.array([0.0, 1.0] * 3))
        # constant zero features keep weights at zero: probability 0.5 -> class 1
        assert np.all(model.predict(np.zeros((4, 2))) == 1.0)


class TestNoiselessAccuracyFloor:
    # KNN/CART need dense samples for locality; the SVR tube needs target
    # variation well above epsilon, which the multivariate case provides.
    @pytest.mark.parametrize(
        "kind,n_samples,n_features",
        [("olsr", 100, 5), ("knnr", 1000, 1), ("dtr", 4000, 1), ("lsvr", 500, 10)],
    )
    def test_noiseless_linear_data(self, kind, n_samples, n_features):
        X, y = gen_linear_regression(n_samples, n_features, make_rng(15))
        model = fit(ModelSpec(kind), X, y)
        floor = 1 - 1e-12 if kind == "olsr" else 0.99
        assert nmse_accuracy(y, predict(model, X)) >= floor


class TestMlp:
    def test_gradient_matches_finite_differences(self):
        rng = make_rng(16)
        X = rng.standard_normal((3, 4))
        y = (rng.uniform(size=3) > 0.5).astype(float)
        params = MlpClassifier.init_params(4, 5, 0.5, seed=17)
        assert grad_check_error(params, X, y) <= 1e-5

    def test_loss_and_grads_is_pure(self):
        rng = make_rng(34)
        X = rng.standard_normal((30, 4))
        y = (rng.uniform(size=30) > 0.5).astype(float)
        params = MlpClassifier.init_params(4, 6, 0.5, seed=35)
        before = {name: np.array(value) for name, value in params.items()}
        loss_a, grads_a = MlpClassifier.loss_and_grads(params, X, y)
        loss_b, grads_b = MlpClassifier.loss_and_grads(params, X, y)
        assert loss_a == loss_b
        assert grads_a.keys() == grads_b.keys() == params.keys()
        for name in params:
            assert grads_a[name] is not grads_b[name]
            assert not np.shares_memory(grads_a[name], grads_b[name])
            assert np.asarray(grads_a[name]).tobytes() == np.asarray(grads_b[name]).tobytes()
            assert np.asarray(params[name]).tobytes() == before[name].tobytes(), name

    def test_loss_non_increasing(self):
        X, y = gen_two_class(200, 5, make_rng(18))
        model = fit(ModelSpec("mlpc", seed=19), X, y)
        history = model.impl.loss_history
        assert len(history) == 301
        worst = max(b - a for a, b in zip(history, history[1:]))
        assert worst <= 1e-6

    def test_learns_separable_data(self):
        X, y = gen_two_class(400, 4, make_rng(20), class_sep=3.0)
        model = fit(ModelSpec("mlpc", seed=21), X, y)
        assert f1_score(y, predict(model, X)) >= 0.95

    def test_seed_changes_init(self):
        a = MlpClassifier.init_params(3, 4, 0.5, seed=1)
        b = MlpClassifier.init_params(3, 4, 0.5, seed=2)
        assert not np.array_equal(a["w1"], b["w1"])


def masked_sigmoid(z):
    """The logistic function split by sign with boolean masks."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_mlp_loss_and_grads(params, X, y):
    n = X.shape[0]
    hidden = np.tanh(X @ params["w1"] + params["b1"])
    z2 = hidden @ params["w2"] + params["b2"]
    loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
    dz2 = (masked_sigmoid(z2) - y) / n
    dz1 = np.outer(dz2, params["w2"]) * (1.0 - np.square(hidden))
    grads = {
        "w1": X.T @ dz1,
        "b1": np.sum(dz1, axis=0),
        "w2": hidden.T @ dz2,
        "b2": np.sum(dz2),
    }
    return loss, grads


def reference_mlp_fit(X, y, hidden_units, epochs, step, init_scale, seed):
    """Fresh arrays every epoch; each parameter replaced by p - step * g."""
    params = MlpClassifier.init_params(X.shape[1], hidden_units, init_scale, seed)
    history = []
    for _ in range(epochs):
        loss, grads = reference_mlp_loss_and_grads(params, X, y)
        history.append(loss)
        for name in params:
            params[name] = params[name] - step * grads[name]
    history.append(reference_mlp_loss_and_grads(params, X, y)[0])
    return params, history


def reference_blrc_fit(X, y, iterations, step):
    n = X.shape[0]
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(iterations):
        gap = masked_sigmoid(X @ w + b) - y
        w -= step * (X.T @ gap) / n
        b -= step * float(np.mean(gap))
    return w, b


def trainer_case(case):
    """(X, y, mlpc hyperparameters, blrc hyperparameters) for one reference-loop case."""
    if case.startswith("two_class-"):
        n, d = (int(v) for v in case.split("-")[1].split("x"))
        X, y = gen_two_class(n, d, make_rng(n + d))
        return X, y, MLPC, BLRC
    if case == "one-unit-one-epoch-one-feature":
        X, y = gen_two_class(120, 1, make_rng(31))
        return X, y, dict(MLPC, hidden_units=1, epochs=1), dict(BLRC, iterations=1)
    if case == "saturated":
        X, y = gen_two_class(200, 4, make_rng(32))
        return 50.0 * X, y, MLPC, BLRC
    raise ValueError(case)


TRAINER_CASES = [
    "two_class-60x3",
    "two_class-200x5",
    "two_class-800x10",
    "one-unit-one-epoch-one-feature",
    "saturated",
]


class TestTrainerReferenceLoops:
    """The buffered trainers against the plain allocate-per-epoch loops, byte for byte."""

    @pytest.mark.parametrize("case", TRAINER_CASES)
    def test_mlpc_matches_reference(self, case):
        X, y, hp, _ = trainer_case(case)
        params, history = reference_mlp_fit(X, y, seed=33, **hp)
        model = MlpClassifier(seed=33, **hp).fit(X, y)
        assert len(model.loss_history) == hp["epochs"] + 1
        assert np.array(model.loss_history).tobytes() == np.array(history).tobytes()
        for name, value in params.items():
            assert np.asarray(model.params[name]).tobytes() == np.asarray(value).tobytes(), name
        if case == "saturated":
            assert np.max(np.abs(X @ params["w1"] + params["b1"])) > 40.0

    @pytest.mark.parametrize("case", TRAINER_CASES)
    def test_blrc_matches_reference(self, case):
        X, y, _, hp = trainer_case(case)
        w, b = reference_blrc_fit(X, y, **hp)
        model = LogisticClassifier(**hp).fit(X, y)
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.intercept).tobytes() == np.float64(b).tobytes()
        if case == "saturated":
            assert np.max(np.abs(X @ w + b)) > 40.0


def reference_best_split(X, y, classification):
    """Row-major split search that stable-sorts the node's rows itself."""
    n = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    valid = xs[:-1] < xs[1:]
    if not np.any(valid):
        return None
    k = np.arange(1, n, dtype=np.float64)[:, None]
    m = n - k
    if classification:
        ones_left = np.cumsum(ys, axis=0)[:-1]
        ones_right = float(np.sum(y)) - ones_left
        score = 2.0 * ones_left * (k - ones_left) / k
        score += 2.0 * ones_right * (m - ones_right) / m
    else:
        cy = np.cumsum(ys, axis=0)[:-1]
        cy2 = np.cumsum(np.square(ys), axis=0)[:-1]
        ty = float(np.sum(y))
        ty2 = float(np.sum(np.square(y)))
        score = cy2 - np.square(cy) / k
        score += (ty2 - cy2) - np.square(ty - cy) / m
    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score.T))
    feature, cut = divmod(flat, n - 1)
    if not np.isfinite(score[cut, feature]):
        return None
    return feature, float(xs[cut, feature])


def reference_cart(X, y, max_depth, min_samples_split, classification):
    """CART grown on ``X[mask]``, one stable argsort per node.

    A leaf is ``(value,)`` and a split ``(feature, threshold, left, right)``.
    """
    max_depth = math.inf if max_depth is None else max_depth

    def leaf(y):
        if classification:
            return (1.0 if 2.0 * float(np.sum(y)) >= y.size else 0.0,)
        return (float(np.mean(y)),)

    def grow(X, y, depth):
        if depth >= max_depth or y.size < min_samples_split or np.all(y == y[0]):
            return leaf(y)
        split = reference_best_split(X, y, classification)
        if split is None:
            return leaf(y)
        feature, threshold = split
        mask = X[:, feature] <= threshold
        return (feature, threshold, grow(X[mask], y[mask], depth + 1),
                grow(X[~mask], y[~mask], depth + 1))

    return grow(X, y, 0)


def reference_tree_predict(tree, X):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = tree
        while len(node) == 4:
            node = node[2] if row[node[0]] <= node[1] else node[3]
        out[i] = node[0]
    return out


def preorder(tree):
    """(feature, threshold bits) per split and (None, value bits) per leaf, in preorder."""
    if isinstance(tree, tuple):
        if len(tree) == 1:
            return [(None, np.float64(tree[0]).tobytes())]
        feature, threshold, left, right = tree
    elif tree.value is not None:
        return [(None, np.float64(tree.value).tobytes())]
    else:
        feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    return [(feature, np.float64(threshold).tobytes())] + preorder(left) + preorder(right)


def reference_lsvr_fit(X, y, epsilon, c, epochs, step):
    w = np.zeros(X.shape[1])
    b = 0.0
    for t in range(1, epochs + 1):
        residual = X @ w + b - y
        sign = np.sign(residual) * (np.abs(residual) > epsilon)
        eta = step / math.sqrt(t)
        w -= eta * (w + c * (X.T @ sign))
        b -= eta * c * float(np.sum(sign))
    return w, b


def reference_lsvc_fit(X, y, c, epochs, step):
    signed = 2.0 * y - 1.0
    w = np.zeros(X.shape[1])
    b = 0.0
    for t in range(1, epochs + 1):
        margins = signed * (X @ w + b)
        active = signed * (margins < 1.0)
        eta = step / math.sqrt(t)
        w -= eta * (w - c * (X.T @ active))
        b += eta * c * float(np.sum(active))
    return w, b


def tied_case(n, seed, classification):
    """Features rounded to one decimal, the first one constant; noisy targets.

    Rounding makes many values tie within a column and leaves both -0.0 and
    0.0 in it.  Those two compare equal, and a split at them takes the last
    value of the tie in the sorted order as its threshold, so the threshold's
    sign bit shows whether ties kept the stable (row index) order.
    """
    rng = make_rng(1000 * n + seed)
    X = np.round(rng.standard_normal((n, 6)), 1)
    X[:, 0] = 0.5
    y = np.sin(2.0 * X[:, 1]) + X[:, 2] * X[:, 3] + 0.3 * rng.standard_normal(n)
    if classification:
        y = (y > 0.0).astype(np.float64)
    return X, y


class TestPresortedCart:
    """The presorted tree against a per-node sort, node by node and bit for bit."""

    @pytest.mark.parametrize("kind", ["dtr", "dtc"])
    @pytest.mark.parametrize("n", [37, 90, 800, 3200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("hp", [(10, 80), (None, 2)], ids=["pinned", "full"])
    def test_matches_per_node_sort(self, kind, n, seed, hp):
        classification = kind == "dtc"
        X, y = tied_case(n, seed, classification)
        expected = reference_cart(X, y, *hp, classification)
        model = CartTree(*hp, classification=classification).fit(X, y)
        assert preorder(model.root) == preorder(expected)
        Z = np.round(make_rng(seed).standard_normal((50, 6)), 1)
        for Q in (X, Z):
            assert model.predict(Q).tobytes() == reference_tree_predict(expected, Q).tobytes()

    def test_a_case_splits_at_signed_zero(self):
        # The -0.0/0.0 tie that tied_case relies on is met by a pinned split.
        X, y = tied_case(800, 2, False)
        zero = {np.float64(0.0).tobytes(), np.float64(-0.0).tobytes()}
        tree = preorder(reference_cart(X, y, 10, 80, False))
        assert any(f is not None and t in zero for f, t in tree)


# Changes to the pinned hyperparameters: none, and c = 0.7, because at c = 1
# a product by c reordered would leave the bits unchanged.
LINEAR_HP = {"pinned": {}, "c0.7": dict(c=0.7, step=3e-3)}


class TestLinearReferenceLoops:
    """The buffered subgradient trainers against the allocate-per-epoch loops."""

    @pytest.mark.parametrize("n", [37, 90, 800, 3200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("hp", list(LINEAR_HP))
    def test_lsvr_matches_reference(self, n, seed, hp):
        X, y = tied_case(n, seed, False)
        hp = dict(PINNED["lsvr"][1], **LINEAR_HP[hp])
        w, b = reference_lsvr_fit(X, y, **hp)
        model = LinearSvr(**hp).fit(X, y)
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.intercept).tobytes() == np.float64(b).tobytes()

    @pytest.mark.parametrize("n", [37, 90, 800, 3200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("hp", list(LINEAR_HP))
    def test_lsvc_matches_reference(self, n, seed, hp):
        X, y = tied_case(n, seed, True)
        hp = dict(PINNED["lsvc"][1], **LINEAR_HP[hp])
        w, b = reference_lsvc_fit(X, y, **hp)
        model = LinearSvc(**hp).fit(X, y)
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.intercept).tobytes() == np.float64(b).tobytes()


class TestSigmoid:
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, -745.0, 1e308, -1e308,
             np.inf, -np.inf, np.nan]

    def test_edge_values_match_masked_form(self):
        z = np.array(self.EDGES)
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        for value in self.EDGES:
            one = np.array([value])
            assert _sigmoid(one).tobytes() == masked_sigmoid(one).tobytes(), value

    def test_dense_range_matches_masked_form(self):
        z = np.linspace(-800.0, 800.0, 100_007)
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()

    def test_writes_into_out(self):
        z = np.array(self.EDGES)
        out = np.full_like(z, 7.0)
        assert _sigmoid(z, out=out) is out
        assert out.tobytes() == masked_sigmoid(z).tobytes()
        assert _sigmoid(z, out=z) is z  # in place
        assert z.tobytes() == out.tobytes()
