"""Nine learners behind one fit/predict contract, implemented from scratch.

Regressors: ordinary least squares (olsr), CART regression tree (dtr),
k-nearest neighbors (knnr), linear epsilon-insensitive SVR (lsvr).
Classifiers: binary logistic regression (blrc), CART classification tree
(dtc), k-nearest neighbors (knnc), linear hinge-loss SVC (lsvc), one-hidden-
layer perceptron (mlpc).  Every trainer is deterministic given the spec's
seed; no hyperparameter tuning happens anywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .datagen import CLASSIFICATION, GENERATOR_TASKS, REGRESSION
from .errors import DomainError
from .rng import make_rng


class _ModelSpecFields(NamedTuple):
    # ModelSpec's fields; its __new__ checks them and lower-cases the kind.
    kind: str
    seed: int = 0


class ModelSpec(_ModelSpecFields):
    """Model kind plus a training seed; the hyperparameters are fixed in `MODELS`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ModelSpec":
        self = super().__new__(cls, *args, **kwargs)
        kind = str(self.kind).lower()
        if kind not in MODEL_KINDS:
            raise DomainError(
                f"unknown model kind {self.kind!r}; valid kinds: {', '.join(MODEL_KINDS)}"
            )
        return super().__new__(cls, kind, self.seed)

    @classmethod
    def _make(cls, iterable) -> "ModelSpec":
        # _replace builds through _make, so a replaced spec is checked too.
        return cls(*iterable)


class TrainedModel(NamedTuple):
    """A fitted learner; the learned parameters are opaque to callers."""

    spec: ModelSpec
    n_features: int
    impl: object
    stack: Tuple[int, ...] = ()  # (R,) after fitting a stack of R datasets


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function without overflow, written into ``out`` if given.

    With e = exp(-|z|) the result is 1 / (1 + e) where z >= 0 and e / (1 + e)
    where z < 0, the same operations per element as splitting z by sign and
    using exp(-z) and exp(z), so the bits match that masked form.  -|z| is
    taken as min(z, -z), which keeps a NaN's sign where -abs(z) would flip
    it.  ``out`` may be ``z`` itself.
    """
    e = np.exp(np.minimum(z, -z))
    numerator = np.where(z >= 0, 1.0, e)
    np.add(1.0, e, out=e)
    return np.divide(numerator, e, out=out)


class OlsRegressor:
    """Least squares through an orthogonal decomposition.

    Singular systems fall back to the minimum-norm solution.
    """

    learned = ("weights", "intercept")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OlsRegressor":
        design = np.column_stack([X, np.ones(X.shape[0])])
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        self.weights = coef[:-1]
        self.intercept = float(coef[-1])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept


def _best_split(xs: np.ndarray, ys: np.ndarray, y: np.ndarray, classification: bool):
    """Exhaustive split search over one node; score is the summed child impurity.

    ``xs`` holds each feature's values over the node's rows in ascending
    order (features x rows), ``ys`` the targets in the same order, and ``y``
    the node's targets in ascending row order, which the totals sum over.
    Ties go to the lowest feature index, then the lowest threshold, realized
    by scanning the (features x cuts) scores in C order and keeping the first
    minimum.  Thresholds equal the largest left-child value so both children
    are guaranteed non-empty.
    """
    n = xs.shape[1]
    valid = xs[:, :-1] < xs[:, 1:]
    if not valid.any():
        return None
    k = np.arange(1, n, dtype=np.float64)
    m = n - k
    if classification:
        ones_left = np.cumsum(ys[:, :-1], axis=1)
        ones_right = float(np.add.reduce(y)) - ones_left
        score = 2.0 * ones_left * (k - ones_left) / k
        score += 2.0 * ones_right * (m - ones_right) / m
    else:
        cy = np.cumsum(ys[:, :-1], axis=1)
        cy2 = np.cumsum(np.square(ys[:, :-1]), axis=1)
        ty = float(np.add.reduce(y))
        ty2 = float(np.add.reduce(np.square(y)))
        score = cy2 - np.square(cy) / k
        score += (ty2 - cy2) - np.square(ty - cy) / m
    score[~valid] = np.inf
    feature, cut = divmod(int(np.argmin(score)), n - 1)
    if not np.isfinite(score[feature, cut]):
        return None
    return feature, float(xs[feature, cut])


class CartTree:
    """CART with variance-reduction (regression) or Gini (classification) splits.

    ``root`` is a nested tuple: a leaf is ``(value,)`` and a split is
    ``(feature, threshold, left, right)``, rows with ``x[feature] <= threshold``
    going left.  Leaf values are the target mean for regression and the
    majority class for classification, majority ties resolved to class 1.

    ``fit`` sorts each feature once, in the order one stable argsort of the
    (features x rows) transpose gives, and hands each child its parent's
    per-feature order with the other child's rows filtered out.  That is the
    order a fresh stable sort of the child's rows would give: a stable sort
    orders rows by value and equal values by row index, and the rows that
    remain of the parent's order are still in that (value, row index)
    order.  So no node sorts, and the splits match a per-node stable sort
    bit for bit.  Each node's totals and leaf value are taken over its
    targets in ascending row order, as a per-node fit on ``X[mask]`` takes
    them.
    """

    def __init__(self, max_depth: Optional[int], min_samples_split: int, classification: bool):
        self.max_depth = math.inf if max_depth is None else int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.classification = classification

    def _leaf(self, y: np.ndarray) -> tuple:
        if self.classification:
            return (1.0 if 2.0 * float(np.add.reduce(y)) >= y.size else 0.0,)
        return (float(np.add.reduce(y)) / y.size,)  # the bits of np.mean(y)

    def _grow(
        self, XT: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray, depth: int
    ) -> tuple:
        """Grow the subtree over ``rows`` (ascending); ``order`` holds, per
        feature, the same rows by ascending value (features x rows)."""
        y_node = y[rows]
        if (
            depth >= self.max_depth
            or rows.size < self.min_samples_split
            or (y_node == y_node[0]).all()
        ):
            return self._leaf(y_node)
        f, n = XT.shape
        # One flat take gathers every feature's sorted values.
        xs = XT.take(order + np.arange(0, f * n, n)[:, None])
        split = _best_split(xs, y[order], y_node, self.classification)
        if split is None:
            return self._leaf(y_node)
        feature, threshold = split
        go_left = XT[feature] <= threshold  # over every row; only the node's are read
        left = go_left[order]
        return (
            feature,
            threshold,
            self._grow(XT, y, rows[go_left[rows]], order[left].reshape(f, -1), depth + 1),
            self._grow(XT, y, rows[~go_left[rows]], order[~left].reshape(f, -1), depth + 1),
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CartTree":
        XT = np.ascontiguousarray(X.T)
        # Without ties the ascending order is unique, so the faster default
        # sort gives the stable order; with any (-0.0 == 0.0 counts) it may
        # not, and the stable sort runs.
        order = np.argsort(XT, axis=1)
        xs = np.take_along_axis(XT, order, axis=1)
        if (xs[:, 1:] == xs[:, :-1]).any():
            order = np.argsort(XT, axis=1, kind="stable")
        self.root = self._grow(XT, y, np.arange(XT.shape[1]), order, 0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if len(node) == 1:
                out[idx] = node[0]
                continue
            feature, threshold, left, right = node
            mask = X[idx, feature] <= threshold
            stack.append((left, idx[mask]))
            stack.append((right, idx[~mask]))
        return out


# Query rows per kNN distance block: 64 x 3200 training rows is 1.6 MB, so
# a block's distances stay in a 2 MB per-core L2 cache between its passes.
_BLOCK_ROWS = 64
# Strided column groups whose minima bound each row's k-th kNN distance.
# The minimum's inner loop runs across the groups, so 128 groups predicted
# 3-6% faster than 64 at 800 and 3200 training rows.
_GROUPS = 128


class KnnModel:
    """Brute-force k-nearest neighbors with Euclidean distance.

    Neighbours are the first k training rows in (distance, index) order,
    which is what a full stable argsort of each distance row gives; distance
    ties resolve to the lowest training index, vote ties to class 1.

    Selection bounds each row's k-th smallest distance from above, keeps the
    distances not greater than the bound as candidates, orders a block's
    candidates by one stable lexsort by (row, distance), and takes each
    row's first k.  The bound is the k-th smallest of the minima of
    G = min(``_GROUPS``, training rows) strided column groups (column c is
    in group c mod G), so no copy of the distances is partitioned.  Those
    k minima are k distinct distances of the row, so the row's true k-th
    distance is at most the bound, and every distance up to the true k-th is
    a candidate: the first k candidates are the full sort's first k, bit for
    bit, however many more the bound lets in.  A NaN distance is never
    greater than the bound, so it stays a candidate and sorts last.  A group
    holding a NaN has a NaN minimum, which the partition puts last; with
    fewer than k NaN-free groups, or fewer groups than k, the bound is NaN
    and every distance is a candidate.

    ``predict`` works through the queries in near-equal blocks of at most
    ``_BLOCK_ROWS`` rows, so it holds one block's distances and candidate
    mask at a time, never one (queries x training rows) matrix.  Each block's
    distances match the one-shot product bit for bit as long as the block
    has more than one row: BLAS computes a one-row product as a
    matrix-vector product, which rounds differently.  ``np.array_split``
    keeps every block within one row of the others, so a block has one row
    only when the whole query does, and then the one-shot product is that
    same matrix-vector product.
    """

    def __init__(self, k: int, classification: bool):
        self.k = int(k)
        self.classification = classification

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnModel":
        if self.k > X.shape[0]:
            raise DomainError(f"k={self.k} exceeds the {X.shape[0]} training samples")
        # -2 X, kept in place of the training rows: away from overflow and
        # subnormals, scaling by a power of two is exact, so Z @ (-2 X).T has
        # the bits of -2.0 * (Z @ X.T) and saves a pass over each distance
        # block.  Being a private buffer, it also keeps predict on the very
        # array passed here off BLAS syrk (one buffer times its own
        # transpose), which on 3200 rows and one OpenBLAS thread ran 2.4x
        # slower than the gemm two buffers get.
        self._xm2 = -2.0 * X
        self.y = y
        self._sq = np.sum(np.square(X), axis=1)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        blocks = np.array_split(X, -(-X.shape[0] // _BLOCK_ROWS))
        # One set of block buffers serves every block.  Freed between blocks,
        # fresh ones went back to the OS and were faulted in again each time,
        # which at 800 training rows cost more than the blocks saved.
        shape = (blocks[0].shape[0], self._xm2.shape[0])
        d2, mask = np.empty(shape), np.empty(shape, dtype=bool)
        nearest = np.concatenate([self._nearest(b, d2[: len(b)], mask[: len(b)]) for b in blocks])
        votes = self.y[nearest]
        if self.classification:
            return (2.0 * np.sum(votes, axis=1) >= self.k).astype(np.float64)
        return np.mean(votes, axis=1)

    def _nearest(self, X: np.ndarray, d2: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Indices of the k nearest training rows to each row of X, nearest first.

        ``d2`` and ``candidates`` are (rows of X x training rows) buffers that
        this call overwrites.
        """
        k = self.k
        # sum(X^2) - 2.0 * (X @ train.T) + self._sq, bit for bit: the product
        # with -2 train is exactly -2.0 times the product, and a - b is
        # (-b) + a in IEEE arithmetic.
        np.matmul(X, self._xm2.T, out=d2)
        d2 += np.sum(np.square(X), axis=1, keepdims=True)
        d2 += self._sq
        # Group g holds columns g, g + G, ...: the first G * m columns reshape
        # to (rows, m, G) without a copy, and the n - G * m tail columns fold
        # into the first groups.  np.minimum propagates NaN.
        n = d2.shape[1]
        groups = min(_GROUPS, n)
        full = n - n % groups
        bound = np.minimum.reduce(d2[:, :full].reshape(len(d2), -1, groups), axis=1)
        np.minimum(bound[:, : n - full], d2[:, full:], out=bound[:, : n - full])
        if k <= groups:
            bound.partition(k - 1, axis=1)
            bound = bound[:, k - 1 : k]
        else:
            bound = np.nan
        # A NaN distance is never greater, so it stays a candidate; it sorts
        # last, so it is taken only when a row has fewer than k numbers.
        np.greater(d2, bound, out=candidates)
        np.logical_not(candidates, out=candidates)
        # Row-major, so each row's candidates come in index order and the
        # stable lexsort keeps that order among equal distances.
        rows, cols = np.divmod(np.flatnonzero(candidates), candidates.shape[1])
        order = np.lexsort((d2[rows, cols], rows))
        starts = np.searchsorted(rows, np.arange(d2.shape[0]))
        return cols[order[starts[:, None] + np.arange(k)]]


class _LinearStack:
    """Base of the full-batch linear learners: one dataset or a stack of them.

    ``fit`` takes X of shape (n, f) with y of shape (n,), or a stack of R
    datasets, X (R, n, f) with y (R, n); one dataset trains as a stack of one.
    ``_train`` is the one epoch loop: for t = 1 .. ``epochs`` it writes
    X @ w + b into a scores buffer, the learner's ``_direction`` turns that
    into the per-row direction d (given a spare bool mask buffer), g = X.T @ d,
    and the learner's ``_step`` updates w and b in place.  Each product is a
    stacked ``np.matmul`` against (R, k, 1) views: one BLAS gemv per slice
    with a lone fit's arguments.  The rest is elementwise, and the intercept
    sums are ``np.add.reduce(..., axis=1)``, each row's pairwise sum, so every
    slice has the bits of fitting it alone.  After one dataset ``weights`` is
    (f,) and ``intercept`` a float; after a stack they are (R, f) and (R,),
    and ``predict`` takes a stack of the same R query sets.
    """

    learned = ("weights", "intercept")

    def __init__(self, epochs: int, step: float):
        self.epochs = int(epochs)
        self.step = float(step)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_LinearStack":
        if X.ndim == 2:
            w, b = self._train(X[None], y[None])
            self.weights, self.intercept = w[0], float(b[0])
        else:
            self.weights, self.intercept = self._train(X, y)
        return self

    def _train(self, X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        stack, n, f = X.shape
        w = np.zeros((stack, f))
        b = np.zeros(stack)
        g = np.empty_like(w)
        scores = np.empty((stack, n))
        d = np.empty_like(scores)
        mask = np.empty(scores.shape, dtype=bool)
        XT, w1, b1, g1 = X.transpose(0, 2, 1), w[..., None], b[:, None], g[..., None]
        scores1, d1 = scores[..., None], d[..., None]
        for t in range(1, self.epochs + 1):
            np.matmul(X, w1, out=scores1)
            scores += b1
            self._direction(scores, y, d, mask)
            np.matmul(XT, d1, out=g1)
            self._step(t, w, b, g, d)
        return w, b

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """X @ w + b for each slice: (m,) for one query set, (R, m) for a stack."""
        scores = np.matmul(X, self.weights[..., None])[..., 0]
        return scores + np.asarray(self.intercept)[..., None]


class LinearSvr(_LinearStack):
    """Linear epsilon-insensitive regression trained by subgradient descent.

    Objective: 0.5 ||w||^2 + sum_i max(0, |w.x_i + b - y_i| - epsilon),
    with step_t = step / sqrt(t) over full-batch epochs.  The direction is
    sign(r) outside the tube |r| > epsilon and 0 inside it, and the update
    keeps the order of w -= step_t * (w + X.T @ s), so the fitted bits are
    those of the allocate-per-epoch loop.
    """

    def __init__(self, epsilon: float, epochs: int, step: float):
        super().__init__(epochs, step)
        self.epsilon = float(epsilon)

    def _direction(self, r: np.ndarray, y: np.ndarray, s: np.ndarray, outside: np.ndarray) -> None:
        r -= y
        np.greater(np.abs(r, out=s), self.epsilon, out=outside)
        np.sign(r, out=s)
        s *= outside

    def _step(self, t: int, w: np.ndarray, b: np.ndarray, g: np.ndarray, s: np.ndarray) -> None:
        eta = self.step / math.sqrt(t)
        g += w
        g *= eta
        w -= g
        b -= eta * np.add.reduce(s, axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._scores(X)


class LinearSvc(_LinearStack):
    """Linear hinge-loss classifier trained by subgradient descent.

    The regressor's schedule on the hinge loss of y' = 2y - 1: the direction
    is y' where the margin y' (X @ w + b) is below 1, else 0, and the update
    keeps the order of w -= step_t * (w - X.T @ a).  Scores of exactly zero
    predict class 1.
    """

    def _train(self, X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return super()._train(X, 2.0 * y - 1.0)

    def _direction(
        self, m: np.ndarray, signed: np.ndarray, a: np.ndarray, inside: np.ndarray
    ) -> None:
        m *= signed
        np.less(m, 1.0, out=inside)
        np.multiply(signed, inside, out=a)

    def _step(self, t: int, w: np.ndarray, b: np.ndarray, g: np.ndarray, a: np.ndarray) -> None:
        eta = self.step / math.sqrt(t)
        np.subtract(w, g, out=g)
        g *= eta
        w -= g
        b += eta * np.add.reduce(a, axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self._scores(X) >= 0.0).astype(np.float64)


class LogisticClassifier(_LinearStack):
    """Binary logistic regression by full-batch gradient descent.

    Trains for ``epochs`` full-batch steps.  The direction is the gap
    sigmoid(X @ w + b) - y, and the weight step is (step * X.T @ gap) / n in
    that order: dividing by n first rounds differently and changes the
    fitted bits.  Probability ties at 0.5 predict class 1, so the zero-weight
    model labels everything 1.
    """

    def _direction(self, z: np.ndarray, y: np.ndarray, gap: np.ndarray, _: np.ndarray) -> None:
        _sigmoid(z, out=gap)
        gap -= y

    def _step(self, t: int, w: np.ndarray, b: np.ndarray, g: np.ndarray, gap: np.ndarray) -> None:
        n = gap.shape[1]
        g *= self.step
        g /= n
        w -= g
        b -= self.step * (np.add.reduce(gap, axis=1) / n)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (_sigmoid(self._scores(X)) >= 0.5).astype(np.float64)


class MlpClassifier:
    """One hidden tanh layer, logistic output, mean cross-entropy loss.

    Full-batch gradient descent with a fixed step from i.i.d.
    U[-init_scale, init_scale] weights and biases, drawn by one ``uniform`` call
    into a flat buffer (the bits of drawing w1, b1, w2 and b2 in turn).  An
    epoch computes only the gradients (no loss, no history); ``params`` are
    views into that buffer, updated by g *= step and p -= g, so each is p - (step * g).

    The kernel ``_gradients`` keeps the plain formulas' operation order,
    since any reordering changes the fitted bits.  ``einsum("i,j->ij")``
    makes each element of the outer product dz2 w2^T one commutative
    product, and ``einsum("ij->j")`` adds the rows of the C-order hidden
    delta in order from zero, as ``np.sum(axis=0)`` does (it sums F-order
    buffers pairwise); an all -0.0 column gives +0.0 from both.  Neither
    ``einsum`` is optimized, so neither calls BLAS.
    """

    learned = ("params",)

    def __init__(self, hidden_units: int, epochs: int, step: float, init_scale: float, seed: int):
        self.hidden_units = int(hidden_units)
        self.epochs = int(epochs)
        self.step = float(step)
        self.init_scale = float(init_scale)
        self.seed = int(seed)

    @staticmethod
    def _buffers(n: int, h: int) -> list:
        """An epoch's hidden, z2, dz2, dz1 and slope buffers, in ``_gradients`` order."""
        return [np.empty(shape) for shape in ((n, h), n, n, (n, h), (n, h))]

    @staticmethod
    def _gradients(params, X, y, grads, hidden, z2, dz2, dz1, slope) -> None:
        """Writes the loss gradients at ``params`` into ``grads``, the output
        scores into ``z2``; the other buffers are scratch."""
        np.matmul(X, params["w1"], out=hidden)
        hidden += params["b1"]
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, params["w2"], out=z2)
        z2 += params["b2"]
        _sigmoid(z2, out=dz2)
        dz2 -= y
        dz2 /= X.shape[0]
        np.einsum("i,j->ij", dz2, params["w2"], out=dz1)
        np.square(hidden, out=slope)
        np.subtract(1.0, slope, out=slope)
        dz1 *= slope
        np.matmul(X.T, dz1, out=grads["w1"])
        np.einsum("ij->j", dz1, out=grads["b1"])
        np.matmul(hidden.T, dz2, out=grads["w2"])
        np.sum(dz2, out=grads["b2"])

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MlpClassifier":
        f, h, scale = X.shape[1], self.hidden_units, self.init_scale
        flat = make_rng(self.seed).uniform(-scale, scale, size=f * h + 2 * h + 1)
        flat_grads = np.empty_like(flat)
        params, grads = (
            {"w1": b[: f * h].reshape(f, h), "b1": b[f * h : -h - 1],
             "w2": b[-h - 1 : -1], "b2": b[-1:].reshape(())}
            for b in (flat, flat_grads)
        )
        buffers = self._buffers(X.shape[0], self.hidden_units)
        for _ in range(self.epochs):
            self._gradients(params, X, y, grads, *buffers)
            flat_grads *= self.step
            flat -= flat_grads
        self.params = params
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        hidden = np.tanh(X @ self.params["w1"] + self.params["b1"])
        output = _sigmoid(hidden @ self.params["w2"] + self.params["b2"])
        return (output >= 0.5).astype(np.float64)


class ModelEntry(NamedTuple):
    """One learner: the generator it is swept on and how its unfitted instance is built."""

    generator: str
    build: Callable[[int], object]  # build(seed) -> learner with the fixed hyperparameters
    # Fits and predicts a stack of R datasets, (R, n, f), in one call.  Such a
    # learner's build ignores the seed, so a stacked call's spec needs none.
    stacked: bool = False

    @property
    def task(self) -> str:
        return GENERATOR_TASKS[self.generator]


# The one model table; its order is the order of `--models all`.  Every
# hyperparameter is a literal here: no sweep tunes one.
MODELS: Dict[str, ModelEntry] = {
    "olsr": ModelEntry("linear", lambda seed: OlsRegressor()),
    "dtr": ModelEntry("friedman1", lambda seed: CartTree(10, 80, classification=False)),
    "knnr": ModelEntry("friedman1", lambda seed: KnnModel(5, classification=False)),
    "lsvr": ModelEntry("linear", lambda seed: LinearSvr(0.1, epochs=200, step=1e-3), stacked=True),
    "blrc": ModelEntry("two_class", lambda seed: LogisticClassifier(500, step=0.1), stacked=True),
    "dtc": ModelEntry("two_class", lambda seed: CartTree(10, 80, classification=True)),
    "knnc": ModelEntry("two_class", lambda seed: KnnModel(5, classification=True)),
    "lsvc": ModelEntry("two_class", lambda seed: LinearSvc(epochs=200, step=1e-3), stacked=True),
    "mlpc": ModelEntry("two_class", lambda seed: MlpClassifier(32, 300, 0.05, 0.5, seed)),
}
MODEL_KINDS: Tuple[str, ...] = tuple(MODELS)
REGRESSION_KINDS: Tuple[str, ...] = tuple(k for k, m in MODELS.items() if m.task == REGRESSION)
CLASSIFICATION_KINDS: Tuple[str, ...] = tuple(
    k for k, m in MODELS.items() if m.task == CLASSIFICATION
)


def _check_features(features: np.ndarray, kind: str) -> np.ndarray:
    """The features as float64: one (n, f) matrix, or an (R, n, f) stack for a stacked kind."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 3 and not MODELS[kind].stacked:
        raise DomainError(f"{kind} takes one feature matrix, not a stack of them")
    if X.ndim not in (2, 3) or 0 in X.shape:
        raise DomainError("features must be a non-empty matrix")
    if not np.all(np.isfinite(X)):
        raise DomainError("features must all be finite")
    return X


def _finite_parameters(impl: object) -> bool:
    """Whether every parameter a trainer names in ``learned`` is finite; kNN and
    trees, which keep their data's own values, name none."""
    learned = [getattr(impl, name) for name in getattr(impl, "learned", ())]
    parts = [p for v in learned for p in (v.values() if isinstance(v, dict) else [v])]
    return all(np.all(np.isfinite(p)) for p in parts)


def _check_row_norms(kind: str, impl: object, X: np.ndarray) -> None:
    """kNN ranks rows by squared distance, which a row whose squared norm
    overflows (entries past about 1e154) does not have."""
    if isinstance(impl, KnnModel):
        with np.errstate(over="ignore"):
            finite = np.all(np.isfinite(np.sum(np.square(X), axis=-1)))
        if not finite:
            raise DomainError(f"{kind}: a feature row's squared norm overflows")


def fit(spec: ModelSpec, features: np.ndarray, targets: np.ndarray) -> TrainedModel:
    """Train the learner named by the spec; deterministic given spec.seed.

    A kind marked ``stacked`` in `MODELS` also takes a stack of R datasets,
    features (R, n, f) and targets (R, n), and trains one model per slice.
    """
    X = _check_features(features, spec.kind)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != X.shape[:-1]:
        raise DomainError("targets must be one value per feature row")
    if not np.all(np.isfinite(y)):
        raise DomainError("targets must all be finite")
    entry = MODELS[spec.kind]
    if entry.task == CLASSIFICATION and not set(np.unique(y)) <= {0.0, 1.0}:
        raise DomainError("classification targets must be 0/1 labels")
    impl = entry.build(spec.seed)
    _check_row_norms(spec.kind, impl, X)
    # Non-finite parameters, not numpy's warnings, fail a diverged trainer.
    with np.errstate(over="ignore", invalid="ignore"):
        impl.fit(X, y)
    if not _finite_parameters(impl):
        raise DomainError(f"{spec.kind} training diverged: a learned parameter is not finite")
    return TrainedModel(spec=spec, n_features=X.shape[-1], impl=impl, stack=X.shape[:-2])


def predict(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Predict with a trained model; column count must match training.

    A model fitted on a stack of R datasets predicts a stack of R query sets,
    slice by slice.
    """
    X = _check_features(features, model.spec.kind)
    if X.shape[-1] != model.n_features:
        raise DomainError(
            f"model was trained on {model.n_features} features, got {X.shape[-1]}"
        )
    if X.shape[:-2] != model.stack:
        def sets(stack):
            return f"a stack of {stack[0]} datasets" if stack else "one dataset"

        raise DomainError(f"model was trained on {sets(model.stack)}, got {sets(X.shape[:-2])}")
    _check_row_norms(model.spec.kind, model.impl, X)
    return model.impl.predict(X)
