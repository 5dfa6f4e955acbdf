"""Shared fixtures: the full default sweep is expensive, so run it once."""

import numpy as np
import pytest

from ddrbench.datagen import CLASSIFICATION, REGRESSION
from ddrbench.harness import ExperimentConfig, run_experiment
from ddrbench.models import CLASSIFICATION_KINDS, REGRESSION_KINDS, MlpClassifier
from ddrbench.rng import make_rng

ACCEPTANCE_SEED = 12345


def mlp_init(n_features, hidden_units, init_scale, seed):
    """The perceptron's initial parameters, drawn one block at a time."""
    rng = make_rng(seed)
    return {
        "w1": rng.uniform(-init_scale, init_scale, size=(n_features, hidden_units)),
        "b1": rng.uniform(-init_scale, init_scale, size=hidden_units),
        "w2": rng.uniform(-init_scale, init_scale, size=hidden_units),
        "b2": rng.uniform(-init_scale, init_scale, size=()),
    }


def mlp_loss(params, X, y):
    """Mean cross-entropy of the one-hidden-layer perceptron against 0/1 labels."""
    z2 = np.tanh(X @ params["w1"] + params["b1"]) @ params["w2"] + params["b2"]
    return float(np.mean(np.logaddexp(0.0, z2) - y * z2))


def grad_check_error(params, X, y, h=1e-5):
    """Max over parameter blocks of ||g_analytic - g_fd|| / max(norms).

    The analytic gradients come from the kernel that `MlpClassifier.fit` runs.
    """
    grads = {name: np.empty(np.shape(value)) for name, value in params.items()}
    buffers = MlpClassifier._buffers(X.shape[0], np.shape(params["b1"])[0])
    MlpClassifier._gradients(params, X, y, grads, *buffers)
    worst = 0.0
    for name, value in params.items():
        base = np.array(value, dtype=np.float64)
        fd = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = base.copy()
            plus[idx] += h
            up = mlp_loss({**params, name: plus}, X, y)
            minus = base.copy()
            minus[idx] -= h
            down = mlp_loss({**params, name: minus}, X, y)
            fd[idx] = (up - down) / (2.0 * h)
        ga = np.asarray(grads[name], dtype=np.float64)
        denom = max(
            float(np.linalg.norm(ga.reshape(-1))),
            float(np.linalg.norm(fd.reshape(-1))),
            1e-12,
        )
        worst = max(worst, float(np.linalg.norm((ga - fd).reshape(-1)) / denom))
    return worst


@pytest.fixture(scope="session")
def default_run():
    """One full default sweep (n=1000, d=10, grid 21, 5 replicates) per task."""
    import time

    start = time.monotonic()
    regression = run_experiment(
        ExperimentConfig(
            task=REGRESSION, models=REGRESSION_KINDS, master_seed=ACCEPTANCE_SEED
        )
    )
    classification = run_experiment(
        ExperimentConfig(
            task=CLASSIFICATION, models=CLASSIFICATION_KINDS, master_seed=ACCEPTANCE_SEED
        )
    )
    elapsed = time.monotonic() - start
    return {
        "reports": {r.model: r for r in regression + classification},
        "elapsed": elapsed,
    }
