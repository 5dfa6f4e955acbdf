"""Shared fixtures: the full default sweep is expensive, so run it once."""

import numpy as np
import pytest

from ddrbench.datagen import CLASSIFICATION, REGRESSION
from ddrbench.harness import ExperimentConfig, run_experiment
from ddrbench.models import CLASSIFICATION_KINDS, REGRESSION_KINDS, MlpClassifier

ACCEPTANCE_SEED = 12345


def grad_check_error(params, X, y, h=1e-5):
    """Max over parameter blocks of ||g_analytic - g_fd|| / max(norms)."""
    _, grads = MlpClassifier.loss_and_grads(params, X, y)
    worst = 0.0
    for name, value in params.items():
        base = np.array(value, dtype=np.float64)
        fd = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = base.copy()
            plus[idx] += h
            up = MlpClassifier.loss_and_grads({**params, name: plus}, X, y)[0]
            minus = base.copy()
            minus[idx] -= h
            down = MlpClassifier.loss_and_grads({**params, name: minus}, X, y)[0]
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
