"""ddrbench: quantify how the noise fraction of data degrades model accuracy.

Datasets are synthesized bottom-up at exact deterministic-to-data ratios
(DDR), swept over [0, 1] for nine model types, and summarized as
accuracy-DDR curves and normalized-AUC trustworthiness scores.
"""

from .datagen import (
    CLASSIFICATION,
    REGRESSION,
    CleanDataset,
    NoisyDataset,
    gen_friedman1,
    gen_linear_regression,
    gen_two_class,
    inject_noise,
)
from .errors import (
    ConfigError,
    DdrBenchError,
    DegenerateDeterministicError,
    DegenerateSignalError,
    DegenerateTargetError,
    DomainError,
    SamplerError,
)
from .evaluation import (
    CurvePoint,
    PerformanceReport,
    f1_score,
    nmse_accuracy,
    normalized_auc,
    trust_point,
)
from .harness import ExperimentConfig, run_experiment, seed_derivation
from .models import ModelSpec, TrainedModel, fit, predict
from .rng import RandomSource, make_rng
from .sampler import sample_ddr_tuples
from .signals import (
    DdrValue,
    ddr_approx,
    ddr_exact,
    matrix_ddr_power_ratio,
    matrix_ddr_two_norm,
    power,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSIFICATION",
    "CleanDataset",
    "ConfigError",
    "CurvePoint",
    "DdrBenchError",
    "DdrValue",
    "DegenerateDeterministicError",
    "DegenerateSignalError",
    "DegenerateTargetError",
    "DomainError",
    "ExperimentConfig",
    "ModelSpec",
    "NoisyDataset",
    "PerformanceReport",
    "REGRESSION",
    "RandomSource",
    "SamplerError",
    "TrainedModel",
    "ddr_approx",
    "ddr_exact",
    "f1_score",
    "fit",
    "gen_friedman1",
    "gen_linear_regression",
    "gen_two_class",
    "inject_noise",
    "make_rng",
    "matrix_ddr_power_ratio",
    "matrix_ddr_two_norm",
    "nmse_accuracy",
    "normalized_auc",
    "power",
    "predict",
    "run_experiment",
    "sample_ddr_tuples",
    "seed_derivation",
    "trust_point",
]
