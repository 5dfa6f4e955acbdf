"""ddrbench: quantify how the noise fraction of data degrades model accuracy.

Datasets are synthesized bottom-up at exact deterministic-to-data ratios
(DDR), swept over [0, 1] for nine model types, and summarized as
accuracy-DDR curves and normalized-AUC trustworthiness scores.  Import
names from the module that defines them, e.g. ``ddrbench.harness``.
"""

__version__ = "0.1.0"
