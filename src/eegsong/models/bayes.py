"""Gaussian naive Bayes with per-class diagonal variances."""

from __future__ import annotations

import numpy as np

from ..config import ModelSpec
from .common import diag_gaussian_log_pdf, normalize_log_scores

GNB_VAR_FLOOR = 1e-9


def fit_gnb(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int, spec: ModelSpec
) -> dict[str, np.ndarray]:
    n, d = X.shape
    means = np.empty((n_classes, d))
    variances = np.empty((n_classes, d))
    log_priors = np.empty(n_classes)
    for c in range(n_classes):
        rows = X[y_idx == c]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0) + GNB_VAR_FLOOR
        log_priors[c] = np.log(rows.shape[0] / n)
    return {"means": means, "variances": variances, "log_priors": log_priors}


def gnb_scores(
    params: dict[str, np.ndarray], rows: np.ndarray, n_classes: int
) -> np.ndarray:
    return normalize_log_scores(
        diag_gaussian_log_pdf(rows, params["means"], params["variances"])
        + params["log_priors"][None, :]
    )
