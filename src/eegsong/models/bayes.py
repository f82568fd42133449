"""Gaussian naive Bayes with per-class diagonal variances."""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .common import diag_gaussian_log_pdf

GNB_VAR_FLOOR = 1e-9


def fit_gnb(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int
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


def gnb_proba(params: dict[str, np.ndarray], rows: np.ndarray) -> np.ndarray:
    log_joint = (
        diag_gaussian_log_pdf(rows, params["means"], params["variances"])
        + params["log_priors"][None, :]
    )
    return np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
