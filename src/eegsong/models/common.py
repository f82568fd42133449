"""Shared model plumbing: spec, trained-model container, standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPERVISED_KINDS = ("knn", "tree", "gboost", "gnb", "mlp")
CLUSTERING_KINDS = ("kmeans", "gmm")
MODEL_KINDS = SUPERVISED_KINDS + CLUSTERING_KINDS


class FitError(ValueError):
    """Training preconditions violated (bad data or degenerate hyperparameters)."""


class PredictError(ValueError):
    """Prediction input does not match the trained model."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    knn_k: int = 5
    tree_max_depth: int = 8
    tree_min_leaf: int = 2
    gboost_rounds: int = 100
    gboost_depth: int = 2
    gboost_learning_rate: float = 0.1
    mlp_hidden: int = 64
    mlp_epochs: int = 200
    mlp_learning_rate: float = 0.01
    mlp_batch: int = 32
    n_clusters: int | None = None  # kmeans/gmm; None = number of training classes
    gmm_var_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        positives = (
            "knn_k",
            "tree_max_depth",
            "tree_min_leaf",
            "gboost_rounds",
            "gboost_depth",
            "mlp_hidden",
            "mlp_epochs",
            "mlp_batch",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("gboost_learning_rate", "mlp_learning_rate", "gmm_var_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_clusters is not None and self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted model: kind tag, learned arrays, and the feature
    standardization captured at fit time.

    classes[c] is the training label that score column c stands for: the
    class itself for supervised kinds, cluster c's majority training label
    for clustering kinds.
    """

    kind: str
    classes: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray
    params: dict[str, np.ndarray]

    @property
    def width(self) -> int:
        return self.feature_mean.shape[0]


def fit_standardization(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=0)
    std = np.where(std == 0, 1.0, std)
    return mean, std


def apply_standardization(
    X: np.ndarray, mean: np.ndarray, std: np.ndarray
) -> np.ndarray:
    return (X - mean) / std


def check_rows(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != model.width:
        raise PredictError(
            f"row width {rows.shape[1]} does not match model width {model.width}"
        )
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise PredictError(f"non-finite feature values in row {bad}")
    return apply_standardization(rows, model.feature_mean, model.feature_std)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def normalize_log_scores(log_scores: np.ndarray) -> np.ndarray:
    """Rows of exp(log_scores) rescaled to sum to 1, computed in log space."""
    from scipy.special import logsumexp

    return np.exp(log_scores - logsumexp(log_scores, axis=1, keepdims=True))


def mean_cross_entropy(proba: np.ndarray, y_idx: np.ndarray) -> float:
    """Mean negative log probability of each row's true class, clipped at
    1e-300 so a zero probability gives a large finite loss."""
    picked = np.clip(proba[np.arange(proba.shape[0]), y_idx], 1e-300, None)
    return float(-np.mean(np.log(picked)))


def diag_gaussian_log_pdf(
    rows: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """(n, k) log density of each row under each of k diagonal Gaussians."""
    diff = rows[:, None, :] - means[None, :, :]
    return -0.5 * np.sum(
        np.log(2.0 * np.pi * variances)[None, :, :] + diff**2 / variances[None, :, :],
        axis=2,
    )


def one_hot(indices: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((indices.shape[0], n_classes))
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def majority_label(labels: np.ndarray) -> int:
    """Most frequent label; ties go to the smallest label."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[np.argmax(counts)])
