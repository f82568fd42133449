"""k-nearest-neighbour classification with deterministic tie handling."""

from __future__ import annotations

import numpy as np

from .common import FitError, ModelSpec

PREDICT_CHUNK = 512


def fit_knn(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int, spec: ModelSpec
) -> dict[str, np.ndarray]:
    if spec.knn_k > X.shape[0]:
        raise FitError(f"knn_k={spec.knn_k} exceeds the {X.shape[0]} training rows available")
    return {"train_x": X, "train_y_idx": y_idx, "k": np.asarray(spec.knn_k)}


def knn_scores(
    params: dict[str, np.ndarray], rows: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-row class vote fractions.

    Neighbours are ordered by (distance, class index) so rows at identical
    distance resolve toward the smaller class, and equal vote counts resolve
    the same way downstream via argmax.
    """
    from scipy.spatial.distance import cdist

    train_y_idx = params["train_y_idx"]
    k = int(params["k"])
    votes = np.empty((rows.shape[0], n_classes))
    for start in range(0, rows.shape[0], PREDICT_CHUNK):
        chunk = rows[start : start + PREDICT_CHUNK]
        dist = cdist(chunk, params["train_x"])
        for i in range(chunk.shape[0]):
            order = np.lexsort((train_y_idx, dist[i]))
            top = train_y_idx[order[:k]]
            votes[start + i] = np.bincount(top, minlength=n_classes) / k
    return votes
