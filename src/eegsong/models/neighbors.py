"""k-nearest-neighbour classification with deterministic tie handling."""

from __future__ import annotations

import numpy as np

from .common import FitError

PREDICT_CHUNK = 512


def check_knn_fit(k: int, n_train: int) -> None:
    if k > n_train:
        raise FitError(f"knn_k={k} exceeds the {n_train} training rows available")


def knn_vote(
    train_X: np.ndarray,
    train_y_idx: np.ndarray,
    rows: np.ndarray,
    k: int,
    n_classes: int,
) -> np.ndarray:
    """Per-row class vote fractions.

    Neighbours are ordered by (distance, class index) so rows at identical
    distance resolve toward the smaller class, and equal vote counts resolve
    the same way downstream via argmax.
    """
    from scipy.spatial.distance import cdist

    votes = np.empty((rows.shape[0], n_classes))
    for start in range(0, rows.shape[0], PREDICT_CHUNK):
        chunk = rows[start : start + PREDICT_CHUNK]
        dist = cdist(chunk, train_X)
        for i in range(chunk.shape[0]):
            order = np.lexsort((train_y_idx, dist[i]))
            top = train_y_idx[order[:k]]
            votes[start + i] = np.bincount(top, minlength=n_classes) / k
    return votes
