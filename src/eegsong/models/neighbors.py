"""k-nearest-neighbour classification with deterministic tie handling.

Distances are scipy.spatial.distance.cdist(rows, train_x) ("euclidean") bit
for bit: np.sqrt of common.sq_distances.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelSpec
from .common import FitError, distance_tiles, sq_distances


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
    the same way downstream via argmax.  Rows are scored one distance tile at
    a time.
    """
    train_x, train_y_idx = params["train_x"], params["train_y_idx"]
    k = int(params["k"])
    votes = np.empty((rows.shape[0], n_classes))
    tiles = distance_tiles(rows.shape[0], train_x.shape[0])
    for start in tiles:
        dist = np.sqrt(sq_distances(rows[start : start + tiles.step], train_x))
        order = np.lexsort((np.broadcast_to(train_y_idx, dist.shape), dist), axis=-1)
        top = train_y_idx[order[:, :k]]
        votes[start : start + tiles.step] = (top[:, :, None] == np.arange(n_classes)).sum(axis=1) / k
    return votes
