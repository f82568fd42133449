"""Trained-model serialization as a versioned .npz archive."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import atomic_write, read_archive
from .common import TrainedModel

# Version 3 names every score column in classes, clustering kinds included;
# version 2 held cluster ids there and the cluster-to-label map beside them.
FORMAT_VERSION = 3
_PARAM_PREFIX = "param_"
_MODEL_ARRAYS = ("kind", "classes", "feature_mean", "feature_std")
_FOREST = (
    "param_roots", "param_feature", "param_threshold", "param_left", "param_right",
    "param_value",
)
# The arrays each kind's fit stores beyond _MODEL_ARRAYS: its parameters
# and its training curve.
_KIND_ARRAYS = {
    "knn": ("param_train_x", "param_train_y_idx", "param_k"),
    "tree": _FOREST,
    "gboost": (*_FOREST, "param_learning_rate", "param_train_loss"),
    "gnb": ("param_means", "param_variances", "param_log_priors"),
    "mlp": ("param_w1", "param_b1", "param_w2", "param_b2", "param_epoch_loss"),
    "kmeans": ("param_centroids", "param_objective"),
    "gmm": ("param_weights", "param_means", "param_variances", "param_loglik"),
}


def save_model(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray(FORMAT_VERSION),
        "kind": np.asarray(model.kind),
        "classes": model.classes,
        "feature_mean": model.feature_mean,
        "feature_std": model.feature_std,
    }
    for name, value in model.params.items():
        payload[_PARAM_PREFIX + name] = np.asarray(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    return path


def load_model(path: str | Path) -> TrainedModel:
    """A model saved by save_model.  Raises ValueError, naming path, when the
    archive is unreadable, of another format version, of an unknown kind, or
    lacks any array that its kind stores."""
    with read_archive(path, "model", FORMAT_VERSION, _MODEL_ARRAYS, ValueError) as archive:
        kind = str(archive["kind"])
        if kind not in _KIND_ARRAYS:
            raise ValueError(f"{path}: unknown model kind {kind!r}")
        archive.require(_KIND_ARRAYS[kind])
        arrays = {name: archive[name] for name in archive.files}
    params = {
        key[len(_PARAM_PREFIX) :]: value
        for key, value in arrays.items()
        if key.startswith(_PARAM_PREFIX)
    }
    return TrainedModel(
        kind=kind,
        classes=arrays["classes"],
        feature_mean=arrays["feature_mean"],
        feature_std=arrays["feature_std"],
        params=params,
    )
