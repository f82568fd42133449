"""Trained-model serialization as a versioned .npz archive."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import read_archive
from .common import TrainedModel

# Version 2 stores tree and gboost models as one flat forest with per-tree roots.
FORMAT_VERSION = 2
_PARAM_PREFIX = "param_"
_MODEL_ARRAYS = ("kind", "classes", "feature_mean", "feature_std")


def save_model(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray(FORMAT_VERSION),
        "kind": np.asarray(model.kind),
        "classes": model.classes,
        "feature_mean": model.feature_mean,
        "feature_std": model.feature_std,
    }
    if model.cluster_labels is not None:
        payload["cluster_labels"] = model.cluster_labels
    for name, value in model.params.items():
        payload[_PARAM_PREFIX + name] = np.asarray(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)
    return path


def load_model(path: str | Path) -> TrainedModel:
    arrays = read_archive(path, "model", FORMAT_VERSION, _MODEL_ARRAYS, ValueError)
    params = {
        key[len(_PARAM_PREFIX) :]: value
        for key, value in arrays.items()
        if key.startswith(_PARAM_PREFIX)
    }
    return TrainedModel(
        kind=str(arrays["kind"]),
        classes=arrays["classes"],
        feature_mean=arrays["feature_mean"],
        feature_std=arrays["feature_std"],
        params=params,
        cluster_labels=arrays.get("cluster_labels"),
    )
