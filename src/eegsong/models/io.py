"""Trained-model serialization as a versioned .npz archive, with one
param_<name> array for each name in the kind's row of models.KINDS."""

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
    with atomic_write(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    return path


def load_model(path: str | Path) -> TrainedModel:
    """A model saved by save_model.  Raises ValueError, naming path, when the
    archive is unreadable, of another format version, of an unknown kind, or
    lacks param_<name> for any name that its row of models.KINDS lists."""
    # imported here: models/__init__ imports this module before it defines KINDS
    from . import KINDS

    with read_archive(path, "model", FORMAT_VERSION, _MODEL_ARRAYS, ValueError) as archive:
        kind = str(archive["kind"])
        if kind not in KINDS:
            raise ValueError(f"{path}: unknown model kind {kind!r}")
        archive.require([_PARAM_PREFIX + name for name in KINDS[kind][3]])
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
