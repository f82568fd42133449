"""Classifier and clustering implementations with a single fit/predict surface.

Every kind is one (fit, scores) pair, named in KINDS by its module and
function names; a kind's module is imported the first time that kind is
fitted or scored.  fit(Xs, y_idx, n_columns, spec) takes the standardized
training rows, their class indices, the number of score columns and the
ModelSpec, and returns exactly the arrays that model.npz stores, training
curves included.  scores(params, Xs, n_columns) gives one row of
non-negative scores per input row, summing to 1.  A TrainedModel's classes
name the score columns, so every kind predicts classes[argmax(scores)]:
supervised kinds have one column per training class, clustering kinds one
per cluster, named by the cluster's majority training label.

All kinds standardize features using statistics captured from the training
rows at fit time, break every tie toward the smallest column index, and draw
any randomness from the seed in the ModelSpec, so a fixed (spec, training
set) pair always yields the same trained model and the same predictions.
"""

from __future__ import annotations

from importlib import import_module

import numpy as np

from ..config import CLUSTERING_KINDS, MODEL_KINDS, SUPERVISED_KINDS, ModelSpec
from ..core import sorted_unique
from .common import (
    FitError,
    PredictError,
    TrainedModel,
    apply_standardization,
    check_rows,
    fit_standardization,
    majority_label,
)
from .io import load_model, save_model

__all__ = [
    "CLUSTERING_KINDS",
    "KINDS",
    "MODEL_KINDS",
    "SUPERVISED_KINDS",
    "FitError",
    "ModelSpec",
    "PredictError",
    "TrainedModel",
    "fit",
    "fit_dataset",
    "load_model",
    "predict_labels",
    "predict_proba",
    "save_model",
]

# kind -> (module under eegsong.models, its fit function, its scores function)
KINDS = {
    "knn": ("neighbors", "fit_knn", "knn_scores"),
    "tree": ("trees", "fit_tree", "tree_scores"),
    "gboost": ("trees", "fit_gboost", "gboost_scores"),
    "gnb": ("bayes", "fit_gnb", "gnb_scores"),
    "mlp": ("neural", "fit_mlp", "mlp_scores"),
    "kmeans": ("clustering", "fit_kmeans", "kmeans_scores"),
    "gmm": ("clustering", "fit_gmm", "gmm_scores"),
}


def _kind_functions(kind: str):
    """The (fit, scores) pair of kind, importing its module."""
    module_name, fit_name, scores_name = KINDS[kind]
    module = import_module(f".{module_name}", __name__)
    return getattr(module, fit_name), getattr(module, scores_name)


def fit(spec: ModelSpec, X: np.ndarray, labels: np.ndarray) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0:
        raise FitError("training matrix must be 2-d with at least one row")
    if labels.shape[0] != X.shape[0]:
        raise FitError(
            f"{labels.shape[0]} labels for {X.shape[0]} training rows"
        )
    if not np.isfinite(X).all():
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise FitError(f"non-finite feature values in training row {bad}")

    classes = sorted_unique(labels)
    if spec.kind in SUPERVISED_KINDS and classes.shape[0] < 2:
        raise FitError(
            f"supervised fit needs at least two classes, got {classes.shape[0]}"
        )
    mean, std = fit_standardization(X)
    Xs = apply_standardization(X, mean, std)
    y_idx = np.searchsorted(classes, labels)
    n_columns = classes.shape[0]
    if spec.kind in CLUSTERING_KINDS and spec.n_clusters is not None:
        n_columns = spec.n_clusters
    fit_kind, scores = _kind_functions(spec.kind)
    params = fit_kind(Xs, y_idx, n_columns, spec)
    if spec.kind in CLUSTERING_KINDS:
        # name each cluster by the majority label of the training rows it
        # takes; an empty cluster takes the smallest label
        assigned = np.argmax(scores(params, Xs, n_columns), axis=1)
        members = [labels[assigned == c] for c in range(n_columns)]
        classes = np.array(
            [majority_label(m) if m.size else classes[0] for m in members], dtype=classes.dtype
        )
    return TrainedModel(
        kind=spec.kind,
        classes=classes,
        feature_mean=mean,
        feature_std=std,
        params=params,
    )


def fit_dataset(spec: ModelSpec, dataset) -> TrainedModel:
    return fit(spec, dataset.X, dataset.labels)


def predict_proba(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """One score column per entry of model.classes; each row sums to 1."""
    Xs = check_rows(model, rows)
    return _kind_functions(model.kind)[1](model.params, Xs, model.classes.shape[0])


def predict_labels(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """The class naming each row's highest score; ties go to the smallest
    column index."""
    return model.classes[np.argmax(predict_proba(model, rows), axis=1)]
