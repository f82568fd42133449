"""Classifier and clustering implementations with a single fit/predict surface.

All model families standardize features using statistics captured from the
training rows at fit time, break every tie toward the smallest class or
cluster index, and draw any randomness from the seed in the ModelSpec, so a
fixed (spec, training set) pair always yields the same trained model and the
same predictions.
"""

from __future__ import annotations

import numpy as np

from . import bayes, clustering, neighbors, neural, trees
from .common import (
    CLUSTERING_KINDS,
    MODEL_KINDS,
    SUPERVISED_KINDS,
    FitError,
    ModelSpec,
    PredictError,
    TrainedModel,
    apply_standardization,
    check_rows,
    fit_standardization,
    majority_label,
    one_hot,
    softmax,
)
from .io import load_model, save_model

__all__ = [
    "CLUSTERING_KINDS",
    "MODEL_KINDS",
    "SUPERVISED_KINDS",
    "FitError",
    "ModelSpec",
    "PredictError",
    "TrainedModel",
    "fit",
    "fit_dataset",
    "load_model",
    "predict",
    "predict_labels",
    "predict_proba",
    "save_model",
]


def _class_indices(labels: np.ndarray, classes: np.ndarray) -> np.ndarray:
    return np.searchsorted(classes, labels)


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

    classes = np.unique(labels)
    if spec.kind in SUPERVISED_KINDS and classes.shape[0] < 2:
        raise FitError(
            f"supervised fit needs at least two classes, got {classes.shape[0]}"
        )
    mean, std = fit_standardization(X)
    Xs = apply_standardization(X, mean, std)
    y_idx = _class_indices(labels, classes)
    n_classes = classes.shape[0]
    cluster_labels = None

    if spec.kind == "knn":
        neighbors.check_knn_fit(spec.knn_k, X.shape[0])
        params = {
            "train_x": Xs,
            "train_y_idx": y_idx,
            "k": np.asarray(spec.knn_k),
        }
    elif spec.kind == "tree":
        params = trees.grow_tree(
            Xs, one_hot(y_idx, n_classes), spec.tree_max_depth, spec.tree_min_leaf
        )
    elif spec.kind == "gboost":
        params, losses = trees.fit_gradient_boosting(
            Xs,
            y_idx,
            n_classes,
            spec.gboost_rounds,
            spec.gboost_depth,
            spec.gboost_learning_rate,
        )
        params["learning_rate"] = np.asarray(spec.gboost_learning_rate)
        params["train_loss"] = losses
    elif spec.kind == "gnb":
        params = bayes.fit_gnb(Xs, y_idx, n_classes)
    elif spec.kind == "mlp":
        weights, epoch_loss = neural.train_mlp(
            Xs,
            y_idx,
            n_classes,
            spec.mlp_hidden,
            spec.mlp_epochs,
            spec.mlp_learning_rate,
            spec.mlp_batch,
            spec.seed,
        )
        params = dict(weights)
        params["epoch_loss"] = epoch_loss
    elif spec.kind == "kmeans":
        k = spec.n_clusters if spec.n_clusters is not None else n_classes
        centroids, assignments, objective = clustering.fit_kmeans(Xs, k, spec.seed)
        params = {"centroids": centroids, "objective": objective}
        cluster_labels = _majority_map(assignments, labels, k, classes)
        classes = np.arange(k)
    elif spec.kind == "gmm":
        k = spec.n_clusters if spec.n_clusters is not None else n_classes
        gmm_params, loglik = clustering.fit_gmm(Xs, k, spec.gmm_var_floor, spec.seed)
        params = dict(gmm_params)
        params["loglik"] = loglik
        assignments = np.argmax(clustering.gmm_responsibilities(gmm_params, Xs), axis=1)
        cluster_labels = _majority_map(assignments, labels, k, classes)
        classes = np.arange(k)
    else:  # unreachable: ModelSpec validates kind
        raise FitError(f"unknown model kind {spec.kind!r}")

    return TrainedModel(
        kind=spec.kind,
        classes=np.asarray(classes),
        feature_mean=mean,
        feature_std=std,
        params=params,
        cluster_labels=cluster_labels,
    )


def _majority_map(
    assignments: np.ndarray, labels: np.ndarray, k: int, classes: np.ndarray
) -> np.ndarray:
    """Majority training label per cluster; empty clusters inherit the
    smallest label so downstream mapping is always defined."""
    out = np.empty(k, dtype=classes.dtype)
    for c in range(k):
        member = assignments == c
        out[c] = majority_label(labels[member]) if member.any() else classes[0]
    return out


def fit_dataset(spec: ModelSpec, dataset) -> TrainedModel:
    return fit(spec, dataset.X, dataset.labels)


def predict_proba(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Per-class (or per-cluster) scores; each row sums to 1 and argmax agrees
    with predict under the smallest-index tie rule."""
    Xs = check_rows(model, rows)
    n_classes = model.classes.shape[0]
    if model.kind == "knn":
        return neighbors.knn_vote(
            model.params["train_x"],
            model.params["train_y_idx"],
            Xs,
            int(model.params["k"]),
            n_classes,
        )
    if model.kind == "tree":
        return model.params["value"][trees.forest_leaves(model.params, Xs)[:, 0]]
    if model.kind == "gboost":
        logits = trees.gboost_logits(
            model.params,
            float(model.params["learning_rate"]),
            Xs,
            n_classes,
        )
        return softmax(logits)
    if model.kind == "gnb":
        return bayes.gnb_proba(model.params, Xs)
    if model.kind == "mlp":
        return softmax(neural.mlp_logits(model.params, Xs))
    if model.kind == "kmeans":
        # hard assignment expressed as a one-hot score table
        return one_hot(clustering.kmeans_assign(model.params["centroids"], Xs), n_classes)
    if model.kind == "gmm":
        return clustering.gmm_responsibilities(model.params, Xs)
    raise PredictError(f"unknown model kind {model.kind!r}")


def predict(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Class labels for supervised models, cluster indices for clustering."""
    scores = predict_proba(model, rows)
    return model.classes[np.argmax(scores, axis=1)]


def predict_labels(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Training-label predictions for any kind; clustering output is routed
    through the majority-label map built at fit time."""
    raw = predict(model, rows)
    if model.is_clustering:
        return model.cluster_labels[raw]
    return raw
