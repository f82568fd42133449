"""Single-hidden-layer multilayer perceptron trained with minibatch SGD.

Gradients are computed analytically; mlp_loss_and_grads is the single source
of truth for both the training loop and numerical gradient checks.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelSpec
from .common import mean_cross_entropy, one_hot, softmax


def init_mlp(
    rng: np.random.Generator, n_features: int, hidden: int, n_classes: int
) -> dict[str, np.ndarray]:
    return {
        "w1": rng.standard_normal((n_features, hidden)) * np.sqrt(2.0 / n_features),
        "b1": np.zeros(hidden),
        "w2": rng.standard_normal((hidden, n_classes)) * np.sqrt(2.0 / hidden),
        "b2": np.zeros(n_classes),
    }


def mlp_scores(
    params: dict[str, np.ndarray], rows: np.ndarray, n_classes: int
) -> np.ndarray:
    hidden = np.maximum(rows @ params["w1"] + params["b1"], 0.0)
    return softmax(hidden @ params["w2"] + params["b2"])


def mlp_loss_and_grads(
    params: dict[str, np.ndarray], X: np.ndarray, y_idx: np.ndarray, n_classes: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its gradient for every parameter."""
    n = X.shape[0]
    pre = X @ params["w1"] + params["b1"]
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params["w2"] + params["b2"]
    proba = softmax(logits)
    loss = mean_cross_entropy(proba, y_idx)

    d_logits = (proba - one_hot(y_idx, n_classes)) / n
    d_hidden = d_logits @ params["w2"].T
    d_pre = d_hidden * (pre > 0.0)
    grads = {
        "w1": X.T @ d_pre,
        "b1": d_pre.sum(axis=0),
        "w2": hidden.T @ d_logits,
        "b2": d_logits.sum(axis=0),
    }
    return loss, grads


def fit_mlp(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int, spec: ModelSpec
) -> dict[str, np.ndarray]:
    """The trained weights plus epoch_loss, the mean minibatch loss of each
    epoch."""
    rng = np.random.default_rng(spec.seed)
    params = init_mlp(rng, X.shape[1], spec.mlp_hidden, n_classes)
    n = X.shape[0]
    epoch_loss = np.empty(spec.mlp_epochs)
    for e in range(spec.mlp_epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, spec.mlp_batch):
            take = perm[start : start + spec.mlp_batch]
            loss, grads = mlp_loss_and_grads(params, X[take], y_idx[take], n_classes)
            for name, grad in grads.items():
                params[name] -= spec.mlp_learning_rate * grad
            losses.append(loss)
        epoch_loss[e] = float(np.mean(losses))
    params["epoch_loss"] = epoch_loss
    return params
