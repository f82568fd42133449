"""Shared model plumbing: trained-model container, standardization, and
the two numeric kernels the model kinds share.

sq_distances and logsumexp reproduce the arithmetic of scipy's
scipy.spatial.distance.cdist (metrics "sqeuclidean" and, after np.sqrt,
"euclidean") and scipy.special.logsumexp (1.17, real input): every floating
point operation in the same order, so the results are bit-identical to
scipy's on the same inputs.  The tests hold them to that with scipy as the
oracle.  Nothing here imports scipy, so the model path runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitError(ValueError):
    """Training preconditions violated (bad data or degenerate hyperparameters)."""


class PredictError(ValueError):
    """Prediction input does not match the trained model."""


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


# element budget of one tile of sq_distances' (rows x len(b)) accumulator:
# the accumulator and its scratch array of differences, 1 MB together, stay
# in cache
TILE_ELEMENTS = 1 << 16


def distance_tiles(n_rows: int, n_cols: int) -> range:
    """Start rows of the row tiles of an (n_rows x n_cols) block: each tile
    holds at most TILE_ELEMENTS elements (one row at least), and the range's
    step is the tile height."""
    return range(0, n_rows, max(1, TILE_ELEMENTS // max(n_cols, 1)))


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distance of every pair of rows, as
    scipy.spatial.distance.cdist(a, b, "sqeuclidean") computes it: for each
    pair, (a_j - b_j)**2 summed over the features in index order, starting
    from 0.0.  The pairs of one tile of rows are summed together, one feature
    at a time."""
    a_cols = np.ascontiguousarray(a.T)
    b_cols = np.ascontiguousarray(b.T)
    out = np.zeros((a_cols.shape[1], b_cols.shape[1]))
    tiles = distance_tiles(*out.shape)
    for start in tiles:
        acc = out[start : start + tiles.step]
        diff = np.empty_like(acc)
        for a_j, b_j in zip(a_cols[:, start : start + tiles.step, None], b_cols):
            np.subtract(a_j, b_j, out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
    return out


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, as scipy.special.logsumexp (1.17) computes
    it for real input: with m the count of the maxima, s = sum(exp(rest - max))
    / m over the other entries and the result log1p(s) + log(m) + max, or
    log(sum(exp(a))) where that is not finite (a row of -inf gives -inf)."""
    a_max = a.max(axis=axis, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=axis, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(at_max, -np.inf, a) - a_max)
        out = np.log1p(rest.sum(axis=axis, keepdims=True) / m) + np.log(m) + a_max
        out = np.where(np.isfinite(out), out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return out if keepdims else out.squeeze(axis)


def normalize_log_scores(log_scores: np.ndarray) -> np.ndarray:
    """Rows of exp(log_scores) rescaled to sum to 1, computed in log space."""
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
