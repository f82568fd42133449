"""k-means and diagonal-covariance Gaussian mixtures.

Both are deterministic for a fixed seed: centroid seeding uses squared-distance
sampling from a seeded generator, assignment ties go to the smallest cluster
index, and the mixture is initialized from the converged k-means run.

Assignment distances are scipy.spatial.distance.cdist(..., "sqeuclidean") bit
for bit (common.sq_distances), and the mixture's normalizer is
scipy.special.logsumexp bit for bit (common.logsumexp).  The k-means++ seeding
keeps its own pairwise-summed squared distance, whose bits the seeding draws
depend on.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelSpec
from .common import (
    diag_gaussian_log_pdf,
    logsumexp,
    normalize_log_scores,
    one_hot,
    sq_distances,
)

KMEANS_MAX_ITER = 300
GMM_MAX_ITER = 200
GMM_TOL = 1e-6
GMM_VAR_FLOOR = 1e-6


def _plus_plus_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest_sq = np.sum((X - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total == 0.0:
            # all points coincide with a centroid already; reuse any point
            centroids[i] = X[rng.integers(n)]
            continue
        pick = rng.choice(n, p=closest_sq / total)
        centroids[i] = X[pick]
        closest_sq = np.minimum(closest_sq, np.sum((X - centroids[i]) ** 2, axis=1))
    return centroids


def _lloyd(
    X: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (centroids, assignments, per-iteration objective)."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(X, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(KMEANS_MAX_ITER):
        dist_sq = sq_distances(X, centroids)
        new_assign = np.argmin(dist_sq, axis=1)
        history.append(float(dist_sq[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            member = assignments == c
            if member.any():
                centroids[c] = X[member].mean(axis=0)
            else:
                # resurrect an empty cluster at the point farthest from its centroid
                worst = int(np.argmax(dist_sq[np.arange(n), assignments]))
                centroids[c] = X[worst]
                assignments[worst] = c
    return centroids, assignments, np.asarray(history)


def fit_kmeans(
    X: np.ndarray, y_idx: np.ndarray, k: int, spec: ModelSpec
) -> dict[str, np.ndarray]:
    """The centroids plus objective, the summed squared distance of each
    iteration."""
    centroids, _, objective = _lloyd(X, k, spec.seed)
    return {"centroids": centroids, "objective": objective}


def kmeans_scores(
    params: dict[str, np.ndarray], rows: np.ndarray, k: int
) -> np.ndarray:
    """Hard assignment to the nearest centroid as a one-hot score table."""
    return one_hot(np.argmin(sq_distances(rows, params["centroids"]), axis=1), k)


def _gmm_log_components(
    rows: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    return diag_gaussian_log_pdf(rows, means, variances) + np.log(weights)[None, :]


def fit_gmm(
    X: np.ndarray, y_idx: np.ndarray, k: int, spec: ModelSpec
) -> dict[str, np.ndarray]:
    """EM for a diagonal Gaussian mixture, seeded from k-means.

    Returns the mixture plus loglik, the total log-likelihood of each
    iteration, which is non-decreasing up to the stopping tolerance.
    """
    n, d = X.shape
    centroids, assignments, _ = _lloyd(X, k, spec.seed)
    weights = np.bincount(assignments, minlength=k) / n
    weights = np.clip(weights, 1e-12, None)
    weights /= weights.sum()
    means = centroids.copy()
    variances = np.empty((k, d))
    for c in range(k):
        member = assignments == c
        variances[c] = X[member].var(axis=0) if member.any() else X.var(axis=0)
    variances = np.maximum(variances, GMM_VAR_FLOOR)

    history = []
    for _ in range(GMM_MAX_ITER):
        log_comp = _gmm_log_components(X, weights, means, variances)
        log_norm = logsumexp(log_comp, axis=1)
        history.append(float(log_norm.sum()))
        if len(history) > 1 and history[-1] - history[-2] < GMM_TOL:
            break
        resp = np.exp(log_comp - log_norm[:, None])
        mass = resp.sum(axis=0)
        mass = np.clip(mass, 1e-12, None)
        weights = mass / n
        means = (resp.T @ X) / mass[:, None]
        for c in range(k):
            diff = X - means[c]
            variances[c] = (resp[:, c] @ diff**2) / mass[c]
        variances = np.maximum(variances, GMM_VAR_FLOOR)
    return {"weights": weights, "means": means, "variances": variances, "loglik": np.asarray(history)}


def gmm_scores(params: dict[str, np.ndarray], rows: np.ndarray, k: int) -> np.ndarray:
    """Each row's posterior responsibility under each component."""
    return normalize_log_scores(
        _gmm_log_components(rows, params["weights"], params["means"], params["variances"])
    )
