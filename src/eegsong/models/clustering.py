"""k-means and diagonal-covariance Gaussian mixtures.

Both are deterministic for a fixed seed: centroid seeding uses squared-distance
sampling from a seeded generator, assignment ties go to the smallest cluster
index, and the mixture is initialized from the converged k-means run.
"""

from __future__ import annotations

import numpy as np

from .common import FitError, diag_gaussian_log_pdf

KMEANS_MAX_ITER = 300
GMM_MAX_ITER = 200
GMM_TOL = 1e-6


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


def fit_kmeans(
    X: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (centroids, assignments, per-iteration objective)."""
    from scipy.spatial.distance import cdist

    n = X.shape[0]
    if k > n:
        raise FitError(f"n_clusters={k} exceeds the {n} training rows available")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(X, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(KMEANS_MAX_ITER):
        dist_sq = cdist(X, centroids, metric="sqeuclidean")
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


def kmeans_assign(centroids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist

    return np.argmin(cdist(rows, centroids, metric="sqeuclidean"), axis=1)


def _gmm_log_components(
    rows: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    return diag_gaussian_log_pdf(rows, means, variances) + np.log(weights)[None, :]


def fit_gmm(
    X: np.ndarray, k: int, var_floor: float, seed: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """EM for a diagonal Gaussian mixture, seeded from k-means.

    Returns the parameter dict and the per-iteration total log-likelihood,
    which is non-decreasing up to the stopping tolerance.
    """
    from scipy.special import logsumexp

    n, d = X.shape
    centroids, assignments, _ = fit_kmeans(X, k, seed)
    weights = np.bincount(assignments, minlength=k) / n
    weights = np.clip(weights, 1e-12, None)
    weights /= weights.sum()
    means = centroids.copy()
    variances = np.empty((k, d))
    for c in range(k):
        member = assignments == c
        variances[c] = X[member].var(axis=0) if member.any() else X.var(axis=0)
    variances = np.maximum(variances, var_floor)

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
        variances = np.maximum(variances, var_floor)
    params = {"weights": weights, "means": means, "variances": variances}
    return params, np.asarray(history)


def gmm_responsibilities(params: dict[str, np.ndarray], rows: np.ndarray) -> np.ndarray:
    from scipy.special import logsumexp

    log_comp = _gmm_log_components(
        rows, params["weights"], params["means"], params["variances"]
    )
    return np.exp(log_comp - logsumexp(log_comp, axis=1, keepdims=True))
