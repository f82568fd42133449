"""Log-energy and Shannon-energy features, wavelet-toolbox style.

log_energy = sum_i log(s_i^2 + eps)
shannon    = -sum_i (s_i^2 + eps) * log(s_i^2 + eps)

The eps floor keeps both finite at zero samples.
"""

from __future__ import annotations

import numpy as np

ENTROPY_EPS = 1e-12


def entropy_features(data: np.ndarray, sample_rate_hz: float) -> dict[str, np.ndarray]:
    """{"entropy_log_energy", "entropy_shannon"} of raw samples along the last
    axis of a (..., samples) array; the sample rate does not enter."""
    x = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite samples")
    s2 = x**2 + ENTROPY_EPS
    log_s2 = np.log(s2)
    return {
        "entropy_log_energy": log_s2.sum(axis=-1),
        "entropy_shannon": -(s2 * log_s2).sum(axis=-1),
    }
