"""Log-energy and Shannon-energy features, wavelet-toolbox style.

log_energy = sum_i log(s_i^2 + eps)
shannon    = -sum_i (s_i^2 + eps) * log(s_i^2 + eps)

The eps floor keeps both finite at zero samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENTROPY_EPS = 1e-12


@dataclass(frozen=True)
class EntropyPair:
    """Scalars for a single channel; arrays of shape (...) for (..., n) input."""

    log_energy: float | np.ndarray
    shannon: float | np.ndarray


def entropy_features(signal: np.ndarray) -> EntropyPair:
    """Both entropy measures of raw samples, reduced along the last axis."""
    x = np.asarray(signal, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite samples")
    s2 = x**2 + ENTROPY_EPS
    log_s2 = np.log(s2)
    return EntropyPair(
        log_energy=log_s2.sum(axis=-1),
        shannon=-(s2 * log_s2).sum(axis=-1),
    )
