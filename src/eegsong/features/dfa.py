"""Detrended fluctuation analysis.

Mean-center, integrate to a profile, split the profile into non-overlapping
boxes per box size, linearly detrend each box, and take the RMS residual
F(n). The scaling exponent alpha is the least-squares slope of log2 F(n)
against log2 n; dim = 3 - alpha is the fractal-dimension reading of the same
fit. White noise gives alpha near 0.5, 1/f noise near 1.

F(n) is computed from per-box moments instead of a residual array: for a box
y of n samples against t = 0..n-1, the residual sum of squares of the
least-squares line is

    sum(y^2) - sum(y)^2 / n - sum((t - tbar) y)^2 / sum((t - tbar)^2).

Each box is first shifted by its own first profile sample. A linear fit's
residual does not change under a constant shift, but the raw sums do: on a
drifting profile (a random walk, or a signal with a DC offset) sum(y^2) and
sum(y)^2 / n would both be huge and nearly equal, and their difference would
lose most of its digits. Anchored at its first sample, each box only holds
its own excursion, so the subtraction stays well conditioned.

dfa fits every row of a (..., samples) array at once, looping only over the
box sizes; dfa_features names its results as dataset columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core import sorted_unique

DEFAULT_N_BOX_SIZES = 12
MIN_BOX_SIZE = 4

# F(n) at or below this is numerically indistinguishable from a flat profile;
# the log-log fit would be meaningless.
DEGENERATE_FLUCTUATION = 1e-10


class DegenerateFluctuationsError(ValueError):
    """Raised when some F(n) is effectively zero ("degenerate fluctuations")."""


class DfaFit(NamedTuple):
    """DFA of every row of a (..., samples) array."""

    box_sizes: np.ndarray  # (n_sizes,)
    fluctuations: np.ndarray  # (..., n_sizes): F(n) per row and box size
    alpha: np.ndarray  # (...)
    intercept: np.ndarray  # (...)

    @property
    def dim(self) -> np.ndarray:
        return 3.0 - self.alpha


def default_box_sizes(n_samples: int) -> np.ndarray:
    """12 log-spaced integer box sizes from 4 to n/4, deduplicated."""
    largest = n_samples // 4
    if largest < MIN_BOX_SIZE:
        raise ValueError(
            f"signal of {n_samples} samples too short for DFA "
            f"(needs >= {4 * MIN_BOX_SIZE})"
        )
    sizes = sorted_unique(
        np.round(
            np.exp(np.linspace(np.log(MIN_BOX_SIZE), np.log(largest), DEFAULT_N_BOX_SIZES))
        ).astype(int)
    )
    if len(sizes) < 3:
        raise ValueError(
            f"need at least 3 box sizes in [{MIN_BOX_SIZE}, {largest}], "
            f"got {len(sizes)} from {n_samples} samples"
        )
    return sizes


def _fluctuations(x: np.ndarray, box_sizes: np.ndarray) -> np.ndarray:
    """F(n) along the last axis of x, one column per box size."""
    n = x.shape[-1]
    profile = np.cumsum(x - x.mean(axis=-1, keepdims=True), axis=-1)
    out = np.empty(x.shape[:-1] + (len(box_sizes),))
    for j, size in enumerate(box_sizes):
        n_boxes = n // size
        boxes = profile[..., : n_boxes * size].reshape(
            profile.shape[:-1] + (n_boxes, size)
        )
        y = boxes - boxes[..., :1]
        t_centered = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
        sum_y = y.sum(axis=-1)
        sum_ty = y @ t_centered
        rss = (
            (y * y).sum(axis=-1)
            - sum_y * sum_y / size
            - sum_ty * sum_ty / (t_centered @ t_centered)
        )
        # rounding can leave a perfectly linear box a hair below zero
        out[..., j] = np.sqrt(np.maximum(rss, 0.0).sum(axis=-1) / (n_boxes * size))
    return out


def dfa(data: np.ndarray) -> DfaFit:
    """DFA of every row of a (..., samples) array; see module docstring."""
    x = np.asarray(data, dtype=np.float64)
    box_sizes = default_box_sizes(x.shape[-1])
    f_values = _fluctuations(x, box_sizes)
    if np.any(f_values <= DEGENERATE_FLUCTUATION):
        raise DegenerateFluctuationsError(
            "degenerate fluctuations: F(n) is effectively zero for some box "
            "size (flat profile after detrending)"
        )

    log_n = np.log2(box_sizes.astype(np.float64))
    log_f = np.log2(f_values).reshape(-1, len(box_sizes))
    slope, intercept = np.polyfit(log_n, log_f.T, 1)
    return DfaFit(
        box_sizes=box_sizes,
        fluctuations=f_values,
        alpha=slope.reshape(x.shape[:-1]),
        intercept=intercept.reshape(x.shape[:-1]),
    )


def dfa_features(data: np.ndarray, sample_rate_hz: float) -> dict[str, np.ndarray]:
    """{"dfa_alpha", "dfa_dim", "dfa_intercept", "dfa_f<i>"} along the last
    axis of a (..., samples) array, dfa_f<i> being F(n) at the i-th box size;
    the sample rate does not enter."""
    fit = dfa(data)
    out = {"dfa_alpha": fit.alpha, "dfa_dim": fit.dim, "dfa_intercept": fit.intercept}
    for i in range(len(fit.box_sizes)):
        out[f"dfa_f{i:02d}"] = fit.fluctuations[..., i]
    return out
