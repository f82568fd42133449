"""Band power features from a Welch power spectral density ("spectopo" style).

PSD recipe: 1 s Hamming windows, 50% overlap, plain periodogram average,
one-sided, density scaling (microvolt^2 per Hz). Band power is the dB of the
mean PSD over the bins of each band of core.EEG_BAND_EDGES.

The PSD is the numpy Welch of `dsp`, shared with bad-channel rejection: the
periodic Hamming window built as scipy.signal.get_window builds it, scaled by
1 / sqrt(sum(w^2) * fs), np.fft.rfft of each segment, re^2 + im^2, bins 1:-1
doubled, mean over segments.  That is scipy.signal.welch's arithmetic in its
order, so the PSD is bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from .. import dsp
from ..config import SPECTOPO_MIN_SECONDS
from ..core import EEG_BAND_EDGES

# Floor under the linear mean PSD before taking dB, so an all-zero channel
# yields a finite sentinel (-300 dB) instead of -inf.
PSD_DB_FLOOR = 1e-30


def spectopo_bandpower(data: np.ndarray, sample_rate_hz: float) -> dict[str, np.ndarray]:
    """{"spectopo_<band>": Welch band power in dB} along the last axis of a
    (..., samples) array."""
    data = np.asarray(data, dtype=np.float64)
    nperseg = int(round(sample_rate_hz))
    if data.shape[-1] < SPECTOPO_MIN_SECONDS * nperseg:
        raise ValueError(
            f"need at least {SPECTOPO_MIN_SECONDS * nperseg} samples "
            f"({SPECTOPO_MIN_SECONDS} Welch windows of 1 s), got {data.shape[-1]}"
        )
    freqs, psd = dsp.welch(data, sample_rate_hz, nperseg, detrend=False)
    linear = np.stack(
        [psd[..., (freqs >= lo) & (freqs < hi)].mean(axis=-1) for _, lo, hi in EEG_BAND_EDGES],
        axis=-1,
    )
    power_db = 10.0 * np.log10(np.maximum(linear, PSD_DB_FLOOR))
    return {
        f"spectopo_{name}": power_db[..., j] for j, (name, _, _) in enumerate(EEG_BAND_EDGES)
    }
