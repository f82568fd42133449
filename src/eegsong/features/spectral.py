"""Band power features from a Welch power spectral density ("spectopo" style).

PSD recipe: 1 s Hamming windows, 50% overlap, plain periodogram average,
one-sided, density scaling (microvolt^2 per Hz). Band power is the dB of the
mean PSD over the band's bins; linear band power is kept alongside so tests
can check against direct DFT arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import EEG_BAND_EDGES

# Floor under the linear mean PSD before taking dB, so an all-zero channel
# yields a finite sentinel (-300 dB) instead of -inf.
PSD_DB_FLOOR = 1e-30


@dataclass(frozen=True)
class BandDefinition:
    """Named frequency bands, [low, high) Hz, disjoint and ascending."""

    bands: tuple[tuple[str, float, float], ...] = EEG_BAND_EDGES

    def __post_init__(self):
        prev_high = 0.0
        for name, lo, hi in self.bands:
            if not lo < hi:
                raise ValueError(f"band {name}: low {lo} must be < high {hi}")
            if lo < prev_high:
                raise ValueError(f"band {name} overlaps or descends at {lo} Hz")
            prev_high = hi

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.bands)

    @property
    def max_hz(self) -> float:
        return self.bands[-1][2]


EEG_BANDS = BandDefinition()


@dataclass(frozen=True)
class BandPowerSet:
    """Per-channel, per-band power. power_db[c, b] = 10 log10(mean PSD)."""

    band_names: tuple[str, ...]
    power_db: np.ndarray
    power_linear: np.ndarray


def welch_psd(
    data: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD along the last axis (1 s Hamming, 50% overlap)."""
    data = np.asarray(data, dtype=np.float64)
    nperseg = int(round(sample_rate_hz))
    if data.shape[-1] < 2 * nperseg:
        raise ValueError(
            f"need at least {2 * nperseg} samples (two 1 s windows), "
            f"got {data.shape[-1]}"
        )
    from scipy import signal as sp_signal

    freqs, psd = sp_signal.welch(
        data,
        fs=sample_rate_hz,
        window="hamming",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
        scaling="density",
        average="mean",
        axis=-1,
    )
    return freqs, psd


def spectopo_bandpower(
    data: np.ndarray,
    sample_rate_hz: float,
    bands: BandDefinition = EEG_BANDS,
) -> BandPowerSet:
    """Welch band power in dB per channel for a channels x samples array."""
    if bands.max_hz > sample_rate_hz / 2:
        raise ValueError(
            f"top band edge {bands.max_hz} Hz exceeds Nyquist "
            f"({sample_rate_hz / 2} Hz)"
        )
    freqs, psd = welch_psd(np.atleast_2d(data), sample_rate_hz)
    linear = np.empty((psd.shape[0], len(bands.bands)))
    for j, (name, lo, hi) in enumerate(bands.bands):
        sel = (freqs >= lo) & (freqs < hi)
        if not sel.any():
            raise ValueError(f"band {name} [{lo}, {hi}) contains no PSD bins")
        linear[:, j] = psd[:, sel].mean(axis=1)
    power_db = 10.0 * np.log10(np.maximum(linear, PSD_DB_FLOOR))
    return BandPowerSet(
        band_names=bands.names, power_db=power_db, power_linear=linear
    )
