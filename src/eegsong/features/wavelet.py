"""Multilevel discrete wavelet transform with the 16-tap Daubechies-8 filter.

Analysis uses periodic (circular) boundary extension; odd-length levels are
extended by repeating the final sample before periodization. Each level is
orthonormal, so it conserves the energy of its (extended) input.

Per-channel "wavedec band power" is the relative energy in each detail level
d1..dL plus the final approximation aL; level count is chosen so the coarsest
detail band reaches down to about 4 Hz (L=5 at 250 Hz, L=7 at 1000 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Daubechies scaling filter with 8 vanishing moments (extremal phase),
# normalized so sum(h) = sqrt(2). Standard published values; the test suite
# locks them with orthonormality and vanishing-moment checks.
DB8_LOWPASS = np.array(
    [
        0.05441584224310401,
        0.31287159091429997,
        0.67563073629728981,
        0.58535468365420671,
        -0.015829105256349306,
        -0.28401554296154693,
        0.00047248457391328277,
        0.12874742662047846,
        -0.017369301001807546,
        -0.044088253930794752,
        0.013981027917398282,
        0.0087460940474057767,
        -0.0048703529934515743,
        -0.00039174037337694705,
        0.00067544940645056937,
        -0.00011747678412476953,
    ]
)

# Quadrature mirror high-pass: g[k] = (-1)^k h[N-1-k].
DB8_HIGHPASS = ((-1.0) ** np.arange(16)) * DB8_LOWPASS[::-1]

# Both analysis filters as the columns of one (16, 2) matrix, so that a single
# matmul per level yields the approximation and the detail.
_FILTER_PAIR = np.stack([DB8_LOWPASS, DB8_HIGHPASS], axis=1)


@dataclass(frozen=True)
class WaveletCoefficients:
    """approx is the final low-pass output; details[0] is the finest level d1.

    Coefficients run along the last axis; any leading axes are channels.
    """

    approx: np.ndarray
    details: tuple[np.ndarray, ...]


def _analysis_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level along the last axis: (approximation, detail)."""
    if x.shape[-1] % 2 == 1:
        x = np.concatenate([x, x[..., -1:]], axis=-1)
    taps = len(DB8_LOWPASS)
    # a[k] = sum_m h[m] x[(2k + m) mod n], likewise for the high-pass: every
    # other length-16 window of the periodically extended signal.
    extended = np.concatenate([x, x[..., : taps - 1]], axis=-1)
    windows = sliding_window_view(extended, taps, axis=-1)[..., ::2, :]
    out = windows @ _FILTER_PAIR
    return out[..., 0], out[..., 1]


def dwt_multilevel(signal: np.ndarray, levels: int) -> WaveletCoefficients:
    """Decompose the last axis of a (..., samples) array into `levels` detail
    bands plus an approximation."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    x = np.asarray(signal, dtype=np.float64)
    details = []
    for level in range(1, levels + 1):
        if x.shape[-1] < len(DB8_LOWPASS):
            raise ValueError(
                f"signal too short at level {level}: {x.shape[-1]} samples "
                f"< {len(DB8_LOWPASS)}-tap filter"
            )
        x, d = _analysis_step(x)
        details.append(d)
    return WaveletCoefficients(approx=x, details=tuple(details))


def wavedec_levels(sample_rate_hz: float) -> int:
    """Smallest L with sample_rate / 2^(L+1) <= 4 Hz."""
    level = 1
    while sample_rate_hz / 2 ** (level + 1) > 4.0:
        level += 1
    return level


def wavedec_bandpower(data: np.ndarray, sample_rate_hz: float) -> dict[str, np.ndarray]:
    """{"wavedec_d1", ..., "wavedec_dL", "wavedec_aL"}: relative wavelet
    energy per level along the last axis of a (..., samples) array."""
    levels = wavedec_levels(sample_rate_hz)
    coeffs = dwt_multilevel(data, levels)
    per_level = np.stack(
        [(d**2).sum(axis=-1) for d in coeffs.details]
        + [(coeffs.approx**2).sum(axis=-1)],
        axis=-1,
    )
    total = per_level.sum(axis=-1, keepdims=True)
    # a zero signal has no energy anywhere; report the flat distribution
    energy = np.divide(
        per_level,
        total,
        out=np.full_like(per_level, 1.0 / (levels + 1)),
        where=total != 0.0,
    )
    names = [f"d{k}" for k in range(1, levels + 1)] + [f"a{levels}"]
    return {f"wavedec_{name}": energy[..., j] for j, name in enumerate(names)}
