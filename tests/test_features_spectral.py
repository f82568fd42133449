"""Welch PSD and spectopo band power, checked against a hand-rolled DFT oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eegsong import dsp
from eegsong.features.spectral import spectopo_bandpower

FS = 250
BANDS = ("delta", "theta", "alpha", "beta", "gamma")


def naive_welch(x, fs):
    """Independent reference PSD: explicit segmentation, periodic Hamming
    window, raw DFT, density scaling, one-sided doubling. No scipy."""
    x = np.asarray(x, dtype=np.float64)
    n = int(round(fs))
    step = n // 2
    k = np.arange(n)
    w = 0.54 - 0.46 * np.cos(2 * np.pi * k / n)
    scale = fs * np.sum(w**2)
    psds = []
    for start in range(0, x.shape[-1] - n + 1, step):
        seg = x[start : start + n] * w
        spec = np.abs(np.fft.rfft(seg)) ** 2 / scale
        spec[1:-1] *= 2.0  # one-sided: everything except DC and Nyquist
        psds.append(spec)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return freqs, np.mean(psds, axis=0)


def tone(freq_hz, seconds=10, fs=FS, amplitude=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def test_welch_matches_naive_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=2500)
    freqs, psd = dsp.welch(x, FS, FS, detrend=False)
    freqs_o, psd_o = naive_welch(x, FS)
    assert np.allclose(freqs, freqs_o)
    assert np.allclose(psd, psd_o, rtol=1e-10, atol=1e-14)


def test_welch_needs_two_windows():
    with pytest.raises(ValueError, match="need at least 500 samples"):
        spectopo_bandpower(np.zeros(499), FS)


def test_alpha_concentration_for_10hz_tone():
    """>=95% of 1-45 Hz power lands in alpha, per both module and oracle."""
    x = tone(10.0)
    power_db = spectopo_bandpower(x, FS)
    assert tuple(power_db) == tuple(f"spectopo_{b}" for b in BANDS)
    linear = {b: 10.0 ** (power_db[f"spectopo_{b}"] / 10.0) for b in BANDS}

    # oracle computes band sums straight from the naive PSD
    freqs_o, psd_o = naive_welch(x, FS)
    full = psd_o[(freqs_o >= 1) & (freqs_o < 45)].sum()
    alpha = psd_o[(freqs_o >= 8) & (freqs_o < 13)].sum()
    assert alpha / full >= 0.95

    # module agrees: alpha mean PSD dwarfs every other band
    weights = {"delta": 3, "theta": 4, "alpha": 5, "beta": 17, "gamma": 15}
    total = sum(linear[b] * weights[b] for b in BANDS)
    assert linear["alpha"] * weights["alpha"] / total >= 0.95


def test_two_tones_light_up_their_bands():
    x = tone(6.0) + tone(20.0)  # theta + beta
    db = spectopo_bandpower(x, FS)
    for hot in ("theta", "beta"):
        for cold in ("delta", "alpha", "gamma"):
            assert db[f"spectopo_{hot}"] - db[f"spectopo_{cold}"] >= 10.0


@given(st.floats(min_value=0.01, max_value=100.0), st.integers(0, 2**31 - 1))
def test_amplitude_scaling_adds_exact_db(c, seed):
    x = np.random.default_rng(seed).normal(size=2500)
    base = spectopo_bandpower(x, FS)
    scaled = spectopo_bandpower(c * x, FS)
    for name in base:
        assert np.allclose(scaled[name] - base[name], 20.0 * np.log10(c), atol=1e-6)


def test_zero_channel_gets_finite_sentinel():
    power_db = np.stack(list(spectopo_bandpower(np.zeros((1, 2500)), FS).values()))
    assert np.all(np.isfinite(power_db))
    assert np.all(power_db <= -250.0)  # the documented floor, in dB


def test_multichannel_rows_independent(rng):
    x = rng.normal(size=(3, 2500))
    together = spectopo_bandpower(x, FS)
    for ch in range(3):
        alone = spectopo_bandpower(x[ch], FS)
        assert alone.keys() == together.keys()
        for name in together:
            np.testing.assert_allclose(together[name][ch], alone[name], rtol=1e-12)


def test_psd_integral_near_variance():
    """Parseval sanity: integral of the one-sided density ~ signal variance."""
    rng = np.random.default_rng(42)
    x = rng.normal(size=25000)
    freqs, psd = dsp.welch(x, FS, FS, detrend=False)
    df = freqs[1] - freqs[0]
    total = psd.sum() * df
    assert abs(total - x.var()) / x.var() < 0.05
