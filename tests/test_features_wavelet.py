"""Daubechies-8 multilevel DWT: filter identities, perfect reconstruction,
per-level isometry, energy conservation, sub-band placement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eegsong.features.wavelet import (
    DB8_HIGHPASS,
    DB8_LOWPASS,
    dwt_multilevel,
    wavedec_bandpower,
    wavedec_levels,
)

FS = 250


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def dwt_transpose(coeffs, n_samples):
    """The transpose of dwt_multilevel's analysis operator for a signal of
    n_samples, each level cut back to its input length: the inverse, since
    an odd level's extension only repeats its last sample."""
    lengths = [n_samples]
    for _ in coeffs.details[1:]:
        lengths.append((lengths[-1] + 1) // 2)
    x = coeffs.approx
    for detail, out_len in zip(reversed(coeffs.details), reversed(lengths)):
        n = x.shape[-1] * 2
        rebuilt = np.zeros(x.shape[:-1] + (n,))
        idx = (2 * np.arange(n // 2)[:, None] + np.arange(16)[None, :]) % n
        np.add.at(rebuilt, (..., idx), x[..., :, None] * DB8_LOWPASS)
        np.add.at(rebuilt, (..., idx), detail[..., :, None] * DB8_HIGHPASS)
        x = rebuilt[..., :out_len]
    return x


def relative_energy(x):
    """The wavedec columns of x stacked on a last axis, d1..d5 then a5."""
    return np.stack(list(wavedec_bandpower(x, FS).values()), axis=-1)


class TestFilterBank:
    """Locks the published filter coefficients via their defining identities."""

    def test_sixteen_taps(self):
        assert DB8_LOWPASS.shape == (16,)
        assert DB8_HIGHPASS.shape == (16,)

    def test_lowpass_sums_to_sqrt2(self):
        assert np.isclose(DB8_LOWPASS.sum(), np.sqrt(2.0), atol=1e-12)

    def test_unit_energy(self):
        assert np.isclose((DB8_LOWPASS**2).sum(), 1.0, atol=1e-12)
        assert np.isclose((DB8_HIGHPASS**2).sum(), 1.0, atol=1e-12)

    def test_even_shift_orthogonality(self):
        # <h, h[.-2k]> = 0 for k != 0: the decimated filter bank is orthonormal
        for shift in range(2, 16, 2):
            assert np.isclose(
                np.dot(DB8_LOWPASS[shift:], DB8_LOWPASS[:-shift]), 0.0, atol=1e-12
            )

    def test_highpass_orthogonal_to_lowpass(self):
        assert np.isclose(np.dot(DB8_LOWPASS, DB8_HIGHPASS), 0.0, atol=1e-12)

    def test_highpass_kills_constants(self):
        assert np.isclose(DB8_HIGHPASS.sum(), 0.0, atol=1e-12)

    def test_eight_vanishing_moments(self):
        # sum k^p g[k] = 0 for p = 0..7: polynomials up to degree 7 vanish
        k = np.arange(16, dtype=np.float64)
        for p in range(8):
            assert abs(np.dot(k**p, DB8_HIGHPASS)) < 1e-6


class TestTransform:
    def test_perfect_reconstruction_random_2048(self, rng):
        x = rng.normal(size=2048)
        rebuilt = dwt_transpose(dwt_multilevel(x, levels=5), len(x))
        assert rel_l2(rebuilt, x) <= 1e-8

    def test_energy_conservation(self, rng):
        x = rng.normal(size=2048)
        coeffs = dwt_multilevel(x, levels=5)
        total = (coeffs.approx**2).sum() + sum((d**2).sum() for d in coeffs.details)
        assert abs(total - (x**2).sum()) / (x**2).sum() <= 1e-9

    def test_constant_signal_energy_all_in_approximation(self):
        x = np.full(1024, 3.7)
        coeffs = dwt_multilevel(x, levels=4)
        for d in coeffs.details:
            assert (d**2).sum() < 1e-10
        assert np.isclose((coeffs.approx**2).sum(), (x**2).sum(), rtol=1e-12)

    def test_linear_ramp_details_vanish(self):
        # 8 vanishing moments annihilate low-degree polynomials (away from the
        # circular wrap seam, which mixes the two ends of the ramp)
        x = np.linspace(0.0, 1.0, 1024)
        coeffs = dwt_multilevel(x, levels=1)
        interior = coeffs.details[0][8:-8]
        assert np.abs(interior).max() < 1e-12

    @given(st.integers(0, 2**31 - 1), st.sampled_from([256, 512, 1000, 2048, 2500]))
    def test_round_trip_property(self, seed, n):
        x = np.random.default_rng(seed).normal(size=n)
        levels = 3
        rebuilt = dwt_transpose(dwt_multilevel(x, levels), len(x))
        assert rel_l2(rebuilt, x) <= 1e-8

    @given(st.integers(0, 2**31 - 1), st.sampled_from([256, 512, 1000, 2048, 2500]))
    def test_each_level_is_an_isometry(self, seed, n):
        """Level k's approximation and detail hold the energy of level k-1's
        approximation, its last sample repeated when its length is odd (1000
        and 2500 samples reach odd lengths)."""
        x = np.random.default_rng(seed).normal(size=n)
        previous = x
        for k in range(1, 6):
            coeffs = dwt_multilevel(x, k)
            if len(previous) % 2:
                previous = np.append(previous, previous[-1])
            energy = (coeffs.approx**2).sum() + (coeffs.details[-1] ** 2).sum()
            assert energy == pytest.approx((previous**2).sum(), rel=1e-12, abs=0)
            previous = coeffs.approx

    def test_halving_lengths(self):
        coeffs = dwt_multilevel(np.zeros(2048), levels=5)
        assert [d.shape[0] for d in coeffs.details] == [1024, 512, 256, 128, 64]
        assert coeffs.approx.shape[0] == 64

    def test_too_short_names_level(self):
        with pytest.raises(ValueError, match="level 3"):
            dwt_multilevel(np.zeros(60), levels=3)  # 60 -> 30 -> 15 < 16 taps

    def test_block_equals_row_by_row(self, rng):
        block = rng.normal(size=(3, 2500))
        coeffs = dwt_multilevel(block, levels=5)
        for r, row in enumerate(block):
            single = dwt_multilevel(row, levels=5)
            np.testing.assert_allclose(coeffs.approx[r], single.approx, rtol=1e-12)
            for d_block, d_row in zip(coeffs.details, single.details):
                np.testing.assert_allclose(d_block[r], d_row, rtol=1e-12)

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError, match=">= 1"):
            dwt_multilevel(np.zeros(256), levels=0)


class TestBandpower:
    def test_level_count_by_sample_rate(self):
        assert wavedec_levels(250) == 5
        assert wavedec_levels(1000) == 7

    def test_level_names(self):
        columns = wavedec_bandpower(np.zeros((1, 2500)), FS)
        assert list(columns) == [f"wavedec_{n}" for n in ("d1", "d2", "d3", "d4", "d5", "a5")]

    def test_simplex_property(self, rng):
        energy = relative_energy(rng.normal(size=(4, 2500)))
        assert np.all(energy >= 0)
        assert np.allclose(energy.sum(axis=1), 1.0, atol=1e-9)

    def test_10hz_tone_peaks_in_d4(self):
        # d4 covers fs/2^5 .. fs/2^4 = 7.8-15.6 Hz at 250 Hz
        t = np.arange(2500) / FS
        columns = wavedec_bandpower(np.sin(2 * np.pi * 10.0 * t), FS)
        assert max(columns, key=columns.get) == "wavedec_d4"

    def test_white_noise_energy_tracks_bandwidth(self):
        """Each detail level holds ~its bandwidth fraction of white noise."""
        accum = np.zeros(6)
        n_seeds = 20
        for seed in range(n_seeds):
            x = np.random.default_rng(seed).normal(size=4096)
            accum += relative_energy(x)
        mean_energy = accum / n_seeds
        # d1 spans the top half of the spectrum, d2 a quarter, ...
        expected = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.03125])
        assert np.abs(mean_energy - expected).max() <= 0.05

    def test_zero_signal_flat_distribution(self):
        assert np.allclose(relative_energy(np.zeros(2500)), 1.0 / 6.0)

    def test_block_matches_per_row_transform(self, rng):
        # 2500 samples give odd lengths at the deeper levels (625 -> 313 -> 157)
        block = rng.normal(size=(6, 2500))
        energy_block = relative_energy(block)
        for r, row in enumerate(block):
            coeffs = dwt_multilevel(row, wavedec_levels(FS))
            energy = np.array(
                [(d**2).sum() for d in coeffs.details] + [(coeffs.approx**2).sum()]
            )
            np.testing.assert_allclose(
                energy_block[r], energy / energy.sum(), rtol=0, atol=1e-14
            )

    def test_block_equals_row_by_row(self, rng):
        block = rng.normal(size=(4, 2500))
        columns = wavedec_bandpower(block, FS)
        for r, row in enumerate(block):
            single = wavedec_bandpower(row, FS)
            assert single.keys() == columns.keys()
            for name, values in columns.items():
                np.testing.assert_allclose(values[r], single[name], rtol=1e-12, err_msg=name)

    def test_zero_row_in_block_is_flat_and_isolated(self, rng):
        block = rng.normal(size=(4, 2500))
        with_zero = relative_energy(np.insert(block, 1, 0.0, axis=0))
        assert np.allclose(with_zero[1], 1.0 / 6.0)
        np.testing.assert_allclose(
            np.delete(with_zero, 1, axis=0), relative_energy(block), rtol=0, atol=1e-15
        )
