"""Detrended fluctuation analysis: box arithmetic vs a brute-force oracle,
classical exponents for white/pink/brown noise, degenerate inputs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eegsong.features.dfa import (
    DegenerateFluctuationsError,
    default_box_sizes,
    dfa,
    dfa_features,
)


def pink_noise(rng, n):
    """1/f amplitude shaping of white noise, unit variance."""
    spec = np.fft.rfft(rng.standard_normal(n))
    k = np.arange(spec.shape[0], dtype=np.float64)
    k[0] = 1.0
    spec /= np.sqrt(k)
    spec[0] = 0.0
    x = np.fft.irfft(spec, n=n)
    return x / x.std()


def naive_fluctuation(x, size):
    """Oracle: per-box polyfit detrend, nothing vectorized."""
    profile = np.cumsum(x - x.mean())
    n_boxes = len(profile) // size
    squares = []
    for b in range(n_boxes):
        seg = profile[b * size : (b + 1) * size]
        t = np.arange(size, dtype=float)
        coeffs = np.polyfit(t, seg, 1)
        resid = seg - np.polyval(coeffs, t)
        squares.append(resid**2)
    return float(np.sqrt(np.mean(np.concatenate(squares))))


def test_fluctuations_match_bruteforce_oracle(rng):
    x = rng.normal(size=3000)
    result = dfa(x)
    for size, f_n in zip(result.box_sizes, result.fluctuations):
        assert f_n == pytest.approx(naive_fluctuation(x, size), rel=1e-9)


def test_alpha_matches_handrolled_fit(rng):
    """The (alpha, intercept) pair is the plain least-squares line through
    (log2 n, log2 F) -- recomputed here from the returned fluctuations."""
    x = rng.normal(size=5000)
    result = dfa(x)
    log_n = np.log2(result.box_sizes)
    log_f = np.log2(result.fluctuations)
    a = np.vstack([log_n, np.ones_like(log_n)]).T
    slope, intercept = np.linalg.lstsq(a, log_f, rcond=None)[0]
    assert result.alpha == pytest.approx(slope, abs=1e-12)
    assert result.intercept == pytest.approx(intercept, abs=1e-12)


def test_white_noise_alpha_half():
    alphas = [
        dfa(np.random.default_rng(seed).standard_normal(10000)).alpha
        for seed in range(20)
    ]
    assert np.mean(alphas) == pytest.approx(0.5, abs=0.05)


def test_pink_noise_alpha_one():
    alphas = [dfa(pink_noise(np.random.default_rng(seed), 10000)).alpha for seed in range(20)]
    assert np.mean(alphas) == pytest.approx(1.0, abs=0.1)


def test_brown_noise_alpha_three_halves():
    alphas = [
        dfa(np.cumsum(np.random.default_rng(seed).standard_normal(10000))).alpha
        for seed in range(20)
    ]
    assert np.mean(alphas) == pytest.approx(1.5, abs=0.15)


def test_fluctuations_nondecreasing_for_noise(rng):
    result = dfa(rng.normal(size=8000))
    assert np.all(np.diff(result.fluctuations) >= 0)


def test_dim_is_three_minus_alpha(rng):
    result = dfa(rng.normal(size=2000))
    assert result.dim == pytest.approx(3.0 - result.alpha)


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(0, 2**31 - 1),
)
def test_affine_invariance(a, b, seed):
    x = np.random.default_rng(seed).standard_normal(1500)
    base = dfa(x).alpha
    assert dfa(a * x + b).alpha == pytest.approx(base, abs=1e-9)


def test_straight_line_gives_quadratic_scaling():
    # integrating a ramp yields a parabola; linear detrending per box leaves
    # residuals growing like n^2, so the fitted exponent sits at 2
    t = np.arange(4000, dtype=float)
    result = dfa(2.5 * t)
    assert result.alpha == pytest.approx(2.0, abs=0.05)
    sizes, f_values = result.box_sizes, result.fluctuations
    assert f_values[-1] / f_values[-2] == pytest.approx(
        (sizes[-1] / sizes[-2]) ** 2, rel=0.05
    )


def test_constant_signal_degenerate():
    with pytest.raises(DegenerateFluctuationsError):
        dfa(np.full(4000, 1.2))


def test_default_box_sizes_layout():
    sizes = default_box_sizes(10000)
    assert sizes[0] == 4
    assert sizes[-1] == 2500
    assert len(sizes) <= 12
    assert np.all(np.diff(sizes) > 0)


def test_too_short_signal():
    with pytest.raises(ValueError, match="too short"):
        default_box_sizes(15)
    with pytest.raises(ValueError):
        dfa(np.random.default_rng(0).normal(size=15))


def test_too_few_usable_box_sizes(rng):
    # 20 samples allow box sizes 4 and 5 only
    with pytest.raises(ValueError, match="at least 3 box sizes"):
        dfa(rng.normal(size=20))


class TestBatch:
    """dfa on a (rows, n) block against the loop oracle and row by row."""

    N = 2500

    def signals(self, rng):
        white = rng.standard_normal((3, self.N)) + 1e6
        walk = np.cumsum(rng.standard_normal((3, self.N)), axis=-1) + 1e6
        integrated_walk = np.cumsum(
            np.cumsum(rng.standard_normal((3, self.N)), axis=-1), axis=-1
        )
        return {"white+dc": white, "walk+dc": walk, "integrated walk": integrated_walk}

    def test_matches_bruteforce_oracle(self, rng):
        sizes = default_box_sizes(self.N)
        for name, block in self.signals(rng).items():
            batch = dfa(block)
            assert np.array_equal(batch.box_sizes, sizes)
            oracle = np.array([[naive_fluctuation(row, s) for s in sizes] for row in block])
            np.testing.assert_allclose(batch.fluctuations, oracle, rtol=1e-9, err_msg=name)

    def test_matches_row_by_row_dfa(self, rng):
        """The dfa family's columns of a block equal those of each row alone."""
        for name, block in self.signals(rng).items():
            columns = dfa_features(block, 250)
            assert list(columns)[:3] == ["dfa_alpha", "dfa_dim", "dfa_intercept"]
            assert list(columns)[3:] == [f"dfa_f{i:02d}" for i in range(len(columns) - 3)]
            for r, row in enumerate(block):
                single = dfa_features(row, 250)
                assert single.keys() == columns.keys()
                for column, values in columns.items():
                    np.testing.assert_allclose(
                        values[r], single[column], rtol=1e-12, err_msg=f"{name} {column}"
                    )

    def test_one_flat_row_is_degenerate(self, rng):
        block = rng.standard_normal((4, self.N))
        block[2] = 1.2
        with pytest.raises(DegenerateFluctuationsError):
            dfa(block)
