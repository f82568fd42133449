"""Log-energy / Shannon-energy features."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eegsong.features.entropy import ENTROPY_EPS, entropy_features

FS = 250


def test_matches_two_line_oracle(rng):
    x = rng.normal(size=1000)
    pair = entropy_features(x, FS)
    # oracle: the definitions, written as literally as possible
    log_energy = sum(np.log(v * v + ENTROPY_EPS) for v in x)
    shannon = -sum((v * v + ENTROPY_EPS) * np.log(v * v + ENTROPY_EPS) for v in x)
    assert pair["entropy_log_energy"] == pytest.approx(log_energy, rel=1e-12)
    assert pair["entropy_shannon"] == pytest.approx(shannon, rel=1e-12)


def test_all_ones():
    n = 500
    pair = entropy_features(np.ones(n), FS)
    log_energy, shannon = pair["entropy_log_energy"], pair["entropy_shannon"]
    # s^2 + eps = 1 + eps: log is ~eps, so both measures sit near +-n*eps
    assert log_energy == pytest.approx(n * np.log1p(ENTROPY_EPS), rel=1e-6)
    assert shannon == pytest.approx(-n * (1 + ENTROPY_EPS) * np.log1p(ENTROPY_EPS), rel=1e-6)
    assert abs(log_energy) < 1e-9
    assert abs(shannon) < 1e-9


def test_zero_signal_hits_eps_floor():
    n = 300
    pair = entropy_features(np.zeros(n), FS)
    log_energy, shannon = pair["entropy_log_energy"], pair["entropy_shannon"]
    assert log_energy == pytest.approx(n * np.log(ENTROPY_EPS), rel=1e-12)
    assert shannon == pytest.approx(-n * ENTROPY_EPS * np.log(ENTROPY_EPS), rel=1e-12)
    assert np.isfinite(log_energy)
    assert np.isfinite(shannon)


@given(st.integers(0, 2**31 - 1), st.integers(10, 400))
def test_finite_for_finite_inputs(seed, n):
    x = np.random.default_rng(seed).normal(size=n) * 100.0
    for value in entropy_features(x, FS).values():
        assert np.isfinite(value)


def test_sign_invariance(rng):
    x = rng.normal(size=200)
    positive, negative = entropy_features(x, FS), entropy_features(-x, FS)
    for name in positive:
        assert positive[name] == negative[name]


def test_block_equals_row_by_row(rng):
    block = rng.normal(size=(4, 2500))
    columns = entropy_features(block, FS)
    assert list(columns) == ["entropy_log_energy", "entropy_shannon"]
    for r, row in enumerate(block):
        single = entropy_features(row, FS)
        for name, values in columns.items():
            np.testing.assert_allclose(values[r], single[name], rtol=1e-12, err_msg=name)


def test_rejects_nonfinite():
    x = np.ones(10)
    x[4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        entropy_features(x, FS)
