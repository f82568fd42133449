"""The numpy pairwise distances, logsumexp and knn vote, held bit for bit to
the scipy calls they replace (scipy is the oracle here, not a dependency of
the package)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import logsumexp as scipy_logsumexp

from eegsong.models.common import TILE_ELEMENTS, logsumexp, sq_distances
from eegsong.models.neighbors import knn_scores


def blobs(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * rng.uniform(0.1, 30.0, size=d) + rng.normal(size=d)


def assert_matches_cdist(a: np.ndarray, b: np.ndarray) -> None:
    sq = sq_distances(a, b)
    assert np.array_equal(sq, cdist(a, b, "sqeuclidean"))
    assert np.array_equal(np.sqrt(sq), cdist(a, b, "euclidean"))


class TestSqDistances:
    @pytest.mark.parametrize(
        "n_a,n_b,d",
        [
            (48, 96, 896),
            (200, 50, 33),
            (7, 13, 5),
            (3, 4, 1),
            # more rows than one tile holds, and a tile that ends short
            (TILE_ELEMENTS // 64 * 3 + 5, 64, 7),
            # a single b row wider than the tile budget: one a row per tile
            (5, TILE_ELEMENTS + 3, 2),
        ],
    )
    def test_matches_cdist(self, n_a, n_b, d):
        assert_matches_cdist(blobs(n_a, d, 0), blobs(n_b, d, 1))

    @pytest.mark.parametrize("d", [1, 6])
    def test_duplicate_rows_give_zeros_and_ties(self, d):
        a = blobs(9, d, 2)
        b = np.vstack([a[:4], a[:4], blobs(3, d, 3)])
        assert_matches_cdist(a, b)
        sq = sq_distances(a, b)
        assert np.all(sq[np.arange(4), np.arange(4)] == 0.0)
        assert np.array_equal(sq[:, :4], sq[:, 4:8])

    def test_one_row_inputs(self):
        assert_matches_cdist(blobs(1, 5, 4), blobs(1, 5, 5))
        assert_matches_cdist(blobs(1, 5, 4), blobs(30, 5, 5))
        assert_matches_cdist(blobs(30, 5, 4), blobs(1, 5, 5))

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 50),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_cdist_on_random_shapes(self, n_a, n_b, d, seed):
        assert_matches_cdist(blobs(n_a, d, seed), blobs(n_b, d, seed + 1))


def assert_matches_logsumexp(a: np.ndarray, axis: int) -> None:
    for keepdims in (False, True):
        ours = logsumexp(a, axis=axis, keepdims=keepdims)
        ref = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref)


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_scipy(self, axis):
        assert_matches_logsumexp(np.random.default_rng(0).normal(size=(30, 7)) * 400.0, axis)

    def test_tied_maxima(self):
        a = np.array([[1.5, 1.5, -2.0, 0.0], [3.0, 3.0, 3.0, 3.0], [-700.0, -700.0, -800.0, -1e4]])
        assert_matches_logsumexp(a, 1)

    def test_minus_inf_entries_and_rows(self):
        a = np.array(
            [
                [-np.inf, 0.25, -3.0],
                [-np.inf, -np.inf, -np.inf],
                [-np.inf, -np.inf, 7.0],
                [-1e308, -np.inf, -1e308],
            ]
        )
        assert_matches_logsumexp(a, 1)
        assert logsumexp(a, axis=1)[1] == -np.inf

    def test_one_column(self):
        a = np.random.default_rng(1).normal(size=(12, 1)) * 50.0
        a[3, 0] = -np.inf
        assert_matches_logsumexp(a, 1)
        assert_matches_logsumexp(a, 0)

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
        st.floats(1e-3, 1e3),
    )
    def test_matches_scipy_with_ties_and_minus_inf(self, n, k, seed, scale):
        rng = np.random.default_rng(seed)
        # a coarse grid so equal maxima are common, and some -inf entries
        a = np.round(rng.normal(size=(n, k)) * 2.0) * scale
        a[rng.random((n, k)) < 0.2] = -np.inf
        assert_matches_logsumexp(a, 1)
        assert_matches_logsumexp(a, 0)


def per_row_votes(params: dict, rows: np.ndarray, n_classes: int) -> np.ndarray:
    """The vote of each row on its own: cdist distances, one stable lexsort
    on (distance, class index) per row, and a bincount of the k nearest."""
    labels, k = params["train_y_idx"], int(params["k"])
    dist = cdist(rows, params["train_x"])
    votes = np.empty((rows.shape[0], n_classes))
    for i in range(rows.shape[0]):
        top = labels[np.lexsort((labels, dist[i]))[:k]]
        votes[i] = np.bincount(top, minlength=n_classes) / k
    return votes


@pytest.mark.parametrize("k", [1, 4, 9])
def test_knn_votes_match_per_row_votes(k):
    rng = np.random.default_rng(k)
    # duplicated training rows under other labels make every distance tie
    base = np.round(rng.normal(size=(120, 3)))
    train_x = np.vstack([base, base, base])
    train_y_idx = rng.integers(0, 5, train_x.shape[0])
    rows = np.vstack([base[:40], np.round(rng.normal(size=(TILE_ELEMENTS // 360 * 2 + 3, 3)))])
    params = {"train_x": train_x, "train_y_idx": train_y_idx, "k": np.asarray(k)}
    assert np.array_equal(knn_scores(params, rows, 5), per_row_votes(params, rows, 5))
