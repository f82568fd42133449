"""Model behaviour: determinism, training diagnostics, error paths, file I/O."""

import re

import numpy as np
import pytest

from eegsong.models import (
    MODEL_KINDS,
    FitError,
    ModelSpec,
    PredictError,
    fit,
    load_model,
    predict_labels,
    predict_proba,
    save_model,
)
from eegsong.models.common import majority_label, one_hot
from eegsong.models.io import _KIND_ARRAYS, _MODEL_ARRAYS
from eegsong.models.neural import init_mlp, mlp_loss_and_grads
from eegsong.models.trees import LEAF, forest_leaves, grow_tree, join_forests


def blobs(rng, centers, n_per, scale=0.5):
    X = np.vstack([c + scale * rng.normal(size=(n_per, len(c))) for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


def weighted_gini(y, left, n_classes):
    """Size-weighted mean Gini impurity of the two sides of a split."""
    total = 0.0
    for side in (y[left], y[~left]):
        p = np.bincount(side, minlength=n_classes) / side.shape[0]
        total += side.shape[0] * (1.0 - np.sum(p**2))
    return total / y.shape[0]


def brute_force_min_gini(X, y, min_leaf, n_classes):
    """Smallest weighted Gini over every cut between distinct column values
    that leaves min_leaf rows on each side; None when there is no such cut."""
    best = None
    for j in range(X.shape[1]):
        for v in np.unique(X[:, j])[:-1]:
            left = X[:, j] <= v
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            g = weighted_gini(y, left, n_classes)
            best = g if best is None else min(best, g)
    return best


TWO_CENTERS = [(-3.0, -3.0, 0.0), (3.0, 3.0, 0.0)]
THREE_CENTERS = [(-4.0, 0.0), (4.0, 0.0), (0.0, 6.0)]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec(kind="svm")

    @pytest.mark.parametrize(
        "field", ["knn_k", "gboost_rounds", "mlp_epochs", "gmm_var_floor"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            ModelSpec(kind="knn", **{field: 0})

    def test_n_clusters_positive(self):
        with pytest.raises(ValueError, match="n_clusters"):
            ModelSpec(kind="kmeans", n_clusters=-1)


class TestBasicsAcrossKinds:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_proba_rows_sum_to_one(self, kind, rng):
        X, y = blobs(rng, THREE_CENTERS, 30)
        model = fit(ModelSpec(kind=kind, seed=0), X, y)
        proba = predict_proba(model, X[:17])
        assert proba.shape == (17, len(model.classes))
        assert np.all(proba >= 0)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_is_argmax_of_proba(self, kind, rng):
        X, y = blobs(rng, THREE_CENTERS, 30)
        model = fit(ModelSpec(kind=kind, seed=0), X, y)
        rows = X[::5]
        expected = model.classes[np.argmax(predict_proba(model, rows), axis=1)]
        assert np.array_equal(predict_labels(model, rows), expected)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_refit_is_deterministic(self, kind, rng):
        X, y = blobs(rng, THREE_CENTERS, 25)
        spec = ModelSpec(kind=kind, seed=7)
        a = fit(spec, X, y)
        b = fit(spec, X, y)
        assert np.array_equal(predict_proba(a, X), predict_proba(b, X))

    @pytest.mark.parametrize("kind", ["knn", "tree", "gboost", "gnb"])
    def test_internal_standardization_absorbs_affine_rescale(self, kind, rng):
        X, y = blobs(rng, THREE_CENTERS, 30)
        probe = blobs(rng, THREE_CENTERS, 5)[0]
        scale = np.array([100.0, 0.001])
        shift = np.array([-40.0, 7.0])
        spec = ModelSpec(kind=kind, seed=0)
        plain = predict_labels(fit(spec, X, y), probe)
        rescaled = predict_labels(fit(spec, X * scale + shift, y), probe * scale + shift)
        assert np.array_equal(plain, rescaled)


class TestNeighbors:
    def test_k1_memorizes_training_set(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 20)
        model = fit(ModelSpec(kind="knn", knn_k=1), X, y)
        assert np.array_equal(predict_labels(model, X), y)

    def test_unanimous_neighborhood_gives_certainty(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 20, scale=0.1)
        model = fit(ModelSpec(kind="knn", knn_k=5), X, y)
        proba = predict_proba(model, np.asarray(TWO_CENTERS))
        assert proba[0, 0] == 1.0
        assert proba[1, 1] == 1.0

    def test_equidistant_vote_splits_then_ties_down(self):
        X = np.array([[0.0], [2.0]])
        model = fit(ModelSpec(kind="knn", knn_k=2), X, np.array([5, 9]))
        proba = predict_proba(model, np.array([[1.0]]))
        np.testing.assert_allclose(proba, [[0.5, 0.5]])
        assert predict_labels(model, np.array([[1.0]]))[0] == 5  # tie -> smaller label

    def test_k_larger_than_training_set(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 5)
        with pytest.raises(FitError, match="knn_k=50 exceeds"):
            fit(ModelSpec(kind="knn", knn_k=50), X, y)


class TestBayes:
    def test_separated_blobs_are_recovered(self):
        accs = []
        for seed in range(20):
            r = np.random.default_rng(seed)
            X, y = blobs(r, [(-5.0, -5.0), (5.0, 5.0)], 30, scale=1.0)
            Xt, yt = blobs(r, [(-5.0, -5.0), (5.0, 5.0)], 20, scale=1.0)
            model = fit(ModelSpec(kind="gnb"), X, y)
            accs.append(np.mean(predict_labels(model, Xt) == yt))
        assert np.mean(accs) >= 0.99

    def test_priors_follow_class_frequencies(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 10)
        X = np.vstack([X, X[y == 0]])  # class 0 now appears twice as often
        y = np.concatenate([y, y[y == 0]])
        model = fit(ModelSpec(kind="gnb"), X, y)
        np.testing.assert_allclose(
            model.params["log_priors"], np.log([20 / 30, 10 / 30]), atol=1e-12
        )


class TestTrees:
    def test_deep_tree_fits_training_data(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 25)
        model = fit(ModelSpec(kind="tree", tree_max_depth=12, tree_min_leaf=1), X, y)
        assert np.mean(predict_labels(model, X) == y) == 1.0

    def test_depth_one_tree_is_a_stump(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 25)
        model = fit(ModelSpec(kind="tree", tree_max_depth=1), X, y)
        assert model.params["roots"].tolist() == [0]
        assert model.params["feature"].shape[0] <= 3  # root plus two leaves

    @pytest.mark.parametrize("seed", range(8))
    def test_every_split_matches_brute_force_gini(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 41))
        min_leaf = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, 5)).astype(float)  # many tied values
        y = rng.permutation(np.arange(n) % 3)
        depth_limit = 3
        model = fit(
            ModelSpec(kind="tree", tree_max_depth=depth_limit, tree_min_leaf=min_leaf), X, y
        )
        p = model.params
        Xs = (X - model.feature_mean) / model.feature_std
        stack = [(0, np.ones(n, dtype=bool), 0)]
        while stack:
            node, rows, depth = stack.pop()
            counts = np.bincount(y[rows], minlength=3)
            # node values are the class fractions of the node's rows
            np.testing.assert_array_equal(p["value"][node], counts / counts.sum())
            expected = brute_force_min_gini(X[rows], y[rows], min_leaf, 3)
            j = int(p["feature"][node])
            if j == LEAF:
                node_gini = 1.0 - np.sum((counts / counts.sum()) ** 2)
                if depth < depth_limit:
                    assert expected is None or expected >= node_gini - 1e-12
                continue
            left = rows & (Xs[:, j] <= p["threshold"][node])
            right = rows & ~left
            # the left rows are the node's rows up to one distinct value of column j
            assert np.array_equal(left, rows & (X[:, j] <= X[left, j].max()))
            assert min(left.sum(), right.sum()) >= min_leaf
            assert abs(weighted_gini(y[rows], left[rows], 3) - expected) <= 1e-12
            stack.append((p["left"][node], left, depth + 1))
            stack.append((p["right"][node], right, depth + 1))

    def test_pure_node_or_tied_columns_give_no_split(self):
        X = np.arange(12.0).reshape(6, 2)
        pure = grow_tree(X, one_hot(np.zeros(6, dtype=int), 3), 4, 1)
        assert pure["feature"].tolist() == [LEAF]
        np.testing.assert_array_equal(pure["value"], [[1.0, 0.0, 0.0]])
        tied = grow_tree(np.ones((6, 2)), one_hot(np.arange(6) % 3, 3), 4, 1)
        assert tied["feature"].tolist() == [LEAF]
        np.testing.assert_array_equal(tied["value"], np.full((1, 3), 1 / 3))

    def test_gboost_training_loss_never_increases(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 25, scale=2.0)
        model = fit(ModelSpec(kind="gboost", gboost_rounds=60, seed=0), X, y)
        loss = model.params["train_loss"]
        assert loss.shape == (60,)
        assert np.all(np.diff(loss) <= 1e-8)

    def test_gboost_loss_starts_near_uniform(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 25)
        model = fit(ModelSpec(kind="gboost", gboost_rounds=5), X, y)
        # one learning-rate-damped round in: still close to log(3)
        assert model.params["train_loss"][0] < np.log(3.0)
        assert model.params["train_loss"][0] > 0.5 * np.log(3.0)

    def test_forest_walk_matches_a_scalar_walk_of_each_tree(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        grown = [grow_tree(X, one_hot(y, 3), depth, 1) for depth in (0, 1, 2, 5)]
        grown.append(grow_tree(X[:, ::-1], one_hot(y, 3), 3, 2))
        forest = join_forests(grown)
        sizes = [t["feature"].shape[0] for t in grown]
        assert forest["roots"].tolist() == np.cumsum([0] + sizes[:-1]).tolist()
        rows = rng.normal(size=(25, 4))
        leaves = forest_leaves(forest, rows)
        assert leaves.shape == (25, len(grown))
        for t, (tree, root) in enumerate(zip(grown, forest["roots"])):
            for i, row in enumerate(rows):
                node = 0
                while tree["feature"][node] != LEAF:
                    goes_left = row[tree["feature"][node]] <= tree["threshold"][node]
                    node = tree["left" if goes_left else "right"][node]
                assert leaves[i, t] == root + node
                np.testing.assert_array_equal(forest["value"][leaves[i, t]], tree["value"][node])

    def test_gboost_forest_of_partial_rounds_is_refused(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 10)
        model = fit(ModelSpec(kind="gboost", gboost_rounds=3), X, y)
        assert model.params["roots"].shape == (9,)
        model.params["roots"] = model.params["roots"][:-1]
        with pytest.raises(PredictError, match="8 trees is not whole rounds of 3 classes"):
            predict_proba(model, X)


class TestNeural:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 3, size=12)
        params = init_mlp(rng, 4, 8, 3)
        _, grads = mlp_loss_and_grads(params, X, y, 3)
        step = 1e-5
        worst = 0.0
        for name, tensor in params.items():
            numeric = np.empty_like(tensor)
            flat = tensor.reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + step
                up, _ = mlp_loss_and_grads(params, X, y, 3)
                flat[i] = orig - step
                down, _ = mlp_loss_and_grads(params, X, y, 3)
                flat[i] = orig
                numeric.reshape(-1)[i] = (up - down) / (2 * step)
            rel = np.abs(numeric - grads[name]) / np.maximum(
                np.abs(numeric) + np.abs(grads[name]), 1e-8
            )
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_mlp_learns_separable_blobs(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 30)
        model = fit(ModelSpec(kind="mlp", mlp_epochs=100, seed=0), X, y)
        assert np.mean(predict_labels(model, X) == y) >= 0.95
        loss = model.params["epoch_loss"]
        assert loss[-1] < loss[0]

    def test_mlp_seed_changes_fit(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 20)
        a = fit(ModelSpec(kind="mlp", seed=0), X, y)
        b = fit(ModelSpec(kind="mlp", seed=1), X, y)
        assert not np.array_equal(a.params["w1"], b.params["w1"])


class TestClustering:
    def test_kmeans_objective_never_increases(self, rng):
        X, _ = blobs(rng, THREE_CENTERS, 40, scale=2.0)
        model = fit(ModelSpec(kind="kmeans", n_clusters=3), X, np.zeros(120, dtype=int))
        objective = model.params["objective"]
        assert objective.shape[0] >= 2
        assert np.all(np.diff(objective) <= 1e-9)

    def test_gmm_loglik_never_decreases(self, rng):
        X, _ = blobs(rng, THREE_CENTERS, 40, scale=2.0)
        model = fit(ModelSpec(kind="gmm", n_clusters=3), X, np.zeros(120, dtype=int))
        loglik = model.params["loglik"]
        assert loglik.shape[0] >= 2
        assert np.all(np.diff(loglik) >= -1e-8)

    def test_cluster_ids_map_to_majority_labels(self, rng):
        X, y01 = blobs(rng, TWO_CENTERS, 30, scale=0.3)
        labels = np.where(y01 == 0, 3, 8)
        model = fit(ModelSpec(kind="kmeans", seed=0), X, labels)
        assert sorted(model.classes.tolist()) == [3, 8]
        assert np.array_equal(predict_labels(model, X), labels)

    def test_gmm_recovers_separated_blobs(self, rng):
        X, y01 = blobs(rng, TWO_CENTERS, 30, scale=0.3)
        labels = np.where(y01 == 0, 3, 8)
        model = fit(ModelSpec(kind="gmm", seed=0), X, labels)
        assert np.mean(predict_labels(model, X) == labels) == 1.0

    def test_cluster_count_defaults_to_class_count(self, rng):
        X, y = blobs(rng, THREE_CENTERS, 20)
        model = fit(ModelSpec(kind="kmeans"), X, y)
        assert model.params["centroids"].shape[0] == 3

    def test_more_clusters_than_rows(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 3)
        with pytest.raises(FitError, match="exceeds the 6 training rows"):
            fit(ModelSpec(kind="kmeans", n_clusters=7), X, y)


class TestErrorPaths:
    def test_single_class_rejected_for_supervised(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(FitError, match="at least two classes"):
            fit(ModelSpec(kind="knn"), X, np.full(10, 7))

    def test_nonfinite_training_row_is_named(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 10)
        X[3, 1] = np.nan
        with pytest.raises(FitError, match="training row 3"):
            fit(ModelSpec(kind="gnb"), X, y)

    def test_label_count_mismatch(self, rng):
        X, _ = blobs(rng, TWO_CENTERS, 10)
        with pytest.raises(FitError, match="5 labels for 20 training rows"):
            fit(ModelSpec(kind="gnb"), X, np.arange(5))

    def test_prediction_width_mismatch(self, rng):
        X, y = blobs(rng, TWO_CENTERS, 10)
        model = fit(ModelSpec(kind="knn"), X, y)
        with pytest.raises(PredictError, match="row width 2 does not match model width 3"):
            predict_labels(model, np.zeros((4, 2)))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_prediction_row_is_named(self, kind, value, rng):
        X, y = blobs(rng, THREE_CENTERS, 10)
        model = fit(ModelSpec(kind=kind, seed=0), X, y)
        rows = X[:5].copy()
        rows[3, 1] = value
        with pytest.raises(PredictError, match="non-finite feature values in row 3"):
            predict_proba(model, rows)


class TestSerialization:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_preserves_predictions(self, kind, rng, tmp_path):
        X, y = blobs(rng, THREE_CENTERS, 20)
        model = fit(ModelSpec(kind=kind, seed=0), X, y)
        path = save_model(model, tmp_path / f"{kind}.npz")
        back = load_model(path)
        assert back.kind == kind
        assert np.array_equal(back.classes, model.classes)
        assert np.array_equal(predict_proba(back, X), predict_proba(model, X))
        assert np.array_equal(predict_labels(back, X), predict_labels(model, X))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_saved_arrays_are_exactly_the_checked_ones(self, kind, rng, tmp_path):
        """Every array a fit saves, parameters and training curves included,
        is one that load_model requires."""
        X, y = blobs(rng, THREE_CENTERS, 20)
        path = save_model(fit(ModelSpec(kind=kind, seed=0), X, y), tmp_path / "m.npz")
        with np.load(path) as archive:
            saved = sorted(archive.files)
        assert saved == sorted(("format_version", *_MODEL_ARRAYS, *_KIND_ARRAYS[kind]))

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_format_version(self, version, rng, tmp_path):
        """Version 1 held each tree with local child ids and version 2 held
        cluster ids in classes; both are refused, not misread."""
        X, y = blobs(rng, TWO_CENTERS, 10)
        path = save_model(fit(ModelSpec(kind="tree"), X, y), tmp_path / "m.npz")
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.asarray(version)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=f"format version {version}"):
            load_model(path)

    def test_truncated_archive_is_refused_by_path(self, rng, tmp_path):
        X, y = blobs(rng, TWO_CENTERS, 10)
        path = save_model(fit(ModelSpec(kind="tree"), X, y), tmp_path / "m.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a readable model archive")):
            load_model(path)

    def test_missing_array_is_refused_by_path(self, rng, tmp_path):
        X, y = blobs(rng, TWO_CENTERS, 10)
        path = save_model(fit(ModelSpec(kind="tree"), X, y), tmp_path / "m.npz")
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files if k != "classes"}
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: model archive has no classes array")):
            load_model(path)


    @pytest.mark.parametrize(
        "kind, name",
        [
            ("knn", "param_train_x"),
            ("tree", "param_value"),
            ("gboost", "param_value"),
            ("gnb", "param_means"),
            ("mlp", "param_w2"),
            ("kmeans", "param_centroids"),
            ("gmm", "param_loglik"),
        ],
    )
    def test_missing_parameter_array_is_refused_by_path(self, kind, name, rng, tmp_path):
        """A parameter array its kind stores, missing, is named at load time
        rather than failing later inside prediction."""
        X, y = blobs(rng, THREE_CENTERS, 20)
        path = save_model(fit(ModelSpec(kind=kind, seed=0), X, y), tmp_path / "m.npz")
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files if k != name}
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: model archive has no {name} array")):
            load_model(path)


def test_majority_tie_breaks_toward_smaller_label():
    assert majority_label(np.array([9, 2, 9, 2])) == 2
