"""Split/evaluate protocol: stratification, report math, and artifact files."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from eegsong.evaluation import (
    EvalError,
    SplitError,
    SplitPlan,
    apply_plan,
    evaluate,
    evaluate_ratings,
    read_plan,
    read_report,
    render_confusion,
    report_from_predictions,
    split_dataset,
    write_plan,
    write_report,
)
from eegsong.features.dataset import Dataset
from eegsong.models import ModelSpec, fit_dataset


def read_confusion_csv(path: Path) -> np.ndarray:
    """Count matrix of a confusion.csv: header row and label column dropped."""
    lines = [ln for ln in path.read_text().splitlines() if ln]
    return np.asarray(
        [[int(v) for v in line.split(",")[1:]] for line in lines[1:]], dtype=np.int64
    )


def toy_dataset(strata, width=3, seed=0, ratings=None):
    """Rows grouped into (subject, song, count) strata; labels are song ids."""
    rng = np.random.default_rng(seed)
    subject, song, epoch = [], [], []
    for subj, sg, count in strata:
        subject += [subj] * count
        song += [sg] * count
        epoch += list(range(count))
    n = len(subject)
    song = np.asarray(song)
    return Dataset(
        X=rng.normal(size=(n, width)),
        feature_names=tuple(f"f{i}" for i in range(width)),
        labels=song.copy(),
        song_id=song,
        subject_id=np.asarray(subject),
        epoch_index=np.asarray(epoch),
        enjoyment=np.asarray(ratings) if ratings is not None else np.zeros(n, dtype=int),
        familiarity=np.zeros(n, dtype=int),
    )


GRID = [(s, g, 12) for s in (1, 2) for g in (1, 2, 3)]  # 6 strata x 12 rows


class TestSplit:
    def test_each_stratum_contributes_its_share(self):
        ds = toy_dataset(GRID)
        train, test, plan = split_dataset(ds, 1 / 3, seed=0)
        assert test.n_rows == 6 * 4 and train.n_rows == 6 * 8
        assert plan.strata == tuple((s, g, 4) for s, g, _ in GRID)
        for subj, sg, _ in GRID:
            member = (test.subject_id == subj) & (test.song_id == sg)
            assert member.sum() == 4

    def test_half_of_five_rounds_up(self):
        ds = toy_dataset([(1, 1, 5), (1, 2, 5)])
        _, test, _ = split_dataset(ds, 0.5, seed=0)
        assert test.n_rows == 6  # floor(2.5 + 0.5) = 3 per stratum

    def test_folds_are_disjoint_and_exhaustive(self):
        ds = toy_dataset(GRID)
        train, test, plan = split_dataset(ds, 1 / 3, seed=4)
        assert np.intersect1d(plan.train_indices, plan.test_indices).size == 0
        assert train.n_rows + test.n_rows == ds.n_rows
        merged = np.sort(np.concatenate([plan.train_indices, plan.test_indices]))
        assert np.array_equal(merged, np.arange(ds.n_rows))

    def test_same_seed_same_fold(self):
        ds = toy_dataset(GRID)
        _, _, a = split_dataset(ds, 1 / 3, seed=9)
        _, _, b = split_dataset(ds, 1 / 3, seed=9)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_different_seed_moves_the_fold(self):
        ds = toy_dataset(GRID)
        _, _, a = split_dataset(ds, 1 / 3, seed=0)
        _, _, b = split_dataset(ds, 1 / 3, seed=1)
        assert not np.array_equal(a.test_indices, b.test_indices)

    def test_tiny_stratum_is_named_in_the_error(self):
        ds = toy_dataset([(1, 1, 12), (2, 3, 1)])
        with pytest.raises(SplitError, match="subject=2 song=3 has 1 rows"):
            split_dataset(ds, 1 / 3, seed=0)

    def test_fraction_that_empties_train_rejected(self):
        ds = toy_dataset([(1, 1, 2)])
        with pytest.raises(SplitError, match="empty fold"):
            split_dataset(ds, 0.9, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_fraction_bounds(self, fraction):
        ds = toy_dataset(GRID)
        with pytest.raises(SplitError, match="test_fraction"):
            split_dataset(ds, fraction, seed=0)

    def test_apply_plan_reproduces_the_folds(self):
        ds = toy_dataset(GRID)
        train, test, plan = split_dataset(ds, 1 / 3, seed=3)
        train2, test2 = apply_plan(ds, plan)
        assert np.array_equal(train2.X, train.X)
        assert np.array_equal(test2.X, test.X)

    def test_apply_plan_row_count_guard(self):
        ds = toy_dataset(GRID)
        _, _, plan = split_dataset(ds, 1 / 3, seed=3)
        with pytest.raises(SplitError, match="plan covers 72 rows but dataset has 24"):
            apply_plan(ds.subset(np.arange(24)), plan)


class TestReportMath:
    def test_confusion_trace_equals_hits(self, rng):
        true = rng.integers(0, 5, size=200)
        pred = rng.integers(0, 5, size=200)
        report = report_from_predictions(true, pred, np.ones(200, dtype=int))
        assert report.confusion.sum() == 200
        hits = np.trace(report.confusion)
        assert abs(report.overall_accuracy_pct - 100.0 * hits / 200) < 1e-12
        assert hits == np.sum(true == pred)

    def test_constant_predictor_scores_one_over_k(self):
        true = np.repeat(np.arange(12), 5)
        pred = np.zeros(60, dtype=int)
        report = report_from_predictions(true, pred, np.ones(60, dtype=int))
        assert abs(report.overall_accuracy_pct - 100.0 / 12.0) < 1e-12
        assert abs(report.chance_pct - 100.0 / 12.0) < 1e-12

    def test_absent_class_gets_nan_accuracy(self):
        report = report_from_predictions(
            np.array([1, 1, 2]),
            np.array([1, 2, 2]),
            np.ones(3, dtype=int),
            class_labels=np.array([1, 2, 3]),
        )
        assert np.isnan(report.per_class_accuracy_pct[2])
        np.testing.assert_allclose(report.per_class_accuracy_pct[:2], [50.0, 100.0])

    def test_per_subject_accuracy(self):
        true = np.array([1, 1, 2, 2])
        pred = np.array([1, 1, 1, 1])
        subjects = np.array([10, 10, 20, 20])
        report = report_from_predictions(true, pred, subjects)
        assert np.array_equal(report.subjects, [10, 20])
        np.testing.assert_allclose(report.per_subject_accuracy_pct, [100.0, 0.0])

    def test_empty_test_set_rejected(self):
        with pytest.raises(EvalError, match="empty test set"):
            report_from_predictions(np.array([]), np.array([]), np.array([]))
        ds = toy_dataset(GRID)
        model = fit_dataset(ModelSpec(kind="knn"), ds)
        with pytest.raises(EvalError, match="empty test set"):
            evaluate(model, ds.subset(np.array([], dtype=int)))


class TestRatingEvaluation:
    def test_mae_matches_manual_protocol(self):
        ratings = [1, 1, 5, 5, 3, 2, 1, 2, 3, 4, 5, 1] * 6
        ds = toy_dataset(GRID, seed=2, ratings=ratings)
        result = evaluate_ratings(ModelSpec(kind="knn", seed=0), ds, "enjoyment", seed=4)
        train, test, _ = split_dataset(ds.relabeled(np.asarray(ratings)), seed=4)
        model = fit_dataset(ModelSpec(kind="knn", seed=0), train)
        from eegsong.models import predict_labels

        predicted = predict_labels(model, test.X)
        expected = float(np.mean(np.abs(predicted - test.labels)))
        assert result.mae == expected
        assert result.target == "enjoyment"
        assert result.report.n_test == test.n_rows

    def test_rating_seen_only_in_test_is_reported(self):
        ds = toy_dataset(
            [(1, 1, 2), (1, 2, 2)], ratings=[1, 2, 1, 5]
        )
        with pytest.warns(UserWarning, match=r"rating classes \(5,\) absent"):
            result = evaluate_ratings(
                ModelSpec(kind="knn", knn_k=1), ds, "enjoyment", 0.5, seed=2
            )
        assert result.excluded_classes == (5,)

    def test_unknown_target_rejected(self):
        ds = toy_dataset(GRID, ratings=[3] * 72)
        with pytest.raises(EvalError, match="enjoyment or familiarity"):
            evaluate_ratings(ModelSpec(kind="knn"), ds, "valence")

    def test_missing_rating_metadata_rejected(self):
        ds = toy_dataset(GRID)  # enjoyment all zeros
        with pytest.raises(EvalError, match="outside 1..5"):
            evaluate_ratings(ModelSpec(kind="knn"), ds, "enjoyment")


class TestPlanFiles:
    def test_round_trip(self, tmp_path):
        ds = toy_dataset(GRID)
        _, _, plan = split_dataset(ds, 1 / 3, seed=6)
        path = write_plan(plan, tmp_path / "plan.csv")
        back = read_plan(path)
        assert back.test_fraction == plan.test_fraction
        assert back.seed == plan.seed
        assert back.n_rows == plan.n_rows
        assert np.array_equal(back.test_indices, plan.test_indices)

    def test_out_of_order_rows_rejected(self, tmp_path):
        ds = toy_dataset(GRID)
        _, _, plan = split_dataset(ds, 1 / 3, seed=6)
        path = write_plan(plan, tmp_path / "plan.csv")
        lines = path.read_text().splitlines()
        lines[6], lines[7] = lines[7], lines[6]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SplitError, match="expected row_index"):
            read_plan(path)

    def test_bad_fold_token_rejected(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text(
            "# split-plan\n# test_fraction: 0.5\n# seed: 0\n"
            "row_index,fold\n0,train\n1,validation\n"
        )
        with pytest.raises(SplitError, match="bad fold 'validation'"):
            read_plan(path)

    def test_missing_body_header_rejected(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text("# split-plan\n# seed: 0\n")
        with pytest.raises(SplitError, match="missing 'row_index,fold'"):
            read_plan(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text("# split-plan\n# seed: 0\nrow_index,fold\n0,train\n1,test\n")
        with pytest.raises(SplitError, match="header missing test_fraction"):
            read_plan(path)


class TestReportFiles:
    def make_report(self, rng):
        true = rng.integers(0, 4, size=80)
        pred = rng.integers(0, 4, size=80)
        subjects = rng.integers(1, 4, size=80)
        return report_from_predictions(true, pred, subjects)

    def test_round_trip(self, rng, tmp_path):
        report = self.make_report(rng)
        path = write_report(report, tmp_path / "report.txt", mae=1.25, target="enjoyment")
        back, extras = read_report(path)
        assert np.array_equal(back.confusion, report.confusion)
        assert np.array_equal(back.class_labels, report.class_labels)
        assert back.n_test == report.n_test
        np.testing.assert_allclose(
            back.overall_accuracy_pct, report.overall_accuracy_pct, rtol=1e-10
        )
        np.testing.assert_allclose(
            back.per_subject_accuracy_pct, report.per_subject_accuracy_pct, rtol=1e-10
        )
        assert extras == {"target": "enjoyment", "mae": "1.25"}

    def test_nan_per_class_round_trips(self, tmp_path):
        report = report_from_predictions(
            np.array([1, 2]), np.array([1, 2]), np.ones(2, dtype=int),
            class_labels=np.array([1, 2, 3]),
        )
        back, _ = read_report(write_report(report, tmp_path / "r.txt"))
        assert np.isnan(back.per_class_accuracy_pct[2])

    def test_malformed_report_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# classification report\nn_test: 4\n")
        with pytest.raises(EvalError, match="malformed report"):
            read_report(path)

    def test_confusion_shape_mismatch_rejected(self, rng, tmp_path):
        path = write_report(self.make_report(rng), tmp_path / "r.txt")
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one confusion row
        with pytest.raises(EvalError, match="confusion block"):
            read_report(path)


class TestConfusionRendering:
    def test_csv_round_trip(self, rng, tmp_path):
        true = rng.integers(0, 3, size=50)
        pred = rng.integers(0, 3, size=50)
        report = report_from_predictions(true, pred, np.ones(50, dtype=int))
        csv_path, _ = render_confusion(report, tmp_path)
        assert np.array_equal(read_confusion_csv(csv_path), report.confusion)

    def test_pgm_layout_and_shading(self, tmp_path):
        report = report_from_predictions(
            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.ones(4, dtype=int)
        )
        _, pgm_path = render_confusion(report, tmp_path)
        blob = pgm_path.read_bytes()
        header = b"P5\n64 64\n255\n"
        assert blob.startswith(header)
        pixels = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(64, 64)
        assert np.all(pixels == 128)  # every cell holds half the row mass

    def test_pgm_diagonal_is_bright(self, tmp_path):
        report = report_from_predictions(
            np.array([0, 1]), np.array([0, 1]), np.ones(2, dtype=int)
        )
        _, pgm_path = render_confusion(report, tmp_path)
        blob = pgm_path.read_bytes()
        pixels = np.frombuffer(blob[len(b"P5\n64 64\n255\n"):], dtype=np.uint8)
        pixels = pixels.reshape(64, 64)
        assert np.all(pixels[:32, :32] == 255) and np.all(pixels[32:, 32:] == 255)
        assert np.all(pixels[:32, 32:] == 0) and np.all(pixels[32:, :32] == 0)


class TestLeakageCanary:
    def test_duplicating_a_test_row_into_train_is_detectable(self):
        ds = toy_dataset(GRID, seed=8)
        train, test, _ = split_dataset(ds, 1 / 3, seed=8)
        model = fit_dataset(ModelSpec(kind="knn", knn_k=1, seed=0), train)
        honest = evaluate(model, test).overall_accuracy_pct
        # graft one test row (with its label) into the training fold
        leaky_train = dataclasses.replace(
            train,
            X=np.vstack([train.X, test.X[:1]]),
            feature_names=train.feature_names,
            labels=np.concatenate([train.labels, test.labels[:1]]),
            song_id=np.concatenate([train.song_id, test.song_id[:1]]),
            subject_id=np.concatenate([train.subject_id, test.subject_id[:1]]),
            epoch_index=np.concatenate([train.epoch_index, test.epoch_index[:1]]),
            enjoyment=np.concatenate([train.enjoyment, test.enjoyment[:1]]),
            familiarity=np.concatenate([train.familiarity, test.familiarity[:1]]),
        )
        leaky = evaluate(fit_dataset(ModelSpec(kind="knn", knn_k=1, seed=0), leaky_train), test)
        # the grafted row is now its own nearest neighbour: accuracy must move up
        assert leaky.overall_accuracy_pct > honest

    def test_split_never_shares_rows(self):
        ds = toy_dataset(GRID, seed=8)
        train, test, _ = split_dataset(ds, 1 / 3, seed=8)
        train_rows = {tuple(row) for row in train.X}
        assert all(tuple(row) not in train_rows for row in test.X)
