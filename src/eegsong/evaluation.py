"""Held-out evaluation: stratified split with an on-disk plan, accuracy
report with confusion matrix, rating prediction, and report rendering.

The test set is sampled once per (subject, song) stratum and the plan is
written to disk, so train and evaluate read the same folds; the report that
scoring the test fold writes records that the fold is spent.

Only the functions that fit or predict import the models package, so
splitting, plan and report files and rendering run without it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT_TEST_FRACTION, held_out_rows
from .core import atomic_write, sorted_unique

if TYPE_CHECKING:
    from .config import ModelSpec
    from .features.dataset import Dataset
    from .models import TrainedModel

PGM_CELL_PIXELS = 32


class SplitError(ValueError):
    """Split request cannot be honored by the dataset at hand."""


class EvalError(ValueError):
    """Evaluation preconditions violated."""


@dataclass(frozen=True)
class SplitPlan:
    test_fraction: float
    seed: int
    n_rows: int
    test_indices: np.ndarray  # sorted row indices of the held-out fold
    strata: tuple[tuple[int, int, int], ...] = ()  # (subject, song, n_test)

    @property
    def train_indices(self) -> np.ndarray:
        mask = np.ones(self.n_rows, dtype=bool)
        mask[self.test_indices] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class EvalReport:
    class_labels: np.ndarray
    confusion: np.ndarray  # counts, rows = true, columns = predicted
    overall_accuracy_pct: float
    per_class_accuracy_pct: np.ndarray  # NaN where a class has no test rows
    subjects: np.ndarray
    per_subject_accuracy_pct: np.ndarray
    n_test: int

    @property
    def chance_pct(self) -> float:
        return 100.0 / self.class_labels.shape[0]


@dataclass(frozen=True)
class RatingEvalResult:
    target: str
    report: EvalReport
    mae: float
    excluded_classes: tuple[int, ...]  # ratings never seen during training


def split_dataset(
    dataset: Dataset, test_fraction: float = DEFAULT_TEST_FRACTION, seed: int = 0
) -> tuple[Dataset, Dataset, SplitPlan]:
    """Stratified held-out split over (subject, song) groups.

    Each stratum contributes held_out_rows(test_fraction, stratum size) rows
    to the test fold; a stratum that would lose all or none of its rows is an error.
    """
    if not 0.0 < test_fraction < 1.0:
        raise SplitError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    pairs = np.stack([dataset.subject_id, dataset.song_id], axis=1)
    unique_pairs = sorted_unique(pairs, axis=0)
    test_parts = []
    strata = []
    for subject, song in unique_pairs:
        rows = np.nonzero((pairs[:, 0] == subject) & (pairs[:, 1] == song))[0]
        n_test = held_out_rows(test_fraction, rows.shape[0])
        if n_test == 0 or n_test == rows.shape[0]:
            raise SplitError(
                f"stratum subject={subject} song={song} has {rows.shape[0]} rows; "
                f"test_fraction={test_fraction} leaves an empty fold"
            )
        picked = rng.permutation(rows)[:n_test]
        test_parts.append(np.sort(picked))
        strata.append((int(subject), int(song), n_test))
    test_indices = np.sort(np.concatenate(test_parts))
    plan = SplitPlan(
        test_fraction=test_fraction,
        seed=seed,
        n_rows=dataset.n_rows,
        test_indices=test_indices,
        strata=tuple(strata),
    )
    return dataset.subset(plan.train_indices), dataset.subset(test_indices), plan


def apply_plan(dataset: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    if plan.n_rows != dataset.n_rows:
        raise SplitError(
            f"plan covers {plan.n_rows} rows but dataset has {dataset.n_rows}"
        )
    return dataset.subset(plan.train_indices), dataset.subset(plan.test_indices)


def report_from_predictions(
    true_labels: np.ndarray,
    predicted: np.ndarray,
    subjects: np.ndarray,
    class_labels: np.ndarray | None = None,
) -> EvalReport:
    true_labels = np.asarray(true_labels)
    predicted = np.asarray(predicted)
    subjects = np.asarray(subjects)
    if true_labels.shape[0] == 0:
        raise EvalError("cannot evaluate an empty test set")
    if class_labels is None:
        class_labels = sorted_unique(np.concatenate([true_labels, predicted]))
    class_labels = np.asarray(class_labels)
    n_classes = class_labels.shape[0]
    t = np.searchsorted(class_labels, true_labels)
    p = np.searchsorted(class_labels, predicted)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (t, p), 1)
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = 100.0 * np.diag(confusion) / row_sums
    per_class = np.where(row_sums == 0, np.nan, per_class)
    overall = 100.0 * np.trace(confusion) / true_labels.shape[0]
    subject_ids = sorted_unique(subjects)
    per_subject = np.empty(subject_ids.shape[0])
    for i, sid in enumerate(subject_ids):
        member = subjects == sid
        per_subject[i] = 100.0 * np.mean(true_labels[member] == predicted[member])
    return EvalReport(
        class_labels=class_labels,
        confusion=confusion,
        overall_accuracy_pct=float(overall),
        per_class_accuracy_pct=per_class,
        subjects=subject_ids,
        per_subject_accuracy_pct=per_subject,
        n_test=int(true_labels.shape[0]),
    )


def evaluate(model: TrainedModel, test: Dataset) -> EvalReport:
    if test.n_rows == 0:
        raise EvalError("cannot evaluate an empty test set")
    from .models import predict_labels

    predicted = predict_labels(model, test.X)
    class_labels = sorted_unique(np.concatenate([test.labels, model.classes]))
    return report_from_predictions(test.labels, predicted, test.subject_id, class_labels)


def evaluate_ratings(
    spec: ModelSpec,
    dataset: Dataset,
    target: str,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
) -> RatingEvalResult:
    """Relabel epochs by a 1-5 rating, rerun the split/fit/evaluate protocol,
    and add a mean absolute error over the ordinal labels."""
    if target == "enjoyment":
        ratings = dataset.enjoyment
    elif target == "familiarity":
        ratings = dataset.familiarity
    else:
        raise EvalError(f"rating target must be enjoyment or familiarity, got {target!r}")
    if np.any((ratings < 1) | (ratings > 5)):
        raise EvalError(f"{target} ratings outside 1..5; dataset lacks rating metadata")
    from .models import fit_dataset, predict_labels

    relabeled = dataset.relabeled(ratings)
    train, test, _ = split_dataset(relabeled, test_fraction, seed)
    model = fit_dataset(spec, train)
    predicted = predict_labels(model, test.X)
    train_classes = set(sorted_unique(train.labels).tolist())
    excluded = tuple(
        int(c) for c in sorted_unique(test.labels) if int(c) not in train_classes
    )
    if excluded:
        warnings.warn(
            f"rating classes {excluded} absent from training fold; "
            "their rows cannot be predicted correctly",
            stacklevel=2,
        )
    report = report_from_predictions(
        test.labels,
        predicted,
        test.subject_id,
        sorted_unique(np.concatenate([test.labels, train.labels, predicted])),
    )
    mae = float(np.mean(np.abs(predicted.astype(float) - test.labels.astype(float))))
    return RatingEvalResult(
        target=target, report=report, mae=mae, excluded_classes=excluded
    )


# --- plan files ---------------------------------------------------------------


def write_plan(plan: SplitPlan, path: str | Path) -> Path:
    path = Path(path)
    test_set = set(plan.test_indices.tolist())
    lines = [
        "# split-plan",
        f"# test_fraction: {plan.test_fraction!r}",
        f"# seed: {plan.seed}",
        "row_index,fold",
    ]
    for i in range(plan.n_rows):
        lines.append(f"{i},{'test' if i in test_set else 'train'}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n")
    return path


def read_plan(path: str | Path) -> SplitPlan:
    path = Path(path)
    lines = path.read_text().splitlines()
    header = {}
    body_start = None
    for i, line in enumerate(lines):
        if line.startswith("# ") and ":" in line:
            key, _, value = line[2:].partition(":")
            header[key.strip()] = value.strip()
        elif line == "row_index,fold":
            body_start = i + 1
            break
        elif line != "# split-plan":
            raise SplitError(f"{path}: unrecognized plan line {i + 1}: {line!r}")
    if body_start is None:
        raise SplitError(f"{path}: missing 'row_index,fold' header")
    test_indices = []
    n_rows = 0
    for i, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line:
            continue
        try:
            index_text, fold = line.split(",")
            index = int(index_text)
        except ValueError as exc:
            raise SplitError(f"{path}: bad plan row at line {i}: {line!r}") from exc
        if fold not in ("train", "test"):
            raise SplitError(f"{path}: bad fold {fold!r} at line {i}")
        if index != n_rows:
            raise SplitError(f"{path}: expected row_index {n_rows} at line {i}")
        if fold == "test":
            test_indices.append(index)
        n_rows += 1
    try:
        return SplitPlan(
            test_fraction=float(header["test_fraction"]),
            seed=int(header["seed"]),
            n_rows=n_rows,
            test_indices=np.asarray(test_indices, dtype=np.int64),
        )
    except KeyError as exc:
        raise SplitError(f"{path}: plan header missing {exc.args[0]}") from exc


# --- report files -------------------------------------------------------------


def write_report(
    report: EvalReport,
    path: str | Path,
    mae: float | None = None,
    target: str | None = None,
) -> Path:
    path = Path(path)
    fmt = "%.12g"
    lines = ["# classification report"]
    if target is not None:
        lines.append(f"target: {target}")
    lines.append(f"n_test: {report.n_test}")
    lines.append(f"chance_pct: {fmt % report.chance_pct}")
    lines.append(f"overall_pct: {fmt % report.overall_accuracy_pct}")
    if mae is not None:
        lines.append(f"mae: {fmt % mae}")
    lines.append("class_labels: " + ",".join(str(int(c)) for c in report.class_labels))
    lines.append(
        "per_class_pct: "
        + ",".join(
            "nan" if np.isnan(v) else fmt % v for v in report.per_class_accuracy_pct
        )
    )
    lines.append("subjects: " + ",".join(str(int(s)) for s in report.subjects))
    lines.append(
        "per_subject_pct: "
        + ",".join(fmt % v for v in report.per_subject_accuracy_pct)
    )
    lines.append("confusion:")
    for row in report.confusion:
        lines.append(",".join(str(int(v)) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n")
    return path


def read_report(path: str | Path) -> tuple[EvalReport, dict[str, str]]:
    """Parse a report file back into an EvalReport plus any extra fields
    (target, mae) found in it."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln]
    fields: dict[str, str] = {}
    confusion_rows: list[list[int]] = []
    in_confusion = False
    for line in lines:
        if line.startswith("#"):
            continue
        if in_confusion:
            confusion_rows.append([int(v) for v in line.split(",")])
            continue
        key, _, value = line.partition(":")
        if key == "confusion":
            in_confusion = True
            continue
        fields[key.strip()] = value.strip()
    try:
        class_labels = np.asarray([int(v) for v in fields["class_labels"].split(",")])
        per_class = np.asarray([float(v) for v in fields["per_class_pct"].split(",")])
        subjects = np.asarray([int(v) for v in fields["subjects"].split(",")])
        per_subject = np.asarray(
            [float(v) for v in fields["per_subject_pct"].split(",")]
        )
        report = EvalReport(
            class_labels=class_labels,
            confusion=np.asarray(confusion_rows, dtype=np.int64),
            overall_accuracy_pct=float(fields["overall_pct"]),
            per_class_accuracy_pct=per_class,
            subjects=subjects,
            per_subject_accuracy_pct=per_subject,
            n_test=int(fields["n_test"]),
        )
    except (KeyError, ValueError) as exc:
        raise EvalError(f"{path}: malformed report file ({exc})") from exc
    if report.confusion.shape != (class_labels.shape[0], class_labels.shape[0]):
        raise EvalError(f"{path}: confusion block does not match class_labels")
    extras = {k: v for k, v in fields.items() if k in ("target", "mae")}
    return report, extras


def render_confusion(report: EvalReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the confusion counts as CSV and a row-normalized grayscale
    heatmap as a binary portable graymap (higher count = brighter pixel)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "confusion.csv"
    pgm_path = out_dir / "confusion.pgm"

    n = report.class_labels.shape[0]
    header = "true\\pred," + ",".join(str(i) for i in range(n))
    rows = [header]
    for i, row in enumerate(report.confusion):
        rows.append(f"{i}," + ",".join(str(int(v)) for v in row))
    with atomic_write(csv_path) as tmp:
        tmp.write_text("\n".join(rows) + "\n")

    counts = report.confusion.astype(float)
    row_sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(row_sums > 0, counts / row_sums, 0.0)
    gray = np.rint(normalized * 255.0).astype(np.uint8)
    scale = PGM_CELL_PIXELS
    image = np.kron(gray, np.ones((scale, scale), dtype=np.uint8))
    with atomic_write(pgm_path) as tmp, open(tmp, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
    return csv_path, pgm_path
