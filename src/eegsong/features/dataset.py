"""Flatten epochs into a labeled feature matrix and serialize it as CSV.

Each feature family is one function from a (..., samples) array and its
sample rate to {column name: (...) array}; FAMILIES names each family's
module and function, and a family's module is imported the first time a
feature matrix selects it, so reading or writing a dataset CSV imports none
of them.  Column order is frozen: channel-major, column names alphabetical
within each channel, names "ch<i>_<column>". The CSV header is the feature
names followed by song_id,subject_id,epoch_index,enjoyment,familiarity;
floats are written with enough digits to round-trip float64 exactly.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from dataclasses import dataclass, replace
from importlib import import_module
from pathlib import Path

import numpy as np

from ..config import FEATURE_FAMILIES
from ..core import Epoch, atomic_write

# family -> (module under eegsong.features, its extractor function)
FAMILIES = {
    "spectopo": ("spectral", "spectopo_bandpower"),
    "wavedec": ("wavelet", "wavedec_bandpower"),
    "dfa": ("dfa", "dfa_features"),
    "entropy": ("entropy", "entropy_features"),
}

META_COLUMNS = ("song_id", "subject_id", "epoch_index", "enjoyment", "familiarity")


@dataclass(frozen=True)
class Dataset:
    """Per-epoch feature rows with labels and provenance.

    labels is the prediction target; it equals song_id unless the dataset was
    relabeled (e.g. for rating prediction).
    """

    X: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray
    song_id: np.ndarray
    subject_id: np.ndarray
    epoch_index: np.ndarray
    enjoyment: np.ndarray
    familiarity: np.ndarray

    def __post_init__(self):
        n, d = self.X.shape
        if len(self.feature_names) != d:
            raise ValueError(
                f"{len(self.feature_names)} names for {d} feature columns"
            )
        if len(set(self.feature_names)) != d:
            raise ValueError("feature names are not unique")
        for name in ("labels",) + tuple(META_COLUMNS):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per row")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def width(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> Dataset:
        indices = np.asarray(indices)
        return Dataset(
            X=self.X[indices],
            feature_names=self.feature_names,
            labels=self.labels[indices],
            song_id=self.song_id[indices],
            subject_id=self.subject_id[indices],
            epoch_index=self.epoch_index[indices],
            enjoyment=self.enjoyment[indices],
            familiarity=self.familiarity[indices],
        )

    def relabeled(self, labels: np.ndarray) -> Dataset:
        labels = np.asarray(labels)
        if labels.shape != (self.n_rows,):
            raise ValueError("labels must have one entry per row")
        return replace(self, labels=labels)


def build_feature_matrix(
    epochs: Iterable[Epoch],
    selection: tuple[str, ...] | list[str] | set[str],
    ratings: dict[tuple[int, int], tuple[int, int]] | None = None,
) -> Dataset:
    """Compute the selected feature families for every epoch, in one pass
    over epochs, which may be a generator.  No epoch is held once its row is
    made, so a generator that reads epochs one at a time, as
    EpochsReader.epochs does, keeps one epoch in memory.

    ratings maps (subject_id, song_id) to (enjoyment, familiarity); epochs with
    no entry get zeros in those meta columns.  It is read as each epoch's row
    is made, so a generator of epochs may fill it as it goes.
    """
    selection = tuple(sorted(set(selection)))
    if not selection:
        raise ValueError("feature selection is empty")
    unknown = set(selection) - set(FEATURE_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown feature families {sorted(unknown)}; "
            f"choose from {FEATURE_FAMILIES}"
        )
    ratings = {} if ratings is None else ratings
    extractors = []
    for family in selection:
        module, function = FAMILIES[family]
        extractors.append(getattr(import_module(f".{module}", __package__), function))

    rows = []
    meta = []  # (song_id, subject_id, epoch_index, enjoyment, familiarity)
    # the column names follow from (channel count, sorted feature names): made
    # once from the first epoch, and each later epoch's layout compared
    layout: tuple[int, list[str]] | None = None
    for epoch in epochs:
        pos = len(rows)
        per_channel: dict[str, np.ndarray] = {}
        for extract in extractors:
            per_channel.update(extract(epoch.data, epoch.sample_rate_hz))
        feature_order = sorted(per_channel)
        if layout is None:
            layout = (epoch.n_channels, feature_order)
            names = tuple(
                f"ch{c}_{fname}"
                for c in range(epoch.n_channels)
                for fname in feature_order
            )
        elif layout != (epoch.n_channels, feature_order):
            raise ValueError(
                f"epoch {pos} produced a different feature layout "
                "(mixed channel counts or lengths?)"
            )
        # (channels, features) flattened row-major is the channel-major layout
        row = np.stack([per_channel[fname] for fname in feature_order], axis=1).ravel()
        bad = np.nonzero(~np.isfinite(row))[0]
        if bad.size:
            raise ValueError(
                f"non-finite feature value: epoch {pos} "
                f"(song {epoch.song_id}, index {epoch.epoch_index}), "
                f"column {names[bad[0]]}"
            )
        rows.append(row)
        enjoy, familiar = ratings.get((epoch.subject_id, epoch.song_id), (0, 0))
        meta.append((epoch.song_id, epoch.subject_id, epoch.epoch_index, enjoy, familiar))
        # drop the epoch before the generator reads the next one
        del epoch
    if not rows:
        raise ValueError("no epochs to featurize")

    X = np.vstack(rows)
    song_id, subject_id, epoch_index, enjoy, familiar = np.array(
        meta, dtype=np.int64
    ).T.copy()
    return Dataset(
        X=X,
        feature_names=names,
        labels=song_id.copy(),
        song_id=song_id,
        subject_id=subject_id,
        epoch_index=epoch_index,
        enjoyment=enjoy,
        familiarity=familiar,
    )


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """The bytes csv.writer writes for the header and, per row, each feature
    as "%.17g" and each meta column as an int.  No such field needs quoting,
    so each row is formatted with one % over a format string made once."""
    row_format = ",".join(["%.17g"] * dataset.width + ["%d"] * len(META_COLUMNS)) + "\r\n"
    meta = np.stack([getattr(dataset, name) for name in META_COLUMNS], axis=1).tolist()
    with atomic_write(path) as tmp, open(tmp, "w", newline="") as f:
        csv.writer(f).writerow(list(dataset.feature_names) + list(META_COLUMNS))
        for values, ints in zip(dataset.X.tolist(), meta):
            f.write(row_format % (*values, *ints))


def read_dataset_csv(path: str | Path) -> Dataset:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        if len(header) < len(META_COLUMNS) + 1 or tuple(
            header[-len(META_COLUMNS) :]
        ) != META_COLUMNS:
            raise ValueError(
                f"{path}: header must end with {','.join(META_COLUMNS)}"
            )
        feature_names = tuple(header[: -len(META_COLUMNS)])
        X_rows, meta_rows = [], []
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_number}: {len(row)} fields, "
                    f"expected {len(header)}"
                )
            X_rows.append([float(v) for v in row[: len(feature_names)]])
            meta_rows.append([int(v) for v in row[len(feature_names) :]])
    if not X_rows:
        raise ValueError(f"{path}: dataset has no rows")
    X = np.array(X_rows, dtype=np.float64)
    finite = np.isfinite(X)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}: row {row + 2}: non-finite value in column {feature_names[column]}"
        )
    meta = np.array(meta_rows, dtype=np.int64)
    return Dataset(
        X=X,
        feature_names=feature_names,
        labels=meta[:, 0].copy(),
        song_id=meta[:, 0],
        subject_id=meta[:, 1],
        epoch_index=meta[:, 2],
        enjoyment=meta[:, 3],
        familiarity=meta[:, 4],
    )
