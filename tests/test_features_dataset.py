"""Feature matrix assembly and its CSV serialization."""

import csv
import io

import numpy as np
import pytest

from eegsong import Dataset, build_feature_matrix, read_dataset_csv, write_dataset_csv
from eegsong.core import Epoch
from eegsong.features import FEATURE_FAMILIES
from eegsong.features.dfa import dfa
from eegsong.features.entropy import entropy_features
from eegsong.features.spectral import spectopo_bandpower
from eegsong.features.wavelet import dwt_multilevel, wavedec_levels

FS = 250


def make_epoch(rng, n_channels=4, subject=1, song=1, index=0, seconds=10):
    return Epoch(
        subject_id=subject,
        song_id=song,
        epoch_index=index,
        data=rng.normal(size=(n_channels, seconds * FS)),
        baseline_mean=rng.normal(size=n_channels),
        sample_rate_hz=FS,
    )


def test_spectopo_width_is_bands_times_channels(rng):
    ds = build_feature_matrix([make_epoch(rng, n_channels=32)], ["spectopo"])
    assert ds.width == 5 * 32


def test_entropy_width_is_two_per_channel(rng):
    ds = build_feature_matrix([make_epoch(rng, n_channels=32)], ["entropy"])
    assert ds.width == 2 * 32


def test_column_order_channel_major_then_alphabetical(rng):
    ds = build_feature_matrix([make_epoch(rng, n_channels=2)], ["entropy", "spectopo"])
    per_channel = [
        "entropy_log_energy",
        "entropy_shannon",
        "spectopo_alpha",
        "spectopo_beta",
        "spectopo_delta",
        "spectopo_gamma",
        "spectopo_theta",
    ]
    expect = tuple(f"ch{c}_{n}" for c in range(2) for n in per_channel)
    assert ds.feature_names == expect


def test_selection_order_does_not_matter(rng):
    e = make_epoch(rng)
    a = build_feature_matrix([e], ["spectopo", "entropy"])
    b = build_feature_matrix([e], ["entropy", "spectopo"])
    assert a.feature_names == b.feature_names
    assert np.array_equal(a.X, b.X)


def test_identical_epochs_identical_rows(rng):
    e = make_epoch(rng)
    ds = build_feature_matrix([e, e], ["spectopo", "wavedec"])
    assert np.array_equal(ds.X[0], ds.X[1])


def test_labels_default_to_song_ids(rng):
    epochs = [make_epoch(rng, song=s, index=i) for s in (1, 2) for i in range(3)]
    ds = build_feature_matrix(epochs, ["entropy"])
    assert np.array_equal(ds.labels, ds.song_id)
    assert np.array_equal(ds.song_id, [1, 1, 1, 2, 2, 2])
    assert np.array_equal(ds.epoch_index, [0, 1, 2, 0, 1, 2])


def test_ratings_attached_by_subject_song(rng):
    epochs = [make_epoch(rng, subject=7, song=2), make_epoch(rng, subject=7, song=3)]
    ds = build_feature_matrix(epochs, ["entropy"], ratings={(7, 2): (5, 1)})
    assert list(ds.enjoyment) == [5, 0]  # missing entries get zeros
    assert list(ds.familiarity) == [1, 0]


def test_ratings_filled_while_the_epochs_are_generated(rng):
    """An empty ratings dict that the epoch generator fills is read as each
    row is made, not swapped for a new one."""
    ratings = {}

    def epochs():
        for song, pair in ((2, (5, 1)), (3, (2, 4))):
            ratings[(7, song)] = pair
            yield make_epoch(rng, subject=7, song=song)

    ds = build_feature_matrix(epochs(), ["entropy"], ratings=ratings)
    assert list(ds.enjoyment) == [5, 2]
    assert list(ds.familiarity) == [1, 4]


def test_all_four_families_have_finite_values(rng):
    ds = build_feature_matrix(
        [make_epoch(rng, n_channels=2)], ["spectopo", "wavedec", "dfa", "entropy"]
    )
    assert np.all(np.isfinite(ds.X))
    families = {n.split("_", 2)[1] for n in ds.feature_names}
    assert families == {"spectopo", "wavedec", "dfa", "entropy"}


def per_channel_reference(epoch):
    """Feature name -> value for every channel, one family call per channel."""
    out = {}
    fs = epoch.sample_rate_hz
    levels = wavedec_levels(fs)
    for c, x in enumerate(epoch.data):
        for name, value in spectopo_bandpower(x, fs).items():
            out[f"ch{c}_{name}"] = value
        coeffs = dwt_multilevel(x, levels)
        energy = [(d**2).sum() for d in coeffs.details] + [(coeffs.approx**2).sum()]
        names = [f"d{k}" for k in range(1, levels + 1)] + [f"a{levels}"]
        for name, e in zip(names, energy):
            out[f"ch{c}_wavedec_{name}"] = e / sum(energy)
        result = dfa(x)
        out[f"ch{c}_dfa_alpha"] = result.alpha
        out[f"ch{c}_dfa_dim"] = result.dim
        out[f"ch{c}_dfa_intercept"] = result.intercept
        for i, f_n in enumerate(result.fluctuations):
            out[f"ch{c}_dfa_f{i:02d}"] = f_n
        for name, value in entropy_features(x, fs).items():
            out[f"ch{c}_{name}"] = value
    return out


def test_matches_per_channel_reference(tiny_epochs):
    ds = build_feature_matrix(tiny_epochs, FEATURE_FAMILIES)
    reference = [per_channel_reference(ep) for ep in tiny_epochs]
    assert set(ds.feature_names) == set(reference[0])
    for j, name in enumerate(ds.feature_names):
        expected = [ref[name] for ref in reference]
        np.testing.assert_allclose(ds.X[:, j], expected, rtol=1e-12, err_msg=name)


def test_unknown_family_rejected(rng):
    with pytest.raises(ValueError, match="unknown feature families"):
        build_feature_matrix([make_epoch(rng)], ["spectopo", "cepstrum"])


def test_empty_selection_rejected(rng):
    with pytest.raises(ValueError, match="selection is empty"):
        build_feature_matrix([make_epoch(rng)], [])


def test_no_epochs_rejected():
    with pytest.raises(ValueError, match="no epochs"):
        build_feature_matrix([], ["spectopo"])


def test_mixed_channel_counts_rejected(rng):
    epochs = [make_epoch(rng, n_channels=4), make_epoch(rng, n_channels=6)]
    with pytest.raises(ValueError, match="different feature layout"):
        build_feature_matrix(epochs, ["entropy"])


def test_nonfinite_feature_names_epoch_and_column(rng):
    e = make_epoch(rng, n_channels=2)
    zeroed = e.with_data(np.zeros_like(e.data))  # dfa degenerates on zeros
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        build_feature_matrix([e, zeroed], ["dfa"])


def test_subset_and_relabel(rng):
    epochs = [make_epoch(rng, song=s) for s in (1, 2, 3)]
    ds = build_feature_matrix(epochs, ["entropy"])
    sub = ds.subset(np.array([2, 0]))
    assert sub.n_rows == 2
    assert list(sub.song_id) == [3, 1]
    relabeled = ds.relabeled(np.array([9, 9, 9]))
    assert list(relabeled.labels) == [9, 9, 9]
    assert list(relabeled.song_id) == [1, 2, 3]  # provenance untouched
    with pytest.raises(ValueError, match="one entry per row"):
        ds.relabeled(np.array([1, 2]))


class TestCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        epochs = [make_epoch(rng, subject=3, song=s, index=i) for s in (1, 2) for i in range(2)]
        ds = build_feature_matrix(
            epochs, ["spectopo", "entropy"], ratings={(3, 1): (4, 2), (3, 2): (1, 5)}
        )
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.X, ds.X)  # %.17g round-trips float64 exactly
        for field in ("labels", "song_id", "subject_id", "epoch_index", "enjoyment", "familiarity"):
            assert np.array_equal(getattr(back, field), getattr(ds, field))

    def test_bytes_are_those_of_csv_writer(self, tmp_path):
        """Each row formatted at once gives csv.writer's bytes for "%.17g"
        features and int meta columns, at the edges of float64 too."""
        X = np.array(
            [
                [-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308],
                [-1.7976931348623157e308, 1e-300, 123456789012345678.0, 0.1, -1.0 / 3.0],
                [1e16, 2.5e-310, -4.9406564584124654e-324, 1e22, 7.0],
            ]
        )
        meta = {
            "song_id": [1, 12, 0],
            "subject_id": [-3, 7, 999],
            "epoch_index": [0, 1, 2],
            "enjoyment": [5, 1, 3],
            "familiarity": [2, 4, 1],
        }
        ds = Dataset(
            X=X,
            feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
            labels=np.array(meta["song_id"]),
            **{name: np.array(values) for name, values in meta.items()},
        )
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(list(ds.feature_names) + list(meta))
        for i in range(ds.n_rows):
            writer.writerow(["%.17g" % v for v in X[i]] + [values[i] for values in meta.values()])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        assert path.read_bytes() == expected.getvalue().encode()
        back = read_dataset_csv(path).X
        assert np.array_equal(back, X) and np.array_equal(np.signbit(back), np.signbit(X))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dataset file"):
            read_dataset_csv(path)

    def test_header_must_end_with_meta(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header must end with"):
            read_dataset_csv(path)

    def test_ragged_row_cites_row_number(self, rng, tmp_path):
        ds = build_feature_matrix([make_epoch(rng)], ["entropy"])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        with open(path, "a") as f:
            f.write("1.0,2.0\n")
        with pytest.raises(ValueError, match="row 3"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_cites_row_and_column(self, rng, tmp_path, value):
        ds = build_feature_matrix([make_epoch(rng, index=i) for i in range(2)], ["entropy"])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=f"row 3: non-finite value in column {ds.feature_names[1]}"
        ):
            read_dataset_csv(path)

    def test_header_only_no_rows(self, rng, tmp_path):
        ds = build_feature_matrix([make_epoch(rng)], ["entropy"])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")
        with pytest.raises(ValueError, match="no rows"):
            read_dataset_csv(path)
