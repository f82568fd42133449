"""Domain types: markers, sessions, epochs, masks, validation."""

import numpy as np
import pytest

from eegsong import EventMarker, PipelineError, SessionRecording, validate_session
from eegsong.core import (
    BASELINE_SECONDS,
    MARKER_KINDS,
    ChannelMask,
    Epoch,
    EpochBatch,
    atomic_write,
    sorted_unique,
)


def make_session(n_channels=4, n_samples=1000, markers=(), ratings=None, fs=250):
    rng = np.random.default_rng(7)
    return SessionRecording(
        subject_id=1,
        sample_rate_hz=fs,
        samples=rng.normal(size=(n_channels, n_samples)),
        markers=tuple(markers),
        ratings=dict(ratings or {}),
    )


class TestEventMarker:
    def test_song_markers_require_song_id(self):
        with pytest.raises(ValueError, match="requires a song_id"):
            EventMarker(kind="song_start", sample_index=0)

    def test_non_song_markers_refuse_song_id(self):
        with pytest.raises(ValueError, match="must not carry"):
            EventMarker(kind="beep_single", sample_index=0, song_id=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown marker kind"):
            EventMarker(kind="coffee_break", sample_index=0)

    def test_negative_index(self):
        with pytest.raises(ValueError, match="negative"):
            EventMarker(kind="beep_single", sample_index=-1)

    def test_all_kinds_constructible(self):
        for kind in MARKER_KINDS:
            song = 1 if kind in ("song_start", "song_end") else None
            EventMarker(kind=kind, sample_index=5, song_id=song)


class TestSessionRecording:
    def test_samples_are_read_only(self):
        s = make_session()
        with pytest.raises(ValueError):
            s.samples[0, 0] = 99.0

    def test_shape_properties(self):
        s = make_session(n_channels=6, n_samples=500)
        assert s.n_channels == 6
        assert s.n_samples == 500

    def test_rejects_1d_samples(self):
        with pytest.raises(ValueError, match="2-D"):
            SessionRecording(1, 250, np.zeros(100), (), {})

    def test_float32_samples_are_kept_read_only_without_a_copy(self):
        samples = np.random.default_rng(7).normal(size=(4, 100)).astype(np.float32)
        s = SessionRecording(1, 250, samples, (), {})
        assert s.samples.dtype == np.float32
        assert np.shares_memory(s.samples, samples)
        with pytest.raises(ValueError):
            s.samples[0, 0] = 99.0

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.float64])
    def test_other_samples_become_float32(self, dtype):
        samples = (np.arange(400).reshape(4, 100) * 0.1).astype(dtype)
        s = SessionRecording(1, 250, samples, (), {})
        assert s.samples.dtype == np.float32
        assert np.array_equal(s.samples, samples.astype(np.float32))
        assert not s.samples.flags.writeable


class TestEpoch:
    def test_baseline_mean_shape_enforced(self):
        """The offset is one value per channel, not the baseline window."""
        fs = 250
        with pytest.raises(ValueError, match=r"baseline_mean must have shape \(4,\)"):
            Epoch(1, 1, 0, np.zeros((4, fs * 10)), np.zeros((4, fs * BASELINE_SECONDS)), fs)

    def test_baseline_channel_count_enforced(self):
        fs = 250
        with pytest.raises(ValueError, match=r"shape \(4,\), got \(3,\)"):
            Epoch(1, 1, 0, np.zeros((4, fs * 10)), np.zeros(3), fs)

    def test_with_data_keeps_identity(self):
        fs = 250
        e = Epoch(2, 5, 3, np.ones((2, fs * 10)), np.array([0.5, -1.0]), fs)
        e2 = e.with_data(np.full((2, fs * 10), 7.0))
        assert (e2.subject_id, e2.song_id, e2.epoch_index) == (2, 5, 3)
        assert np.all(e2.data == 7.0)
        assert e2.baseline_mean is e.baseline_mean


class TestEpochBatch:
    def test_mask_of_another_width_is_refused(self):
        fs = 250
        with pytest.raises(ValueError, match="channel_mask covers 3 channels, data has 4"):
            EpochBatch(
                1, np.zeros((2, 4, fs * 10), dtype=np.float32), np.zeros((2, 4)),
                np.zeros(2, dtype=np.int64), np.arange(2), fs, ChannelMask.all_good(3),
            )


class TestChannelMask:
    def test_reason_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="unknown rejection reasons"):
            ChannelMask(good=np.ones(4, dtype=bool), reasons={0: frozenset({"vibes"})})

    def test_counts(self):
        m = ChannelMask(good=np.array([True, False, True]))
        assert m.good.sum() == 2
        assert m.n_channels == 3

    def test_all_good_factory(self):
        assert ChannelMask.all_good(5).good.all()
        assert ChannelMask.all_good(5).n_channels == 5


class TestValidateSession:
    def test_well_formed_synthetic_session_is_clean(self, tiny_session):
        assert validate_session(tiny_session) == []

    def test_marker_out_of_range(self):
        s = make_session(n_samples=100, markers=[EventMarker("beep_single", 101)])
        msgs = validate_session(s)
        assert any("marker out of range" in v for v in msgs)

    def test_unsorted_markers(self):
        markers = [EventMarker("beep_single", 50), EventMarker("beep_double", 10)]
        msgs = validate_session(make_session(markers=markers))
        assert any("not sorted" in v for v in msgs)

    def test_missing_rating_reported_per_song(self):
        markers = [
            EventMarker("song_start", 10, song_id=1),
            EventMarker("song_end", 20, song_id=1),
            EventMarker("song_start", 30, song_id=2),
            EventMarker("song_end", 40, song_id=2),
        ]
        msgs = validate_session(make_session(markers=markers, ratings={1: (3, 3)}))
        assert "missing rating for song 2" in msgs

    def test_orphan_rating(self):
        msgs = validate_session(make_session(ratings={9: (2, 2)}))
        assert any("no song_start marker" in v for v in msgs)

    def test_rating_out_of_range(self):
        markers = [
            EventMarker("song_start", 10, song_id=1),
            EventMarker("song_end", 20, song_id=1),
        ]
        msgs = validate_session(make_session(markers=markers, ratings={1: (6, 3)}))
        assert any("out of 1-5 range" in v for v in msgs)

    def test_odd_sample_rate_flagged_not_fatal(self):
        msgs = validate_session(make_session(fs=300))
        assert any("unusual sample rate" in v for v in msgs)


class TestExtractSegment:
    """Song segments sliced from session.samples between their markers."""

    def test_song_segment_column_count_at_250hz(self, tiny_session, tiny_config):
        # song_end - song_start spans exactly song_seconds * fs columns of
        # every song, which consecutive 10 s windows tile
        fs = tiny_config.sample_rate_hz
        starts = {m.song_id: m.sample_index for m in tiny_session.markers if m.kind == "song_start"}
        ends = {m.song_id: m.sample_index for m in tiny_session.markers if m.kind == "song_end"}
        assert sorted(starts) == sorted(ends) == list(range(1, tiny_config.n_songs + 1))
        for song_id, start in starts.items():
            song = tiny_session.samples[:, start : ends[song_id]]
            assert song.shape[1] == tiny_config.song_seconds * fs
            assert song.shape[1] % (10 * fs) == 0

    def test_nonoverlapping_windows_tile_the_segment(self, tiny_session):
        """Concatenating consecutive 10 s windows reproduces the segment."""
        fs = tiny_session.sample_rate_hz
        start = next(m.sample_index for m in tiny_session.markers if m.kind == "song_start")
        end = next(m.sample_index for m in tiny_session.markers if m.kind == "song_end")
        whole = tiny_session.samples[:, start:end]
        win = 10 * fs
        parts = [tiny_session.samples[:, s0 : s0 + win] for s0 in range(start, end, win)]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)


class TestAtomicWrite:
    def test_completed_block_replaces_the_artifact(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("old\n")
        with atomic_write(path) as tmp:
            tmp.write_text("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_missing_directory_is_created(self, tmp_path):
        path = tmp_path / "run" / "kind" / "model.npz"
        with atomic_write(path) as tmp:
            tmp.write_bytes(b"model")
        assert path.read_bytes() == b"model"
        assert [p.name for p in path.parent.iterdir()] == ["model.npz"]

    def test_failed_block_keeps_the_old_artifact_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="disk on fire"):
            with atomic_write(path) as tmp:
                tmp.write_text("half")
                raise RuntimeError("disk on fire")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.int64),
            np.array([7]),
            np.random.default_rng(1).integers(-5, 6, size=200),
            np.random.default_rng(2).integers(0, 4, size=(30, 5)),
            np.array([3.0, -1.5, 3.0, 0.25]),
        ],
        ids=["empty", "one", "labels", "2-D flattened", "float"],
    )
    def test_equals_np_unique(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(0, 2), (1, 2), (300, 2), (50, 3)])
    def test_rows_equal_np_unique_along_axis_0(self, shape):
        pairs = np.random.default_rng(3).integers(-3, 4, size=shape)
        got = sorted_unique(pairs, axis=0)
        expected = np.unique(pairs, axis=0)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_refuses_other_axes(self):
        with pytest.raises(ValueError, match="axis"):
            sorted_unique(np.zeros((2, 2)), axis=1)
