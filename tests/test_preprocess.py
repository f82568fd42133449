"""Epoch capture, baseline correction, notch filter, re-referencing,
bad-channel rejection, and the composed pipeline."""

import dataclasses
import io
import re
import struct
import zipfile

import numpy as np
import pytest
from scipy import signal

from eegsong import GeneratorConfig, PipelineError, PreprocessConfig, dsp, generate_session
from eegsong.core import (
    EEG_BAND_EDGES,
    REJECTION_MEASURES,
    ChannelMask,
    Epoch,
    EpochBatch,
    validate_session,
)
from eegsong.preprocess import (
    _BLOCK_BYTES,
    EpochsFile,
    EpochsReader,
    _capture,
    _rejection_measures,
    _rereference,
    _write_member,
    average_rereference,
    baseline_correct,
    capture_music_epochs,
    load_epochs,
    notch_filter,
    reject_bad_channels,
    run_pipeline,
    save_epochs,
    write_epochs,
)

FS = 250


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def sine(freq_hz, seconds=10, fs=FS, amplitude=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestConfig:
    def test_epoch_seconds_must_be_positive(self):
        # divisibility by the song length is checked at config load
        PreprocessConfig(epoch_seconds=25)
        for bad in (0, -10):
            with pytest.raises(ValueError, match="epoch_seconds must be positive"):
                PreprocessConfig(epoch_seconds=bad)

    def test_notch_must_be_positive(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="notch_hz must be positive"):
                PreprocessConfig(notch_hz=bad)


class TestCapture:
    def test_epoch_counts(self, tiny_session, tiny_config):
        epochs = capture_music_epochs(tiny_session, epoch_seconds=10)
        per_song = tiny_config.song_seconds // 10
        assert len(epochs) == tiny_config.n_songs * per_song
        # temporal order within each song
        for song in range(1, tiny_config.n_songs + 1):
            idx = [e.epoch_index for e in epochs if e.song_id == song]
            assert idx == list(range(per_song))

    def test_unsegmented_one_epoch_per_song(self, tiny_session, tiny_config):
        epochs = capture_music_epochs(tiny_session, epoch_seconds=tiny_config.song_seconds)
        assert len(epochs) == tiny_config.n_songs
        assert all(e.epoch_index == 0 for e in epochs)

    def test_first_baseline_is_tail_of_lead_silence(self, tiny_session, tiny_config):
        epochs = capture_music_epochs(tiny_session, epoch_seconds=10)
        first = next(e for e in epochs if e.song_id == 1)
        fs = tiny_config.sample_rate_hz
        start = tiny_config.lead_silence_seconds * fs
        assert np.array_equal(
            first.baseline_mean,
            tiny_session.samples[:, start - 10 * fs : start].astype(np.float64).mean(axis=1),
        )

    def test_epochs_tile_the_song(self, tiny_session):
        fs = tiny_session.sample_rate_hz
        epochs = [e for e in capture_music_epochs(tiny_session, 10) if e.song_id == 2]
        start = next(
            m.sample_index
            for m in tiny_session.markers
            if m.kind == "song_start" and m.song_id == 2
        )
        stitched = np.concatenate([e.data for e in epochs], axis=1)
        assert np.array_equal(
            stitched, tiny_session.samples[:, start : start + stitched.shape[1]]
        )

    def test_missing_song_end_is_structural_error(self, tiny_session):
        from eegsong import SessionRecording

        markers = tuple(
            m for m in tiny_session.markers if not (m.kind == "song_end" and m.song_id == 3)
        )
        broken = SessionRecording(
            subject_id=tiny_session.subject_id,
            sample_rate_hz=tiny_session.sample_rate_hz,
            samples=tiny_session.samples,
            markers=markers,
            ratings=tiny_session.ratings,
        )
        with pytest.raises(PipelineError, match=r"no song_end marker for songs \[3\]"):
            capture_music_epochs(broken, 10)


class TestBaseline:
    def make_epoch(self, data, baseline):
        """An epoch whose offset is the mean of the given baseline window,
        as capture_music_epochs computes it."""
        return Epoch(1, 1, 0, data, np.mean(baseline, axis=1), FS)

    def test_constant_data_constant_baseline_cancels(self):
        e = self.make_epoch(np.full((2, FS * 10), 3.5), np.full((2, FS * 10), 3.5))
        assert np.allclose(baseline_correct(e).data, 0.0)

    def test_zero_mean_baseline_leaves_data(self):
        rng = np.random.default_rng(1)
        baseline = rng.normal(size=(2, FS * 10))
        baseline -= baseline.mean(axis=1, keepdims=True)
        data = rng.normal(size=(2, FS * 10))
        e = self.make_epoch(data, baseline)
        assert np.allclose(baseline_correct(e).data, data)

    def test_direct_subtraction_oracle(self):
        """Offset + sinusoid, baseline at the same offset -> pure sinusoid."""
        rng = np.random.default_rng(2)
        offsets = rng.normal(size=(3, 1))
        wave = np.vstack([sine(f) for f in (5, 9, 14)])
        e = self.make_epoch(offsets + wave, np.broadcast_to(offsets, (3, FS * 10)))
        out = baseline_correct(e).data
        # oracle: plain elementwise subtraction of the known channel means
        assert np.allclose(out, (offsets + wave) - offsets, atol=1e-12)
        assert np.allclose(out, wave, atol=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, FS * 10))
        baseline = rng.normal(size=(2, FS * 10))
        base_out = baseline_correct(self.make_epoch(data, baseline)).data
        shifted = baseline_correct(self.make_epoch(data + 11.0, baseline + 11.0)).data
        assert np.allclose(base_out, shifted, atol=1e-9)

    def test_idempotent_after_first_pass_with_zero_mean_baseline(self):
        rng = np.random.default_rng(4)
        baseline = rng.normal(size=(2, FS * 10))
        baseline -= baseline.mean(axis=1, keepdims=True)
        e = self.make_epoch(rng.normal(size=(2, FS * 10)), baseline)
        once = baseline_correct(e)
        twice = baseline_correct(once)
        assert np.allclose(once.data, twice.data)


class TestNotch:
    def test_50hz_killed(self):
        x = sine(50.0)
        y = notch_filter(x, FS)
        trim = FS  # discard 1 s of edge transient each side
        assert rms(y[trim:-trim]) <= 0.01 * rms(x[trim:-trim])

    def test_10hz_untouched(self):
        x = sine(10.0)
        y = notch_filter(x, FS)
        trim = FS
        ratio = rms(y[trim:-trim]) / rms(x[trim:-trim])
        assert abs(ratio - 1.0) < 0.01

    def test_zero_in_zero_out(self):
        assert np.allclose(notch_filter(np.zeros(1000), FS), 0.0)

    def test_length_preserved_and_batch_axis(self):
        x = np.vstack([sine(10), sine(50)])
        y = notch_filter(x, FS)
        assert y.shape == x.shape

    def test_zero_phase_no_lag(self):
        x = sine(10.0)
        y = notch_filter(x, FS)
        trim = FS
        xc, yc = x[trim:-trim], y[trim:-trim]
        lags = np.arange(-20, 21)
        corr = [np.dot(np.roll(yc, lag), xc) for lag in lags]
        assert lags[int(np.argmax(corr))] == 0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 2000))
        lhs = notch_filter(2.0 * a - 0.5 * b, FS)
        rhs = 2.0 * notch_filter(a, FS) - 0.5 * notch_filter(b, FS)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_rejects_nonfinite(self):
        x = np.zeros(100)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            notch_filter(x, FS)

    def test_rejects_notch_at_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            notch_filter(np.zeros(100), 80.0, notch_hz=50.0)

    def test_rejects_notch_at_or_below_zero(self):
        for notch_hz in (0.0, -5.0):
            with pytest.raises(ValueError, match="not between 0 and Nyquist"):
                notch_filter(np.zeros(100), FS, notch_hz=notch_hz)


class TestRereference:
    def test_good_channel_mean_is_zero(self, rng):
        seg = rng.normal(size=(8, 1000))
        out = average_rereference(seg, ChannelMask.all_good(8))
        assert np.abs(out.mean(axis=0)).max() < 1e-10

    def test_plus_minus_v_unchanged(self):
        v = sine(7.0, seconds=2)
        seg = np.vstack([v, -v])
        out = average_rereference(seg, ChannelMask.all_good(2))
        assert np.allclose(out, seg, atol=1e-12)

    def test_naive_oracle(self, rng):
        seg = rng.normal(size=(8, 1000))
        out = average_rereference(seg, ChannelMask.all_good(8))
        # oracle: explicit loop, one sample at a time
        expect = seg.copy()
        for t in range(seg.shape[1]):
            expect[:, t] -= seg[:, t].mean()
        assert np.allclose(out, expect, atol=1e-12)

    def test_projection_idempotent(self, rng):
        seg = rng.normal(size=(6, 500))
        once = average_rereference(seg, ChannelMask.all_good(6))
        twice = average_rereference(once, ChannelMask.all_good(6))
        assert np.abs(once - twice).max() < 1e-10

    def test_bad_channels_pass_through(self, rng):
        seg = rng.normal(size=(5, 300))
        mask = ChannelMask(good=np.array([True, True, False, True, True]))
        out = average_rereference(seg, mask)
        assert np.array_equal(out[2], seg[2])
        assert np.abs(out[mask.good].mean(axis=0)).max() < 1e-10

    @pytest.mark.parametrize("shape", [(5, 32, 300), (32, 300)], ids=["batch", "segment"])
    def test_channel_by_channel_mean_equals_the_one_line_formula(self, shape, rng):
        """The in-place re-reference, which sums the good channels one at a
        time, keeps to the mean over the channel axis bit for bit."""
        data = rng.normal(size=shape) * 30.0
        good = np.ones(32, dtype=bool)
        good[[0, 7, 30]] = False
        expected = data.copy()
        expected[..., good, :] -= expected[..., good, :].mean(axis=-2, keepdims=True)
        _rereference(data, good)
        assert np.array_equal(data, expected)

    def test_needs_two_good_channels(self, rng):
        seg = rng.normal(size=(3, 100))
        mask = ChannelMask(good=np.array([True, False, False]))
        with pytest.raises(PipelineError, match="at least 2 good channels"):
            average_rereference(seg, mask)

    def test_source_not_mutated(self, rng):
        seg = rng.normal(size=(4, 100))
        before = seg.copy()
        average_rereference(seg, ChannelMask.all_good(4))
        assert np.array_equal(seg, before)


class TestRejectBadChannels:
    def test_planted_outlier_rejected_with_reasons(self, rng):
        seg = rng.normal(size=(32, 2500))
        seg[13] *= 50.0
        mask = reject_bad_channels(seg, rejection_zscore=5.0, sample_rate_hz=FS)
        assert not mask.good[13]
        assert mask.reasons[13] >= {"probability", "spectrum"}
        assert mask.n_good == 31

    def test_identical_channels_no_rejections(self):
        seg = np.tile(sine(9.0, seconds=4), (8, 1))
        mask = reject_bad_channels(seg, sample_rate_hz=FS)
        assert mask.n_good == 8
        assert mask.reasons == {}

    def test_false_positive_rate_under_5_percent(self):
        """i.i.d. channels at threshold 5: almost never rejects anything."""
        hits = 0
        for seed in range(100):
            seg = np.random.default_rng(seed).normal(size=(32, 2000))
            if reject_bad_channels(seg, 5.0, FS).reasons:
                hits += 1
        assert hits < 5

    def test_permutation_equivariance(self, rng):
        seg = rng.normal(size=(16, 2000))
        seg[4] *= 30.0
        seg[9] = rng.standard_t(df=2, size=2000) * 5.0
        perm = rng.permutation(16)
        direct = reject_bad_channels(seg, 3.0, FS)
        permuted = reject_bad_channels(seg[perm], 3.0, FS)
        assert np.array_equal(permuted.good, direct.good[perm])
        expect_reasons = {
            int(np.nonzero(perm == ch)[0][0]): why for ch, why in direct.reasons.items()
        }
        assert permuted.reasons == expect_reasons

    def test_needs_four_channels(self, rng):
        with pytest.raises(PipelineError, match=">= 4 channels"):
            reject_bad_channels(rng.normal(size=(3, 500)), 5.0, FS)

    @staticmethod
    def one_shot_measures(segment):
        """The rejection measures with a fresh array for every step and
        scipy's Welch over each whole row: the reference that the buffered,
        chunked measures keep to bit for bit."""
        measures = {name: [] for name in REJECTION_MEASURES}
        lo, hi = EEG_BAND_EDGES[0][1], EEG_BAND_EDGES[-1][2]
        for ch in range(segment.shape[-2]):
            row = segment[..., ch, :].reshape(-1)
            centered = row - row.mean()
            measures["probability"].append(np.abs(centered).mean())
            squared = centered * centered
            m2 = squared.mean()
            m4 = (squared * squared).mean()
            m2 = np.where(m2 == 0, 1.0, m2)
            measures["kurtosis"].append(m4 / m2**2 - 3.0)
            nperseg = min(row.size, FS)
            freqs, psd = signal.welch(row, fs=FS, window="hamming", nperseg=nperseg)
            band = (freqs >= lo) & (freqs < hi)
            measures["spectrum"].append(psd[band].sum() * (freqs[1] - freqs[0]))
        return measures

    @pytest.mark.parametrize("shape", [(8, 6, 2500), (6, 20_000)], ids=["batch", "segment"])
    def test_buffered_measures_equal_the_one_shot_formulas(self, shape, rng):
        """A constant channel (zero variance), a loud one, and a row of
        20,000 samples, whose 159 Welch segments are not a multiple of the
        chunk."""
        n_seg = (20_000 - FS // 2) // (FS - FS // 2)
        chunk = dsp._WELCH_CHUNK_SAMPLES // FS
        assert n_seg > chunk and n_seg % chunk
        segment = rng.normal(size=shape) * 10.0 + 3.0
        segment[..., 2, :] = 7.0
        segment[..., 4, :] *= 40.0
        measures = _rejection_measures(segment, FS)
        expected = self.one_shot_measures(segment)
        assert measures["kurtosis"][2] == -3.0
        for name in REJECTION_MEASURES:
            assert np.array_equal(measures[name], expected[name]), name

    def test_half_montage_guard(self, rng):
        # 3 wild channels out of 4 would leave under half the montage
        seg = rng.normal(size=(4, 2000))
        seg[0] *= 200.0
        seg[1] *= 150.0
        seg[2] *= 120.0
        with pytest.raises(PipelineError, match="less than half"):
            reject_bad_channels(seg, 0.5, FS)


class TestRunPipeline:
    def test_every_captured_epoch_is_kept(self, tiny_pipeline, tiny_config):
        per_song = tiny_config.song_seconds // 10
        assert len(tiny_pipeline.data) == tiny_config.n_songs * per_song

    def test_planted_bad_channel_flagged_at_default_scale(self):
        cfg = GeneratorConfig(
            n_songs=2,
            song_seconds=20,
            lead_silence_seconds=20,
            trail_silence_seconds=10,
            n_channels=32,
            n_bad_channels=2,
            seed=9,
        )
        session = generate_session(cfg, subject_id=1)
        res = run_pipeline(session, PreprocessConfig())
        flagged = set(res.channel_mask.reasons)
        assert len(flagged) >= 1
        # flagged channels really are the planted ones: their raw variance is huge
        rms_all = session.samples.std(axis=1)
        planted = set(np.argsort(rms_all)[-cfg.n_bad_channels :].tolist())
        assert flagged <= planted

    def test_step_failure_names_the_step(self, tiny_session):
        cfg = PreprocessConfig(rejection_zscore=0.0001)
        with pytest.raises(PipelineError, match="step 'bad_channels' failed"):
            run_pipeline(tiny_session, cfg)

    def test_capture_and_rereference_failures_name_the_step(self, tiny_session):
        # 20 s songs do not divide into 3 s epochs
        with pytest.raises(PipelineError, match="step 'capture' failed: song 1 segment"):
            run_pipeline(tiny_session, PreprocessConfig(epoch_seconds=3))
        one_channel = dataclasses.replace(tiny_session, samples=tiny_session.samples[:1])
        with pytest.raises(PipelineError, match="step 'rereference' failed: .* at least 2 good"):
            run_pipeline(one_channel, PreprocessConfig())

    def test_session_without_songs_is_refused_at_capture(self, tiny_session):
        # valid as a session: no songs and no ratings break no invariant
        songless = dataclasses.replace(
            tiny_session,
            markers=[m for m in tiny_session.markers if m.song_id is None],
            ratings={},
        )
        assert validate_session(songless) == []
        with pytest.raises(PipelineError, match="step 'capture' failed: .* no song_start marker"):
            run_pipeline(songless, PreprocessConfig())

    @pytest.mark.parametrize("default_geometry", [False, True], ids=["tiny", "default_2_songs"])
    def test_blocks_equal_the_whole_subject_at_once(self, default_geometry, tiny_session):
        """run_pipeline preprocesses a block of songs at a time into a float32
        batch: the batch equals capture, baseline, notch and rereference over
        every epoch at once in float64, cast to float32, and its mask the
        mask of that float64 batch."""
        session = (
            generate_session(GeneratorConfig(n_songs=2, n_bad_channels=1, seed=4), 1)
            if default_geometry
            else tiny_session
        )
        config = PreprocessConfig()
        fs = session.sample_rate_hz
        data, baseline_mean, song_id, epoch_index = _capture(session, config.epoch_seconds)
        # a TINY subject is one block, two default songs are two
        assert (data.nbytes > _BLOCK_BYTES) == default_geometry
        data -= baseline_mean[..., None]
        data = notch_filter(data, fs, config.notch_hz, config.notch_bandwidth_hz)
        data = average_rereference(data, ChannelMask.all_good(session.n_channels))
        expected_mask = reject_bad_channels(data, config.rejection_zscore, fs)
        result = run_pipeline(session, config)
        assert np.array_equal(result.data, data.astype(np.float32))
        assert np.array_equal(result.baseline_mean, baseline_mean)
        assert np.array_equal(result.song_id, song_id)
        assert np.array_equal(result.epoch_index, epoch_index)
        assert np.array_equal(result.channel_mask.good, expected_mask.good)
        assert result.channel_mask.reasons == expected_mask.reasons

    def test_batch_holds_float32_values(self, tiny_pipeline):
        assert tiny_pipeline.data.dtype == np.float32


class TestEpochsFile:
    def make_file(self, pipeline, session):
        ratings = {(session.subject_id, s): r for s, r in session.ratings.items()}
        return EpochsFile(
            epochs=tuple(pipeline.epochs),
            masks={session.subject_id: pipeline.channel_mask},
            ratings=ratings,
            sample_rate_hz=session.sample_rate_hz,
        )

    def test_round_trip(self, tiny_pipeline, tiny_session, tmp_path):
        # rejected channels with one, two and every reason, which the TINY
        # subject's own mask does not have
        good = np.ones(tiny_session.n_channels, dtype=bool)
        good[[0, 3, 7]] = False
        reasons = {
            0: frozenset({"kurtosis"}),
            3: frozenset({"probability", "spectrum"}),
            7: frozenset(REJECTION_MEASURES),
        }
        ef = dataclasses.replace(
            self.make_file(tiny_pipeline, tiny_session),
            masks={tiny_session.subject_id: ChannelMask(good=good, reasons=reasons)},
        )
        path = tmp_path / "epochs.npz"
        save_epochs(path, ef)
        back = load_epochs(path)
        assert len(back.epochs) == len(ef.epochs)
        for a, b in zip(back.epochs, ef.epochs):
            assert (a.subject_id, a.song_id, a.epoch_index) == (
                b.subject_id,
                b.song_id,
                b.epoch_index,
            )
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(a.baseline_mean, b.baseline_mean)
        assert back.ratings == ef.ratings
        assert back.sample_rate_hz == ef.sample_rate_hz
        assert set(back.masks) == set(ef.masks)
        sid = tiny_session.subject_id
        assert np.array_equal(back.masks[sid].good, ef.masks[sid].good)
        assert back.masks[sid].reasons == ef.masks[sid].reasons

    def test_refuses_empty(self, tmp_path):
        ef = EpochsFile(epochs=(), masks={}, ratings={}, sample_rate_hz=250)
        with pytest.raises(PipelineError, match="empty"):
            save_epochs(tmp_path / "e.npz", ef)

    def test_refuses_version_1(self, tiny_pipeline, tiny_session, tmp_path):
        """A version-1 file (a full baseline window per epoch) is not read."""
        path = tmp_path / "epochs.npz"
        save_epochs(path, self.make_file(tiny_pipeline, tiny_session))
        with np.load(path) as archive:
            payload = dict(archive)
        sid = tiny_session.subject_id
        payload["format_version"] = np.asarray(1)
        payload["data"] = payload.pop(f"data_{sid}")
        payload["baseline"] = np.zeros(payload["data"].shape[:2] + (10 * FS,))
        del payload[f"baseline_mean_{sid}"]
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match="unsupported epochs format version 1"):
            load_epochs(path)

    def test_refuses_version_2(self, tiny_pipeline, tiny_session, tmp_path):
        """A version-2 file (every subject's epochs in one pooled data array)
        is not read."""
        path = tmp_path / "epochs.npz"
        save_epochs(path, self.make_file(tiny_pipeline, tiny_session))
        with np.load(path) as archive:
            payload = dict(archive)
        payload["format_version"] = np.asarray(2)
        payload["data"] = payload.pop(f"data_{tiny_session.subject_id}")
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match="unsupported epochs format version 2"):
            load_epochs(path)

    def test_refuses_version_3(self, tiny_pipeline, tiny_session, tmp_path):
        """A version-3 file (float64 data members) is not read."""
        path = tmp_path / "epochs.npz"
        save_epochs(path, self.make_file(tiny_pipeline, tiny_session))
        with np.load(path) as archive:
            payload = dict(archive)
        payload["format_version"] = np.asarray(3)
        name = f"data_{tiny_session.subject_id}"
        payload[name] = payload[name].astype(np.float64)
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match="unsupported epochs format version 3"):
            load_epochs(path)

    def test_refuses_version_4(self, tiny_pipeline, tiny_session, tmp_path):
        """A version-4 file (per-epoch arrays, masks and ratings pooled across
        subjects beside the data members) is not read."""
        path = tmp_path / "epochs.npz"
        save_epochs(path, self.make_file(tiny_pipeline, tiny_session))
        sid = tiny_session.subject_id
        with np.load(path) as archive:
            payload = dict(archive)
        labels = payload.pop(f"labels_{sid}")
        payload["format_version"] = np.asarray(4)
        payload["subject_id"] = np.full(len(labels), sid)
        payload["song_id"], payload["epoch_index"] = labels.T
        payload["baseline_mean"] = payload.pop(f"baseline_mean_{sid}")
        payload["mask_subjects"] = payload.pop("subjects")
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match="unsupported epochs format version 4"):
            load_epochs(path)

    def test_refuses_truncated_archive_by_path(self, tiny_pipeline, tiny_session, tmp_path):
        path = tmp_path / "epochs.npz"
        save_epochs(path, self.make_file(tiny_pipeline, tiny_session))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(PipelineError, match=re.escape(f"{path}: not a readable epochs archive")):
            load_epochs(path)

    def test_refuses_archive_missing_an_array_by_path(self, tiny_pipeline, tiny_session, tmp_path):
        path = tmp_path / "epochs.npz"
        save_epochs(path, self.make_file(tiny_pipeline, tiny_session))
        with np.load(path) as archive:
            payload = dict(archive)
        del payload["subjects"]
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match=re.escape(f"{path}: epochs archive has no subjects array")):
            load_epochs(path)

    @pytest.mark.parametrize("member", ["data", "baseline_mean", "labels", "mask", "ratings"])
    def test_refuses_a_subject_missing_a_member_by_path(self, two_subject_file, member):
        path = two_subject_file
        with np.load(path) as archive:
            payload = dict(archive)
        del payload[f"{member}_2"]
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match=re.escape(f"{path}: epochs archive has no {member}_2 array")):
            load_epochs(path)

    def test_refuses_a_subject_listed_twice(self, two_subject_file):
        path = two_subject_file
        with np.load(path) as archive:
            payload = dict(archive)
        payload["subjects"] = np.asarray([2, 1, 2])
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match=re.escape(f"{path}: subjects lists subjects [2] more than once")):
            load_epochs(path)

    @pytest.mark.parametrize(
        "member, keep",
        [("mask_1", lambda flags: flags[:, 0]), ("ratings_2", lambda rows: rows[:, :2])],
        ids=["mask", "ratings"],
    )
    def test_refuses_a_mask_or_ratings_member_of_another_width(self, two_subject_file, member, keep):
        path = two_subject_file
        with np.load(path) as archive:
            payload = dict(archive)
        payload[member] = keep(payload[member])
        np.savez(path, **payload)
        with pytest.raises(PipelineError, match=re.escape(f"{path}: {member} has shape")):
            load_epochs(path)

    @pytest.mark.parametrize(
        "array",
        [
            np.asarray(3),
            np.zeros((0, 4)),
            np.array([[True, False], [False, True]]),
            np.arange(-3, 4, dtype=np.int64),
            np.random.default_rng(0).normal(size=(3, 4, 5)),
        ],
        ids=["0-d", "empty", "bool", "int64", "3-D float64"],
    )
    def test_member_bytes_match_write_array(self, array):
        def member(write):
            buffer = io.BytesIO()
            with zipfile.ZipFile(buffer, "w") as archive:
                write(archive)
            with zipfile.ZipFile(buffer) as archive:
                return archive.read("x.npy")

        def reference(archive):
            with archive.open("x.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)

        assert member(lambda archive: _write_member(archive, "x", array)) == member(reference)

    @pytest.fixture()
    def two_subject_file(self, tiny_pipeline, tiny_session, tiny_session_2, tmp_path):
        """An epochs archive of the two TINY subjects, as the CLI writes it."""
        second = run_pipeline(tiny_session_2, PreprocessConfig())
        ratings = {}
        for session in (tiny_session, tiny_session_2):
            ratings.update({(session.subject_id, s): r for s, r in session.ratings.items()})
        path = tmp_path / "epochs.npz"
        save_epochs(
            path,
            EpochsFile(
                epochs=(*tiny_pipeline.epochs, *second.epochs),
                masks={1: tiny_pipeline.channel_mask, 2: second.channel_mask},
                ratings=ratings,
                sample_rate_hz=FS,
            ),
        )
        return path

    def test_writer_refuses_masks_of_a_subject_without_epochs(
        self, tiny_pipeline, tiny_session, tmp_path
    ):
        """save_epochs cannot write an archive that load_epochs would refuse,
        nor one with ratings of a subject without epochs."""
        sid = tiny_session.subject_id
        ef = self.make_file(tiny_pipeline, tiny_session)
        orphans = [
            (
                dataclasses.replace(ef, masks={**ef.masks, sid + 1: tiny_pipeline.channel_mask}),
                f"channel masks for subjects [{sid}, {sid + 1}] but epochs for subjects [{sid}]",
            ),
            (
                dataclasses.replace(ef, ratings={**ef.ratings, (sid + 1, 1): (3, 3)}),
                f"ratings for subjects [{sid}, {sid + 1}] but epochs for subjects [{sid}]",
            ),
        ]
        path = tmp_path / "epochs.npz"
        for orphan, message in orphans:
            with pytest.raises(PipelineError, match=re.escape(message)):
                save_epochs(path, orphan)
            assert not path.exists()

    def test_writer_refuses_a_subject_added_twice(self, tiny_pipeline, tiny_session, tmp_path):
        path = tmp_path / "epochs.npz"
        sid = tiny_session.subject_id
        with pytest.raises(PipelineError, match=f"subject {sid} was already added"):
            with write_epochs(path) as writer:
                writer.add(tiny_pipeline, tiny_session.ratings)
                writer.add(tiny_pipeline, tiny_session.ratings)
        assert not path.exists()

    def test_writer_refuses_an_empty_batch(self, tmp_path):
        path = tmp_path / "epochs.npz"
        empty = EpochBatch(
            3, np.zeros((0, 8, 2500), dtype=np.float32), np.zeros((0, 8)),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), FS,
            ChannelMask.all_good(8),
        )
        with pytest.raises(PipelineError, match="subject 3 has no epochs to write"):
            with write_epochs(path) as writer:
                writer.add(empty, {})
        assert not path.exists()

    def test_writer_refuses_a_float64_batch(self, tiny_pipeline, tiny_session, tmp_path):
        batch = dataclasses.replace(tiny_pipeline, data=tiny_pipeline.data.astype(np.float64))
        path = tmp_path / "epochs.npz"
        message = f"subject {batch.subject_id} epochs are float64, not float32"
        with pytest.raises(PipelineError, match=message):
            with write_epochs(path) as writer:
                writer.add(batch, tiny_session.ratings)
        assert list(tmp_path.iterdir()) == []

    def test_writer_refuses_a_value_float32_cannot_hold(self, tiny_pipeline, tiny_session, tmp_path):
        ef = self.make_file(tiny_pipeline, tiny_session)
        epochs = list(ef.epochs)
        data = epochs[1].data.copy()
        # one float64 step off a float32 value
        data[2, 3] = np.nextafter(data[2, 3], np.inf)
        epochs[1] = epochs[1].with_data(data)
        path = tmp_path / "epochs.npz"
        message = f"subject {tiny_session.subject_id} epoch 1 holds values that float32 cannot store exactly"
        with pytest.raises(PipelineError, match=message):
            save_epochs(path, dataclasses.replace(ef, epochs=tuple(epochs)))
        assert list(tmp_path.iterdir()) == []

    def test_data_members_are_little_endian_float32(self, two_subject_file, tiny_config):
        """Each data_<subject> member is a .npy 1.0 header and 4 bytes for
        each of the subject's E x C x S samples."""
        n_epochs = tiny_config.n_songs * tiny_config.song_seconds // PreprocessConfig().epoch_seconds
        n_samples = PreprocessConfig().epoch_seconds * tiny_config.sample_rate_hz
        with zipfile.ZipFile(two_subject_file) as archive:
            for sid in (1, 2):
                info = archive.getinfo(f"data_{sid}.npy")
                with archive.open(info) as fh:
                    version = np.lib.format.read_magic(fh)
                    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
                    header_bytes = fh.tell()
                assert (version, fortran_order, dtype.str) == ((1, 0), False, "<f4")
                assert shape == (n_epochs, tiny_config.n_channels, n_samples)
                assert info.file_size == header_bytes + 4 * n_epochs * tiny_config.n_channels * n_samples

    def test_streamed_epochs_equal_each_member(self, two_subject_file):
        with EpochsReader(two_subject_file) as reader:
            streamed = list(reader.epochs())
        with np.load(two_subject_file) as archive:
            assert archive["subjects"].tolist() == [1, 2]
            records = {
                sid: {name: archive[f"{name}_{sid}"] for name in ("data", "baseline_mean", "labels")}
                for sid in (1, 2)
            }
        assert [ep.subject_id for ep in streamed] == [sid for sid in (1, 2) for _ in records[sid]["data"]]
        at = {1: 0, 2: 0}
        for ep in streamed:
            record, i = records[ep.subject_id], at[ep.subject_id]
            assert np.array_equal(ep.data, record["data"][i])
            assert np.array_equal(ep.baseline_mean, record["baseline_mean"][i])
            assert [ep.song_id, ep.epoch_index] == record["labels"][i].tolist()
            at[ep.subject_id] += 1
        assert at == {sid: len(record["data"]) for sid, record in records.items()}
        # each epoch is its own array, not a view of a subject's batch
        assert all(ep.data.base is None for ep in streamed)

    def test_flipped_byte_in_a_data_member_fails_its_crc(self, two_subject_file):
        path = two_subject_file
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("data_1.npy")
        blob = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack("<HH", blob[info.header_offset + 26 : info.header_offset + 30])
        blob[info.header_offset + 30 + name_len + extra_len + info.file_size // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with EpochsReader(path) as reader:
            with pytest.raises(PipelineError, match=re.escape(f"{path}: not a readable epochs archive")) as err:
                list(reader.epochs())
        assert "CRC" in str(err.value)

    @pytest.mark.parametrize(
        "member, damage, message",
        [
            ("data_1", lambda data: data[:-1], r"data_1 has shape \(\d+, 8, 2500\) and baseline_mean_1 \(\d+, 8\), where"),
            ("data_1", lambda data: data[:, :-1], r"data_1 has shape \(\d+, 7, 2500\) and baseline_mean_1"),
            ("data_1", lambda data: data[0], "data_1 has shape"),
            ("data_1", lambda data: data.astype(np.float64), "data_1 holds float64 in C order"),
            ("data_1", np.asfortranarray, "data_1 holds float32 in Fortran order"),
            ("labels_1", lambda labels: labels[:-1], r"data_1 has shape .* give \(epochs, channels\) \(\d+, 8\)"),
            ("labels_1", lambda labels: labels[:, 0], r"labels_1 has shape \(\d+,\), not \(rows, 2\)"),
            ("baseline_mean_1", lambda offsets: offsets[:-1], "data_1 has shape"),
            ("mask_1", lambda flags: flags[:-1], r"data_1 has shape .* give \(epochs, channels\) \(\d+, 7\)"),
        ],
        ids=[
            "epochs", "channels", "2-D", "float64", "fortran",
            "labels", "labels-1-D", "baseline_mean", "mask",
        ],
    )
    def test_data_member_at_odds_with_the_per_epoch_arrays_is_refused(
        self, two_subject_file, member, damage, message
    ):
        path = two_subject_file
        with np.load(path) as archive:
            payload = dict(archive)
        payload[member] = damage(payload[member])
        np.savez(path, **payload)
        with EpochsReader(path) as reader:
            with pytest.raises(PipelineError, match=f"{re.escape(str(path))}: " + message):
                list(reader.epochs())
