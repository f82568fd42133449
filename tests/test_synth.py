"""Synthetic session generator and the on-disk session format."""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from conftest import LONG_SESSION_GENERATOR, TINY

from eegsong import GeneratorConfig, generate_session
from eegsong.core import BASELINE_SECONDS
from eegsong import synth
from eegsong.preprocess import PreprocessConfig, _capture, run_pipeline
from eegsong.synth import (
    BACKGROUND_RMS_UV,
    BAD_CHANNEL_SCALE_BASE,
    SessionFormatError,
    SessionReader,
    read_session,
    session_dir_name,
    song_band_profile,
    write_session,
)


def test_default_config_session_length():
    # lead + 12 songs + 11 gaps + trail, all at 250 Hz
    cfg = GeneratorConfig()
    seconds = 120 + 12 * 120 + 11 * 10 + 120
    assert cfg.session_seconds == seconds
    assert cfg.session_samples == seconds * 250 == 447500


def test_generated_length_matches_config(tiny_session, tiny_config):
    assert tiny_session.n_samples == tiny_config.session_samples
    assert tiny_session.n_channels == tiny_config.n_channels


def test_config_validation():
    with pytest.raises(ValueError, match="must be positive"):
        GeneratorConfig(n_songs=0)
    with pytest.raises(ValueError, match="class_separation"):
        GeneratorConfig(class_separation=-0.1)
    with pytest.raises(ValueError, match="clean channel"):
        GeneratorConfig(n_channels=4, n_bad_channels=4)
    with pytest.raises(ValueError, match="seed"):
        GeneratorConfig(seed=-1)


@pytest.mark.parametrize("n_songs", [121, 200])
def test_more_songs_than_band_profiles_rejected(n_songs):
    # past 5! = 120 songs, song_band_profile would give every song one profile
    with pytest.raises(ValueError, match=f"n_songs must be at most 120.*got {n_songs}"):
        GeneratorConfig(n_songs=n_songs)


def test_sample_rate_outside_expected_rates_rejected():
    # validate_session would refuse the sessions at ingest
    with pytest.raises(ValueError, match="sample_rate_hz must be one of"):
        GeneratorConfig(sample_rate_hz=500)
    GeneratorConfig(sample_rate_hz=1000)


@pytest.mark.parametrize("name", ["lead_silence_seconds", "inter_song_silence_seconds"])
def test_silence_shorter_than_baseline_rejected(name):
    # the pre-song baseline would reach back into the previous song
    with pytest.raises(ValueError, match=f"{name} must be >= the {BASELINE_SECONDS} s"):
        GeneratorConfig(**{name: BASELINE_SECONDS - 1})
    GeneratorConfig(**{name: BASELINE_SECONDS})


def test_determinism_bitwise(tiny_config):
    a = generate_session(tiny_config, subject_id=1)
    b = generate_session(tiny_config, subject_id=1)
    assert np.array_equal(a.samples, b.samples)
    assert a.markers == b.markers
    assert a.ratings == b.ratings


def _whole_array_pink_noise(rng, n_channels, n_samples, sample_rate_hz):
    """The background as one (n_channels, n_samples) draw and transform."""
    white = rng.standard_normal((n_channels, n_samples))
    spec = np.fft.rfft(white, axis=1)
    k = np.arange(spec.shape[1], dtype=np.float64)
    k[0] = 1.0
    spec /= np.sqrt(k)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
    spec[:, freqs < synth.BACKGROUND_HIGHPASS_HZ] = 0.0
    x = np.fft.irfft(spec, n=n_samples, axis=1)
    x /= x.std(axis=1, keepdims=True)
    return x


@pytest.mark.parametrize("n_samples", [5000, 5001])
@pytest.mark.parametrize("n_channels", [1, 3, 32])
def test_pink_noise_matches_one_whole_array_transform(n_channels, n_samples):
    # row by row, the draws and the arithmetic of each row are those of
    # one whole-array transform; the generator ends in the same state too
    by_row, whole = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(
        synth._pink_noise(by_row, n_channels, n_samples, 250),
        _whole_array_pink_noise(whole, n_channels, n_samples, 250),
    )
    assert by_row.bit_generator.state == whole.bit_generator.state


def _every_row_in_full(config, subject_id):
    """generate_session's samples with every channel's signal built whole
    before the bad channels' rows are overwritten, and the generator it
    drew from."""
    fs, n_total = config.sample_rate_hz, config.session_samples
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, subject_id]))
    channel_gains = rng.uniform(0.8, 1.2, config.n_channels)
    bad_channels = np.sort(rng.choice(config.n_channels, size=config.n_bad_channels, replace=False))
    song_gains = rng.uniform(0.5, 1.5, config.n_songs)
    rng.integers(1, 6, config.n_songs)
    samples = _whole_array_pink_noise(rng, config.n_channels, n_total, fs) * BACKGROUND_RMS_UV
    phases = rng.uniform(0.0, 2.0 * np.pi, config.n_channels)
    mains = 2.0 * np.pi * 50.0 * (np.arange(n_total) / fs)
    samples += np.sin(mains[None, :] + phases[:, None]) * config.line_noise_amplitude_uv
    song_len = config.song_seconds * fs
    for s in range(1, config.n_songs + 1):
        start = (config.lead_silence_seconds + (s - 1) * (
            config.song_seconds + config.inter_song_silence_seconds
        )) * fs
        white = rng.standard_normal((config.n_channels, song_len))
        freqs = np.fft.rfftfreq(song_len, d=1.0 / fs)
        spec = np.fft.rfft(white, axis=1) * synth._band_envelope(
            freqs, song_band_profile(s, config.n_songs)
        )
        x = np.fft.irfft(spec, n=song_len, axis=1)
        std = x.std(axis=1, keepdims=True)
        x /= np.where(std != 0, std, 1.0)
        amp = synth.SIGNATURE_RMS_UV * config.class_separation * song_gains[s - 1] * channel_gains
        samples[:, start : start + song_len] += x * amp[:, None]
    for k, ch in enumerate(bad_channels):
        scale = BACKGROUND_RMS_UV * BAD_CHANNEL_SCALE_BASE * 4.0**k
        samples[ch] = scale * rng.standard_normal(n_total)
    return samples, rng


@pytest.mark.parametrize("n_bad_channels", [1, 3])
def test_bad_channel_rows_skip_only_work_that_is_overwritten(n_bad_channels, monkeypatch):
    """The bad channels' rows only take their draws before they are
    overwritten: the session and the generator's final state are those of
    building every row in full."""
    config = dataclasses.replace(TINY, n_bad_channels=n_bad_channels)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1]
    )
    session = generate_session(config, subject_id=2)
    monkeypatch.undo()
    full, full_rng = _every_row_in_full(config, 2)
    assert np.array_equal(session.samples, full)
    assert made[0].bit_generator.state == full_rng.bit_generator.state


def test_subjects_differ(tiny_session, tiny_session_2):
    assert not np.array_equal(tiny_session.samples, tiny_session_2.samples)


def test_marker_bookkeeping(tiny_session, tiny_config):
    starts = [m for m in tiny_session.markers if m.kind == "song_start"]
    ends = [m for m in tiny_session.markers if m.kind == "song_end"]
    assert len(starts) == len(ends) == tiny_config.n_songs
    song_len = tiny_config.song_seconds * tiny_config.sample_rate_hz
    for s, e in zip(starts, ends):
        assert s.song_id == e.song_id
        assert e.sample_index - s.sample_index == song_len
    # first song begins right after the lead silence
    assert starts[0].sample_index == tiny_config.lead_silence_seconds * tiny_config.sample_rate_hz
    # lead silence is long enough to supply the 10 s baseline
    assert tiny_config.lead_silence_seconds >= BASELINE_SECONDS


def test_ratings_cover_all_songs(tiny_session, tiny_config):
    assert sorted(tiny_session.ratings) == list(range(1, tiny_config.n_songs + 1))
    for enjoy, familiar in tiny_session.ratings.values():
        assert 1 <= enjoy <= 5
        assert 1 <= familiar <= 5


def test_enjoyment_is_a_within_subject_quantile():
    """12 songs ranked into 5 bins gives the fixed multiset {3,2,3,2,2}."""
    cfg = GeneratorConfig(
        n_songs=12,
        song_seconds=10,
        lead_silence_seconds=20,
        trail_silence_seconds=10,
        n_channels=4,
        n_bad_channels=0,
        seed=11,
    )
    session = generate_session(cfg, subject_id=3)
    enjoy = sorted(e for e, _ in session.ratings.values())
    # independent arithmetic: bin sizes of rank*5//12 over ranks 0..11
    sizes = np.bincount(np.arange(12) * 5 // 12, minlength=5)
    expect = [level + 1 for level in range(5) for _ in range(sizes[level])]
    assert enjoy == expect


def test_song_band_profiles_distinct_permutations():
    profiles = [song_band_profile(s, 12) for s in range(1, 13)]
    base = sorted(profiles[0])
    for p in profiles:
        assert sorted(p) == base  # every profile is a permutation of one base
    as_tuples = {tuple(p) for p in profiles}
    assert len(as_tuples) == 12  # and all twelve are distinct


def test_most_songs_get_distinct_band_profiles():
    n_songs = GeneratorConfig(n_songs=120).n_songs
    profiles = {tuple(song_band_profile(s, n_songs)) for s in range(1, n_songs + 1)}
    assert len(profiles) == 120


def test_bad_channels_planted_with_graded_variance():
    cfg = GeneratorConfig(
        n_songs=2,
        song_seconds=20,
        lead_silence_seconds=20,
        trail_silence_seconds=10,
        n_channels=8,
        n_bad_channels=2,
        seed=5,
    )
    session = generate_session(cfg, subject_id=1)
    rms = session.samples.std(axis=1)
    order = np.argsort(rms)
    clean_rms = np.median(rms)
    # two channels sit far above the rest, at ~4x and ~16x background
    worst, second = rms[order[-1]], rms[order[-2]]
    assert second > 2.5 * clean_rms
    assert worst > 10.0 * clean_rms
    assert worst / second == pytest.approx(4.0, rel=0.25)
    assert BAD_CHANNEL_SCALE_BASE * BACKGROUND_RMS_UV == pytest.approx(second, rel=0.3)


def test_background_spectrum_falls_like_one_over_f():
    """Log-log PSD slope of the silent background is steeper than -0.5."""
    cfg = GeneratorConfig(
        n_songs=1,
        song_seconds=10,
        lead_silence_seconds=60,
        trail_silence_seconds=10,
        n_channels=4,
        n_bad_channels=0,
        line_noise_amplitude_uv=0.0,
        seed=2,
    )
    session = generate_session(cfg, subject_id=1)
    fs = cfg.sample_rate_hz
    silence = session.samples[:, : 60 * fs]
    freqs = np.fft.rfftfreq(silence.shape[1], d=1.0 / fs)
    power = np.abs(np.fft.rfft(silence, axis=1)) ** 2
    band = (freqs >= 1.0) & (freqs <= 45.0)
    slope = np.polyfit(np.log10(freqs[band]), np.log10(power[:, band].mean(axis=0)), 1)[0]
    assert slope < -0.5


def test_line_noise_peak_at_50hz():
    cfg = GeneratorConfig(
        n_songs=1,
        song_seconds=10,
        lead_silence_seconds=40,
        trail_silence_seconds=10,
        n_channels=4,
        n_bad_channels=0,
        seed=3,
    )
    session = generate_session(cfg, subject_id=1)
    fs = cfg.sample_rate_hz
    silence = session.samples[:, : 40 * fs]
    freqs = np.fft.rfftfreq(silence.shape[1], d=1.0 / fs)
    amp = np.abs(np.fft.rfft(silence, axis=1)).mean(axis=0)
    at_50 = amp[np.argmin(np.abs(freqs - 50.0))]
    near = amp[(freqs > 46) & (freqs < 49)].mean()
    assert at_50 > 20 * near


def test_zero_separation_songs_indistinguishable():
    """At class_separation=0 a band-power t-test between songs finds nothing;
    at 1.0 the same test rejects loudly."""

    def alpha_power_by_song(sep, seed):
        cfg = GeneratorConfig(
            n_songs=2,
            song_seconds=60,
            lead_silence_seconds=20,
            trail_silence_seconds=10,
            n_channels=4,
            n_bad_channels=0,
            class_separation=sep,
            seed=seed,
        )
        out = {1: [], 2: []}
        for subject in range(1, 5):
            session = generate_session(cfg, subject)
            fs = cfg.sample_rate_hz
            for m in session.markers:
                if m.kind != "song_start":
                    continue
                seg = session.samples[:, m.sample_index : m.sample_index + 60 * fs]
                for k in range(6):  # 10 s epochs
                    window = seg[:, k * 10 * fs : (k + 1) * 10 * fs]
                    spec = np.abs(np.fft.rfft(window, axis=1)) ** 2
                    freqs = np.fft.rfftfreq(window.shape[1], 1.0 / fs)
                    sel = (freqs >= 8) & (freqs < 13)
                    out[m.song_id].append(spec[:, sel].mean())
        return out

    null = alpha_power_by_song(0.0, seed=17)
    _, p_null = stats.ttest_ind(null[1], null[2])
    assert p_null > 0.01

    separated = alpha_power_by_song(1.0, seed=17)
    _, p_sep = stats.ttest_ind(separated[1], separated[2])
    assert p_sep < 1e-3


class TestOnDiskFormat:
    def test_round_trip(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        assert manifest == tmp_path / session_dir_name(1) / "manifest.txt"
        back = read_session(manifest)
        assert back.subject_id == tiny_session.subject_id
        assert back.sample_rate_hz == tiny_session.sample_rate_hz
        assert back.markers == tiny_session.markers
        assert back.ratings == tiny_session.ratings
        # samples pass through float32 quantization, nothing more
        assert np.array_equal(back.samples, tiny_session.samples.astype("<f4").astype(np.float64))

    def test_samples_file_is_the_float32_cast_of_the_session(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        expected = tiny_session.samples.astype("<f4").tobytes()
        assert (manifest.parent / "samples.f32").read_bytes() == expected

    def test_samples_are_read_as_stored(self, tiny_session, tmp_path):
        back = read_session(write_session(tiny_session, tmp_path))
        assert back.samples.dtype == np.float32
        assert back.samples.shape == tiny_session.samples.shape
        assert not back.samples.flags.writeable

    def test_capture_of_a_read_session_matches_its_float64_cast(self, tiny_session, tmp_path):
        back = read_session(write_session(tiny_session, tmp_path))
        cast = dataclasses.replace(back, samples=back.samples.astype(np.float64))
        assert cast.samples.dtype == np.float64
        for a, b in zip(_capture(back, 10), _capture(cast, 10)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_session(tmp_path / "subject_9" / "manifest.txt")

    def test_truncated_binary_names_byte_counts(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        bin_path = manifest.parent / "samples.f32"
        blob = bin_path.read_bytes()
        bin_path.write_bytes(blob[:-8])
        with pytest.raises(SessionFormatError, match="length mismatch") as err:
            read_session(manifest)
        assert str(len(blob)) in str(err.value)  # expected byte count is named
        assert str(len(blob) - 8) in str(err.value)  # actual too

    def test_song_id_on_beep_row_cites_row_number(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        events = manifest.parent / "events.csv"
        lines = events.read_text().splitlines()
        # row 2 is the beep_single marker; graft a song_id onto it
        assert lines[1].split(",")[1] == "beep_single"
        lines[1] = lines[1].rsplit(",", 1)[0] + ",4"
        events.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError, match="row 2"):
            read_session(manifest)

    def test_malformed_manifest_line(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        manifest.write_text(manifest.read_text() + "what is this\n")
        with pytest.raises(SessionFormatError, match="unparseable"):
            read_session(manifest)

    def test_missing_manifest_key(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        text = "\n".join(
            l for l in manifest.read_text().splitlines() if not l.startswith("n_samples")
        )
        manifest.write_text(text + "\n")
        with pytest.raises(SessionFormatError, match="n_samples"):
            read_session(manifest)

    def test_bad_events_header(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        events = manifest.parent / "events.csv"
        lines = events.read_text().splitlines()
        lines[0] = "a,b,c"
        events.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError, match="header"):
            read_session(manifest)

    def test_write_failing_part_way_leaves_no_partial_file(self, tiny_session, tmp_path, monkeypatch):
        """An events write that raises after its first rows leaves events.csv
        as it was before (absent, or the complete older copy) and no
        temporary file."""
        clean = write_session(tiny_session, tmp_path / "clean").parent
        rewritten = write_session(tiny_session, tmp_path / "rewritten").parent
        real_writer = synth.csv.writer

        def failing_writer(fh):
            rows = real_writer(fh)

            def writerow(row):
                rows.writerow(row)
                if row[1] == "song_start":
                    raise OSError("disk full")

            return SimpleNamespace(writerow=writerow)

        monkeypatch.setattr(synth.csv, "writer", failing_writer)
        for directory in (tmp_path / "fresh", tmp_path / "rewritten"):
            with pytest.raises(OSError, match="disk full"):
                write_session(tiny_session, directory)
        fresh = tmp_path / "fresh" / session_dir_name(1)
        assert sorted(p.name for p in fresh.iterdir()) == ["manifest.txt", "samples.f32"]
        assert sorted(p.name for p in rewritten.iterdir()) == sorted(p.name for p in clean.iterdir())
        for name in ("manifest.txt", "samples.f32", "events.csv"):
            assert (rewritten / name).read_bytes() == (clean / name).read_bytes(), name
            if name != "events.csv":
                assert (fresh / name).read_bytes() == (clean / name).read_bytes(), name


def _whole_window_capture(session, epoch_seconds):
    """_capture's arithmetic on whole song windows, as a reference: every
    channel's song cast at once, and the baseline offsets as the mean over
    axis 1 of the float64 baseline window."""
    fs = session.sample_rate_hz
    epoch_len, baseline_len = epoch_seconds * fs, BASELINE_SECONDS * fs
    ends = {m.song_id: m.sample_index for m in session.markers if m.kind == "song_end"}
    parts = []
    for m in session.markers:
        if m.kind != "song_start":
            continue
        s, e = m.sample_index, ends[m.song_id]
        n = (e - s) // epoch_len
        song = session.samples[:, s:e].reshape(session.n_channels, n, epoch_len)
        baseline = session.samples[:, s - baseline_len : s].astype(np.float64).mean(axis=1)
        parts.append((
            song.transpose(1, 0, 2).astype(np.float64),
            np.tile(baseline, (n, 1)),
            np.full(n, m.song_id),
            np.arange(n),
        ))
    return tuple(np.concatenate(column) for column in zip(*parts))


class TestSessionReader:
    @pytest.mark.parametrize(
        "config",
        [TINY, GeneratorConfig(**LONG_SESSION_GENERATOR)],
        ids=["tiny", "long_session"],
    )
    def test_capture_from_the_file_equals_capture_from_read_session(self, config, tmp_path):
        manifest = write_session(generate_session(config, 1), tmp_path)
        back = read_session(manifest)
        from_memory = _capture(back, 10)
        with SessionReader(manifest) as reader:
            from_file = _capture(reader, 10)
        reference = _whole_window_capture(back, 10)
        for got, want, ref in zip(from_file, from_memory, reference):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(got, ref)

    def test_pipeline_on_the_file_equals_pipeline_on_read_session(self, tmp_path):
        """The CLI's path (run_pipeline on an open SessionReader) and the
        library's (run_pipeline on read_session) give the same result."""
        manifest = write_session(generate_session(TINY, 1), tmp_path)
        from_memory = run_pipeline(read_session(manifest), PreprocessConfig())
        with SessionReader(manifest) as reader:
            from_file = run_pipeline(reader, PreprocessConfig())
        for name in ("data", "baseline_mean", "song_id", "epoch_index"):
            assert np.array_equal(getattr(from_file.batch, name), getattr(from_memory.batch, name)), name
        assert from_file.batch.subject_id == from_memory.batch.subject_id
        assert np.array_equal(from_file.channel_mask.good, from_memory.channel_mask.good)
        assert from_file.channel_mask.reasons == from_memory.channel_mask.reasons
        assert from_file.log == from_memory.log

    def test_reads_what_read_session_reads(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        back = read_session(manifest)
        with SessionReader(manifest) as reader:
            assert (reader.subject_id, reader.sample_rate_hz) == (back.subject_id, back.sample_rate_hz)
            assert (reader.n_channels, reader.n_samples) == back.samples.shape
            assert reader.markers == back.markers
            assert reader.ratings == back.ratings
            for channel in (0, back.n_channels - 1):
                row = reader.row(channel, 10, 4000)
                assert row.dtype == np.float32
                assert np.array_equal(row, back.row(channel, 10, 4000))
            with pytest.raises(IndexError):
                reader.row(back.n_channels, 0, 10)
            with pytest.raises(IndexError):
                reader.row(0, back.n_samples - 5, back.n_samples + 5)

    def test_truncated_before_opening_gives_length_mismatch(self, tiny_session, tmp_path):
        manifest = write_session(tiny_session, tmp_path)
        bin_path = manifest.parent / "samples.f32"
        size = bin_path.stat().st_size
        os.truncate(bin_path, size - 4)
        with pytest.raises(SessionFormatError, match="length mismatch") as err:
            SessionReader(manifest)
        assert f"expected {size} bytes" in str(err.value)

    def test_shortened_after_opening_fails_the_capture(self, tiny_session, tmp_path):
        """The length check passes on opening; a capture that then runs into
        the shortened file raises on the short read rather than returning a
        batch with unread rows."""
        manifest = write_session(tiny_session, tmp_path)
        bin_path = manifest.parent / "samples.f32"
        with SessionReader(manifest) as reader:
            os.truncate(bin_path, bin_path.stat().st_size // 2)
            with pytest.raises(SessionFormatError, match=f"{bin_path}: short read"):
                run_pipeline(reader, PreprocessConfig())
