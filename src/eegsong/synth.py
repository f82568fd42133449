"""Protocol-faithful synthetic session generation and the on-disk session format.

Timeline per subject: lead silence, then each song followed by a short silence
(the rating period), except the last song which runs straight into the trail
silence. Markers are emitted at every transition.

Signal model per channel: 1/f background noise, a 50 Hz mains sinusoid, and
during songs a song-specific 5-band noise signature whose per-band amplitudes
are a permutation-derived profile scaled by class_separation and by a per-
(subject, song) gain. Enjoyment ratings are the within-subject quantile of
that gain, so enjoyment is positively (Kendall) associated with signature
strength by construction. A few channels are replaced outright by
high-variance noise so bad-channel rejection has something to find.

Random streams: every draw comes from a numpy PCG64 generator seeded from
``seeds = SeedSequence([config.seed, subject_id])``, so identical inputs
produce bit-identical sessions.

- The subject stream ``default_rng(seeds)`` draws the channel gains, the bad
  channels, the song gains, familiarity and the mains phases, in that order.
- ``row_seeds = seeds.spawn(n_channels)``: row r's 1/f background, or a bad
  row's white noise, comes from ``default_rng(row_seeds[r])``.
- Song s's signature on row r comes from
  ``default_rng(row_seeds[r].spawn(n_songs)[s - 1])``.

So each row is built whole, and one song's signature on one row can be made
alone.  A new kind of draw takes a new child stream, never more draws from an
existing one, so sessions that do not use it stay bit-identical.  A change to
what an existing stream draws changes every session: raise
GENERATOR_VERSION, which the manifest records and SessionReader checks.

On-disk layout (per subject): ``subject_<id>/manifest.txt`` (plain-text
key: value header, generator_version first, plus rating lines),
``subject_<id>/samples.f32``
(channel-major little-endian float32), ``subject_<id>/events.csv``.
SessionReader opens a session, manifest and events, and reads its samples
one channel row's span at a time into a reused buffer, so preprocess holds
no session-sized array.  read_session reads every row through it into one
float32 array, as stored.

Each channel row is built whole into one reused float64 row and cast to
float32.  write_generated_session, which the generate stage runs, writes each
cast row to samples.f32 at once, so it holds no session-sized array: only that
row and a few row-sized scratch arrays.  generate_session casts the same rows
into one float32 session array, for callers that want it in memory, so a
generated session holds the bits that read_session reads back from its files.
"""

from __future__ import annotations

import csv
import itertools
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .config import GeneratorConfig
from .core import EEG_BAND_EDGES, EventMarker, SessionRecording, atomic_write

# The stream layout and signal model that sessions are written with; see the
# module docstring.  Sessions that record another version are refused.
GENERATOR_VERSION = 2

# Baseline amplitude of the 1/f background, microvolts RMS per channel.
BACKGROUND_RMS_UV = 10.0

# The background's 1/f shaping stops below this frequency: infra-slow drift
# would make same-song epochs (adjacent in time) resemble each other even with
# no planted signature, which is a label leak, and real acquisition filters
# remove it anyway.
BACKGROUND_HIGHPASS_HZ = 0.5

# Signature RMS at class_separation = 1 and unit gain, microvolts.
SIGNATURE_RMS_UV = 6.0

# Bad channel k is white noise at BACKGROUND_RMS_UV * BAD_CHANNEL_SCALE_BASE * 4**k.
# Amplitudes are graded so the worst offender clears a z-score threshold of 5
# even when several planted channels deflate each other's z-scores, yet stay
# small enough that they do not drown the common average when re-referencing
# runs before rejection.
BAD_CHANNEL_SCALE_BASE = 4.0

_SIGNATURE_BASE_PROFILE = np.linspace(0.2, 1.4, 5)


class SessionFormatError(ValueError):
    """On-disk session data is missing, truncated, or malformed."""


def song_band_profile(song_id: int, n_songs: int) -> np.ndarray:
    """Distinct 5-band amplitude profile for a song: a fixed permutation of a
    base ramp, spread evenly through the 120 permutations of 5 elements."""
    perms = list(itertools.permutations(range(5)))
    idx = ((song_id - 1) * (len(perms) // max(n_songs, 1))) % len(perms)
    return _SIGNATURE_BASE_PROFILE[list(perms[idx])]


def _pink_gain(n_samples: int, sample_rate_hz: int) -> np.ndarray:
    """Per-bin gain of the 1/f background: 1/sqrt(k) at DFT bin k, so power
    falls as 1/f, and 0 below BACKGROUND_HIGHPASS_HZ, so distant windows of
    the same recording are uncorrelated."""
    gain = np.zeros(n_samples // 2 + 1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
    k = np.flatnonzero(freqs >= BACKGROUND_HIGHPASS_HZ)
    gain[k] = 1.0 / np.sqrt(k)
    return gain


def _band_envelope(freqs: np.ndarray, profile: np.ndarray) -> np.ndarray:
    env = np.zeros_like(freqs)
    for (name, lo, hi), amp in zip(EEG_BAND_EDGES, profile):
        env[(freqs >= lo) & (freqs < hi)] = amp
    return env


def _shaped_noise(
    rng: np.random.Generator, out: np.ndarray, gain: np.ndarray, spec: np.ndarray
) -> None:
    """Fill out with white noise from rng shaped by a per-bin gain: its rfft
    into spec (len(gain) complex bins) times gain, transformed back into out
    and scaled to unit RMS.  Both gains are 0 at bin 0, so the mean is 0."""
    rng.standard_normal(out=out)
    np.fft.rfft(out, out=spec)
    spec *= gain
    np.fft.irfft(spec, n=out.size, out=out)
    std = out.std()
    out /= std if std != 0 else 1.0


def _session_rows(
    config: GeneratorConfig, subject_id: int
) -> tuple[tuple[EventMarker, ...], dict[int, tuple[int, int]], Iterator[np.ndarray]]:
    """One subject's session as its markers, its ratings and an iterator that
    builds its channel rows in order, each whole into one float64 row buffer
    that the next row overwrites.  The subject stream is drawn here; the row
    buffer and the row-sized scratch are made on the first row."""
    if subject_id < 0:
        raise ValueError("subject_id must be non-negative")
    fs = config.sample_rate_hz
    n_total = config.session_samples
    seeds = np.random.SeedSequence([config.seed, subject_id])
    rng = np.random.default_rng(seeds)
    channel_gains = rng.uniform(0.8, 1.2, config.n_channels)
    bad_channels = np.sort(
        rng.choice(config.n_channels, size=config.n_bad_channels, replace=False)
    )
    song_gains = rng.uniform(0.5, 1.5, config.n_songs)
    familiarity = rng.integers(1, 6, config.n_songs)
    line_phases = rng.uniform(0.0, 2.0 * np.pi, config.n_channels)
    row_seeds = seeds.spawn(config.n_channels)

    markers: list[EventMarker] = [
        EventMarker("beep_single", 0),
        EventMarker("silence_start", 0),
    ]
    song_len = config.song_seconds * fs
    gap_len = config.inter_song_silence_seconds * fs
    pos = config.lead_silence_seconds * fs
    song_starts = []
    for s in range(1, config.n_songs + 1):
        end = pos + song_len
        song_starts.append(pos)
        markers.append(EventMarker("song_start", pos, song_id=s))
        markers.append(EventMarker("song_end", end, song_id=s))
        markers.append(EventMarker("beep_double", end))
        markers.append(EventMarker("rating_screen", end))
        markers.append(EventMarker("silence_start", end))
        pos = end + (gap_len if s < config.n_songs else 0)

    # Enjoyment = within-subject quantile of the signature gain (1-5).
    order = np.argsort(song_gains)
    rank = np.empty(config.n_songs, dtype=np.int64)
    rank[order] = np.arange(config.n_songs)
    enjoyment = 1 + (rank * 5) // config.n_songs
    ratings = {
        s: (int(enjoyment[s - 1]), int(familiarity[s - 1]))
        for s in range(1, config.n_songs + 1)
    }

    def rows() -> Iterator[np.ndarray]:
        bad_scales = {
            int(ch): BACKGROUND_RMS_UV * BAD_CHANNEL_SCALE_BASE * 4.0**k
            for k, ch in enumerate(bad_channels)
        }
        pink = _pink_gain(n_total, fs)
        song_freqs = np.fft.rfftfreq(song_len, d=1.0 / fs)
        envelopes = [
            _band_envelope(song_freqs, song_band_profile(s, config.n_songs))
            for s in range(1, config.n_songs + 1)
        ]
        # The row and the scratch that every row reuses.
        row = np.empty(n_total)
        spec = np.empty(pink.shape, dtype=np.complex128)
        signature = np.empty(song_len)
        song_spec = np.empty(song_freqs.shape, dtype=np.complex128)
        for ch, row_seed in enumerate(row_seeds):
            row_rng = np.random.default_rng(row_seed)
            if ch in bad_scales:
                row_rng.standard_normal(out=row)
                row *= bad_scales[ch]
                yield row
                continue
            _shaped_noise(row_rng, row, pink, spec)
            row *= BACKGROUND_RMS_UV
            # the mains line, one song-length slice at a time in signature
            for start in range(0, n_total, song_len):
                stop = min(start + song_len, n_total)
                line = signature[: stop - start]
                np.divide(np.arange(start, stop), fs, out=line)
                line *= 2.0 * np.pi * 50.0
                line += line_phases[ch]
                np.sin(line, out=line)
                line *= config.line_noise_amplitude_uv
                row[start:stop] += line
            song_seeds = row_seed.spawn(config.n_songs)
            for start, envelope, gain, song_seed in zip(song_starts, envelopes, song_gains, song_seeds):
                _shaped_noise(np.random.default_rng(song_seed), signature, envelope, song_spec)
                signature *= SIGNATURE_RMS_UV * config.class_separation * gain * channel_gains[ch]
                row[start : start + song_len] += signature
            yield row

    return tuple(markers), ratings, rows()


def generate_session(config: GeneratorConfig, subject_id: int) -> SessionRecording:
    """Generate one subject's session in memory, with the float32 samples
    that write_generated_session writes. Pure in (config, subject_id)."""
    markers, ratings, rows = _session_rows(config, subject_id)
    samples = np.empty((config.n_channels, config.session_samples), dtype="<f4")
    for out, row in zip(samples, rows):
        np.copyto(out, row)
    return SessionRecording(
        subject_id=subject_id,
        sample_rate_hz=config.sample_rate_hz,
        samples=samples,
        markers=markers,
        ratings=ratings,
    )


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"
SAMPLES_NAME = "samples.f32"
EVENTS_NAME = "events.csv"


def session_dir_name(subject_id: int) -> str:
    return f"subject_{subject_id}"


def _write_session_files(
    directory: str | Path,
    subject_id: int,
    sample_rate_hz: int,
    shape: tuple[int, int],
    ratings: dict[int, tuple[int, int]],
    rows: Iterable[np.ndarray],
    markers: Iterable[EventMarker],
) -> Path:
    """Write manifest.txt, then samples.f32 from rows, the shape's channel
    rows in order, then events.csv, each through core.atomic_write; returns
    the manifest path.  Each row is cast into one reused float32 buffer and
    written before the next is taken, so a failing row leaves no samples
    file."""
    root = Path(directory) / session_dir_name(subject_id)
    n_channels, n_samples = shape

    lines = [
        f"generator_version: {GENERATOR_VERSION}",
        f"subject_id: {subject_id}",
        f"sample_rate_hz: {sample_rate_hz}",
        f"n_channels: {n_channels}",
        f"n_samples: {n_samples}",
    ]
    for song in sorted(ratings):
        enjoy, familiar = ratings[song]
        lines.append(f"rating,{song},{enjoy},{familiar}")
    manifest = root / MANIFEST_NAME
    with atomic_write(manifest) as tmp:
        tmp.write_text("\n".join(lines) + "\n")

    cast = np.empty(n_samples, dtype="<f4")
    with atomic_write(root / SAMPLES_NAME) as tmp, open(tmp, "wb") as f:
        for row in rows:
            np.copyto(cast, row)
            cast.tofile(f)

    with atomic_write(root / EVENTS_NAME) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_index", "kind", "song_id"])
        for m in markers:
            writer.writerow(
                [m.sample_index, m.kind, "" if m.song_id is None else m.song_id]
            )
    return manifest


def write_session(session: SessionRecording, directory: str | Path) -> Path:
    """Write a session held in memory as manifest, raw float32 samples and
    events CSV; returns the manifest path."""
    return _write_session_files(
        directory,
        session.subject_id,
        session.sample_rate_hz,
        session.samples.shape,
        session.ratings,
        session.samples,
        session.markers,
    )


def write_generated_session(
    config: GeneratorConfig, subject_id: int, directory: str | Path
) -> Path:
    """Generate one subject's session straight to disk, each channel row
    written as soon as it is built: the same files as
    write_session(generate_session(config, subject_id), directory), without
    the session in memory.  Returns the manifest path."""
    markers, ratings, rows = _session_rows(config, subject_id)
    return _write_session_files(
        directory,
        subject_id,
        config.sample_rate_hz,
        (config.n_channels, config.session_samples),
        ratings,
        rows,
        markers,
    )


def parse_manifest(path: Path) -> tuple[dict[str, int], dict[int, tuple[int, int]]]:
    """The header and ratings of a manifest written by write_session; a
    SessionFormatError for a malformed one or one that another
    GENERATOR_VERSION wrote."""
    header: dict[str, int] = {}
    ratings: dict[int, tuple[int, int]] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("rating,"):
            parts = line.split(",")
            if len(parts) != 4:
                raise SessionFormatError(
                    f"{path}:{lineno}: rating line needs 4 fields, got {len(parts)}"
                )
            try:
                song, enjoy, familiar = (int(p) for p in parts[1:])
            except ValueError as e:
                raise SessionFormatError(f"{path}:{lineno}: {e}") from None
            ratings[song] = (enjoy, familiar)
        elif ":" in line:
            key, _, value = line.partition(":")
            try:
                header[key.strip()] = int(value)
            except ValueError:
                raise SessionFormatError(
                    f"{path}:{lineno}: non-integer value for {key.strip()!r}"
                ) from None
        else:
            raise SessionFormatError(f"{path}:{lineno}: unparseable line {line!r}")
    version = header.get("generator_version")
    if version != GENERATOR_VERSION:
        made_by = "no generator_version" if version is None else f"generator_version {version}"
        raise SessionFormatError(
            f"{path}: written with {made_by}, but this generator is version "
            f"{GENERATOR_VERSION}; run `generate` again"
        )
    for key in ("subject_id", "sample_rate_hz", "n_channels", "n_samples"):
        if key not in header:
            raise SessionFormatError(f"{path}: missing manifest key {key!r}")
    return header, ratings


def _parse_events(path: Path) -> tuple[EventMarker, ...]:
    markers: list[EventMarker] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            head = next(reader)
        except StopIteration:
            raise SessionFormatError(f"{path}: empty events file") from None
        if head != ["sample_index", "kind", "song_id"]:
            raise SessionFormatError(f"{path}: bad events header {head!r}")
        for row_number, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise SessionFormatError(
                    f"{path}: row {row_number}: expected 3 fields, got {len(row)}"
                )
            idx_str, kind, song_str = row
            try:
                idx = int(idx_str)
                song = int(song_str) if song_str != "" else None
            except ValueError as e:
                raise SessionFormatError(f"{path}: row {row_number}: {e}") from None
            try:
                markers.append(EventMarker(kind=kind, sample_index=idx, song_id=song))
            except ValueError as e:
                raise SessionFormatError(f"{path}: row {row_number}: {e}") from None
    return tuple(markers)


class SessionReader:
    """A session written by write_session, open for reading.  The manifest
    and events are read on opening, after the samples file's length is
    checked against the manifest; the samples are read one channel row's
    span at a time.  It has the sample_rate_hz, n_channels, n_samples,
    markers and ratings of a SessionRecording, so validate_session takes
    it.  Close it, or use it as a context manager."""

    def __init__(self, manifest_path: str | Path):
        manifest_path = Path(manifest_path)
        if not manifest_path.exists():
            raise FileNotFoundError(manifest_path)
        root = manifest_path.parent
        header, self.ratings = parse_manifest(manifest_path)
        self.subject_id = header["subject_id"]
        self.sample_rate_hz = header["sample_rate_hz"]
        self.n_channels = header["n_channels"]
        self.n_samples = header["n_samples"]

        self.path = root / SAMPLES_NAME
        if not self.path.exists():
            raise FileNotFoundError(self.path)
        expected = self.n_channels * self.n_samples * 4
        size = self.path.stat().st_size
        if size != expected:
            raise SessionFormatError(
                f"{self.path}: length mismatch: expected {expected} bytes "
                f"({self.n_channels} channels x {self.n_samples} samples "
                f"x 4), got {size}"
            )

        events_path = root / EVENTS_NAME
        if not events_path.exists():
            raise FileNotFoundError(events_path)
        self.markers = _parse_events(events_path)
        self._file = open(self.path, "rb", buffering=0)
        self._row = np.empty(0, dtype="<f4")

    def read_into(self, channel: int, start: int, out: np.ndarray) -> None:
        """Read samples[channel, start:start + len(out)] into out, a 1-D
        C-contiguous float32 array.  A read that ends short, because the
        file shrank after opening, raises SessionFormatError."""
        if not (0 <= channel < self.n_channels and 0 <= start <= self.n_samples - len(out)):
            raise IndexError(
                f"channel {channel} samples [{start}, {start + len(out)}) out of "
                f"range for {self.n_channels} channels x {self.n_samples} samples"
            )
        offset = (channel * self.n_samples + start) * 4
        self._file.seek(offset)
        view = memoryview(out.view(np.uint8))
        got = 0
        while got < len(view):
            n = self._file.readinto(view[got:])
            if not n:
                raise SessionFormatError(
                    f"{self.path}: short read: expected {len(view)} bytes at "
                    f"offset {offset}, got {got}"
                )
            got += n

    def row(self, channel: int, start: int, end: int) -> np.ndarray:
        """samples[channel, start:end] as float32, read into a buffer that
        the next call overwrites."""
        if end < start:
            raise IndexError(f"samples [{start}, {end}) end before they start")
        if self._row.size < end - start:
            self._row = np.empty(end - start, dtype="<f4")
        out = self._row[: end - start]
        self.read_into(channel, start, out)
        return out

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> SessionReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_session(manifest_path: str | Path) -> SessionRecording:
    """Read a session written by write_session, every row through a
    SessionReader.

    The samples are kept as stored, one read-only float32 array, so a
    session read back equals the session written.
    """
    with SessionReader(manifest_path) as reader:
        samples = np.empty((reader.n_channels, reader.n_samples), dtype="<f4")
        for channel, row in enumerate(samples):
            reader.read_into(channel, 0, row)
    return SessionRecording(
        subject_id=reader.subject_id,
        sample_rate_hz=reader.sample_rate_hz,
        samples=samples,
        markers=reader.markers,
        ratings=reader.ratings,
    )
