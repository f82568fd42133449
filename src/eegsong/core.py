"""Core domain types: session recordings, event markers, epochs, epoch
batches, channel masks; plus the checked .npz reader and the atomic artifact
write that every stage uses.

All types are immutable after construction (frozen dataclasses; numpy arrays
are flagged read-only), so they can be shared freely across workers.
Signal values are microvolts, held as float64 in memory, except that a session
read whole from disk keeps its float32 samples (see SessionRecording).
"""

from __future__ import annotations

import os
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Marker kinds, in the order they occur in the listening protocol.
MARKER_KINDS = (
    "silence_start",
    "beep_single",
    "song_start",
    "song_end",
    "beep_double",
    "rating_screen",
)

# Kinds that must carry a song_id; all others must not.
SONG_MARKER_KINDS = frozenset({"song_start", "song_end"})

EXPECTED_SAMPLE_RATES = (250, 1000)

BASELINE_SECONDS = 10

# Canonical EEG band edges, (name, low, high) with [low, high) in Hz: the bands
# of the planted song signatures and of the spectral features.
EEG_BAND_EDGES = (
    ("delta", 1.0, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 13.0),
    ("beta", 13.0, 30.0),
    ("gamma", 30.0, 45.0),
)


class PipelineError(Exception):
    """A pipeline stage could not produce a valid result."""


class Archive:
    """A checked .npz archive, open for reading one array at a time."""

    def __init__(self, fh, npz, path, what: str, error: type[Exception]):
        self._fh = fh
        self._npz = npz
        self.path = path
        self.what = what
        self.error = error
        self.files = tuple(npz.files)

    def require(self, names) -> None:
        """Raise error, naming the path, unless the archive holds every name."""
        missing = [name for name in names if name not in self.files]
        if missing:
            raise self.error(
                f"{self.path}: {self.what} archive has no {', '.join(missing)} array"
            )

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._npz[name]
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise self.error(
                f"{self.path}: not a readable {self.what} archive ({exc})"
            ) from exc

    @contextmanager
    def stream(self, name: str) -> Iterator[zipfile.ZipExtFile]:
        """The member name.npy open as a zip stream, header and all.  A zip
        fault, or a ValueError, inside the block raises error naming the
        path, as reading a whole array does; zipfile checks the member's
        CRC once it is read to its end."""
        try:
            with self._npz.zip.open(name + ".npy") as fh:
                yield fh
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise self.error(
                f"{self.path}: not a readable {self.what} archive ({exc})"
            ) from exc

    def close(self) -> None:
        self._npz.close()
        self._fh.close()

    def __enter__(self) -> Archive:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_archive(
    path, what: str, version: int, names: tuple[str, ...], error: type[Exception]
) -> Archive:
    """The .npz archive at path, opened for reading arrays on demand (use it as
    a context manager).  Raises error, naming path, when the file is not a
    readable archive, was written in another format version, or lacks one of
    names; reading an array that turns out damaged raises it too."""
    # opened here: np.load(path) leaves a refused archive's file to the collector
    fh = open(path, "rb")
    try:
        try:
            npz = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise error(f"{path}: not a readable {what} archive ({exc})") from exc
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise error(f"{path}: not a readable {what} archive (a bare array)")
        archive = Archive(fh, npz, path, what, error)
        if "format_version" in archive.files:
            found = int(archive["format_version"])
            if found != version:
                raise error(f"{path}: unsupported {what} format version {found}")
        archive.require(("format_version", *names))
    except BaseException:
        fh.close()
        raise
    return archive


@contextmanager
def atomic_write(path) -> Iterator[Path]:
    """A temporary path beside path to write an artifact to.  It replaces path
    when the block completes and is removed when the block raises, so path
    only ever holds a complete artifact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EventMarker:
    """A protocol event pinned to a sample index.

    song_id is required for song_start/song_end and forbidden otherwise.
    """

    kind: str
    sample_index: int
    song_id: int | None = None

    def __post_init__(self):
        if self.kind not in MARKER_KINDS:
            raise ValueError(f"unknown marker kind {self.kind!r}")
        if self.sample_index < 0:
            raise ValueError(f"negative sample_index {self.sample_index}")
        if self.kind in SONG_MARKER_KINDS:
            if self.song_id is None:
                raise ValueError(f"{self.kind} marker requires a song_id")
        elif self.song_id is not None:
            raise ValueError(f"{self.kind} marker must not carry a song_id")


@dataclass(frozen=True)
class SessionRecording:
    """One subject's full multichannel recording with markers and ratings.

    samples: channels x time, microvolts, read-only.  float32 samples are kept
    as float32, flagged read-only in place rather than copied: synth.read_session
    reads a session as stored, as float32, and a float64 copy beside it would
    double the largest array of a subject.  (preprocess never reads a whole
    session: it reads each song's channel rows through a synth.SessionReader.)
    Samples of any other dtype are copied to float64, as generate_session
    makes them.
    ratings: song_id -> (enjoyment 1-5, familiarity 1-5).
    """

    subject_id: int
    sample_rate_hz: int
    samples: np.ndarray
    markers: tuple[EventMarker, ...]
    ratings: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype == np.float32:
            samples = np.ascontiguousarray(samples)
            samples.flags.writeable = False
        else:
            samples = _freeze(samples)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "markers", tuple(self.markers))
        if self.samples.ndim != 2:
            raise ValueError(
                f"samples must be 2-D channels x time, got shape {self.samples.shape}"
            )

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def row(self, channel: int, start: int, end: int) -> np.ndarray:
        """samples[channel, start:end], a read-only view: the row accessor
        that synth.SessionReader has too."""
        return self.samples[channel, start:end]


@dataclass(frozen=True)
class Epoch:
    """A labeled channels x samples window plus its song's baseline offset:
    per channel, the mean of the BASELINE_SECONDS of silence before onset."""

    subject_id: int
    song_id: int
    epoch_index: int
    data: np.ndarray
    baseline_mean: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data))
        object.__setattr__(self, "baseline_mean", _freeze(self.baseline_mean))
        if self.data.ndim != 2:
            raise ValueError("data must be 2-D channels x samples")
        if self.baseline_mean.shape != (self.data.shape[0],):
            raise ValueError(
                f"baseline_mean must have shape ({self.data.shape[0]},), "
                f"got {self.baseline_mean.shape}"
            )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, new_data: np.ndarray) -> Epoch:
        """New epoch with replaced data, same identity and baseline offset."""
        return Epoch(
            subject_id=self.subject_id,
            song_id=self.song_id,
            epoch_index=self.epoch_index,
            data=new_data,
            baseline_mean=self.baseline_mean,
            sample_rate_hz=self.sample_rate_hz,
        )


@dataclass(frozen=True)
class EpochBatch:
    """One subject's epochs as one (n_epochs, n_channels, n_samples) array,
    the layout of MNE-Python's Epochs.get_data(), with per-epoch song ids,
    epoch indices and (n_epochs, n_channels) baseline offsets.  The arrays
    are flagged read-only in place, not copied."""

    subject_id: int
    data: np.ndarray
    baseline_mean: np.ndarray
    song_id: np.ndarray
    epoch_index: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        for name in ("data", "baseline_mean", "song_id", "epoch_index"):
            getattr(self, name).flags.writeable = False
        n = self.data.shape[0]
        if self.data.ndim != 3:
            raise ValueError("data must be 3-D epochs x channels x samples")
        if self.baseline_mean.shape != self.data.shape[:2]:
            raise ValueError(
                f"baseline_mean must have shape {self.data.shape[:2]}, "
                f"got {self.baseline_mean.shape}"
            )
        if self.song_id.shape != (n,) or self.epoch_index.shape != (n,):
            raise ValueError("song_id and epoch_index must have one entry per epoch")

    @property
    def epochs(self) -> tuple[Epoch, ...]:
        """Per-epoch views into the batch."""
        return tuple(
            Epoch(
                subject_id=self.subject_id,
                song_id=int(self.song_id[i]),
                epoch_index=int(self.epoch_index[i]),
                data=self.data[i],
                baseline_mean=self.baseline_mean[i],
                sample_rate_hz=self.sample_rate_hz,
            )
            for i in range(self.data.shape[0])
        )


REJECTION_MEASURES = ("probability", "kurtosis", "spectrum")


@dataclass(frozen=True)
class ChannelMask:
    """Per-channel keep/reject flags with the measures that tripped."""

    good: np.ndarray
    reasons: dict[int, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        good = np.asarray(self.good, dtype=bool).copy()
        good.flags.writeable = False
        object.__setattr__(self, "good", good)
        for ch, why in self.reasons.items():
            bad = set(why) - set(REJECTION_MEASURES)
            if bad:
                raise ValueError(f"unknown rejection reasons {bad} for channel {ch}")

    @property
    def n_good(self) -> int:
        return int(self.good.sum())

    @property
    def n_channels(self) -> int:
        return self.good.shape[0]

    @classmethod
    def all_good(cls, n_channels: int) -> ChannelMask:
        return cls(good=np.ones(n_channels, dtype=bool))


def validate_session(session: SessionRecording) -> list[str]:
    """Collect every invariant violation; an empty list means the session is valid.

    Only the sample rate, length, markers and ratings are read, so an open
    synth.SessionReader is checked the same way.  Violations are data, not
    failures: nothing raises here.
    """
    violations: list[str] = []
    if session.sample_rate_hz not in EXPECTED_SAMPLE_RATES:
        violations.append(
            f"unusual sample rate {session.sample_rate_hz} Hz "
            f"(expected one of {EXPECTED_SAMPLE_RATES})"
        )
    n = session.n_samples
    prev = -1
    for i, m in enumerate(session.markers):
        if m.sample_index >= n:
            violations.append(
                f"marker out of range: {m.kind} at sample {m.sample_index} "
                f">= recording length {n}"
            )
        if m.sample_index < prev:
            violations.append(
                f"markers not sorted: index {i} ({m.kind} at {m.sample_index}) "
                f"precedes an earlier marker at {prev}"
            )
        prev = max(prev, m.sample_index)

    started = {m.song_id for m in session.markers if m.kind == "song_start"}
    rated = set(session.ratings)
    for song in sorted(started - rated):
        violations.append(f"missing rating for song {song}")
    for song in sorted(rated - started):
        violations.append(f"rating for song {song} which has no song_start marker")
    for song, (enjoy, familiar) in sorted(session.ratings.items()):
        if not (1 <= enjoy <= 5) or not (1 <= familiar <= 5):
            violations.append(
                f"rating for song {song} out of 1-5 range: "
                f"enjoyment={enjoy}, familiarity={familiar}"
            )
    return violations
