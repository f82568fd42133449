"""Preprocessing: epoch capture, baseline correction, mains notch, average
re-referencing and statistical bad-channel rejection.

run_pipeline runs the steps in one fixed order: capture, baseline, notch,
rereference, then bad_channels; every captured epoch is kept.  It
re-references before rejecting bad channels, as the original acquisition
pipeline does, so a bad channel pollutes the common average; the order is
part of the method, not a setting.

run_pipeline returns one subject as one EpochBatch: its epochs as one
(n_epochs, n_channels, n_samples) float32 array, the layout of MNE-Python's
Epochs.get_data(), at the precision of the float32 session it was read from,
so the epochs keep the same bits whether a stage takes them from run_pipeline
or from the epochs archive; and the channel mask of bad-channel rejection.
The float64 work happens one block of whole songs at a time: capture casts a
block's epochs from the session into a float64 scratch, one channel row at a
time; baseline, notch and rereference rewrite the scratch in place; and the
scratch is rounded into the batch.  Each of those steps works on each epoch on
its own, so the blocks give the bits of the steps over the whole subject at
once.  bad_channels then reads the float32 batch.  Capture takes its rows from
an in-memory session or from an open synth.SessionReader, which reads each
song's channel rows from disk into one reused buffer; a subject read that way
costs the batch, one block and a few row-sized buffers, and no session-sized
array.  EpochsWriter.add writes a whole subject to the epochs archive as one
record of its own members: the batch as one float32 member, from the batch's
own buffer, each epoch's baseline offset and labels, the channel mask and the
subject's ratings.  Nothing in the archive is pooled across subjects but the
list of them, so a reader joins no index to another; EpochsReader reads each
batch back one epoch at a time into a float64 Epoch.

The mains filter is a zero-phase second-order IIR notch, not a sliding-window
sinusoid regression; same intent (kill the 50 Hz line), far simpler, and its
attenuation is directly measurable.  It is computed in numpy (`dsp`): the
iirnotch coefficients, odd padding of 9 samples at each end, lfilter_zi
steady-state initial conditions, then a transposed direct-form II biquad run
forward and backward in the operation order of scipy's C lfilter, one Python
step per sample over every row at once, in place in tiles of samples.  Each
sample sees the same floating-point operations in the same order as in
scipy.signal.filtfilt, so the output matches it bit for bit.  run_pipeline
filters each block in one call, which spreads the per-sample loop over all
its rows.
"""

from __future__ import annotations

import zipfile
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import dsp
from .config import MIN_REJECTION_CHANNELS, PreprocessConfig
from .core import (
    BASELINE_SECONDS,
    EEG_BAND_EDGES,
    REJECTION_MEASURES,
    ChannelMask,
    Epoch,
    EpochBatch,
    PipelineError,
    SessionRecording,
    atomic_write,
    read_archive,
)

if TYPE_CHECKING:
    from .synth import SessionReader


def _songs(
    session: SessionRecording | SessionReader, epoch_len: int
) -> list[tuple[int, int, int]]:
    """Each song's (song_id, start, end) in song order, checked: its segment
    divides into epoch_len-sample epochs, lies inside the recording and has
    BASELINE_SECONDS of samples before it."""
    baseline_len = BASELINE_SECONDS * session.sample_rate_hz
    starts = {m.song_id: m.sample_index for m in session.markers if m.kind == "song_start"}
    ends = {m.song_id: m.sample_index for m in session.markers if m.kind == "song_end"}
    if not starts:
        raise PipelineError("the session has no song_start marker, so no epochs")
    missing = sorted(set(starts) - set(ends))
    if missing:
        raise PipelineError(f"no song_end marker for songs {missing}")

    songs = []
    for song_id in sorted(starts):
        s, e = starts[song_id], ends[song_id]
        seg_len = e - s
        if seg_len % epoch_len != 0:
            raise PipelineError(
                f"song {song_id} segment of {seg_len} samples is not divisible "
                f"by the {epoch_len}-sample epoch length"
            )
        if s < baseline_len:
            raise PipelineError(
                f"song {song_id} starts at sample {s}, too early for a "
                f"{BASELINE_SECONDS} s baseline"
            )
        if not s < e <= session.n_samples:
            raise PipelineError(
                f"song {song_id} spans samples [{s}, {e}), not inside the "
                f"{session.n_samples} samples of the recording"
            )
        songs.append((song_id, s, e))
    return songs


def _epoch_labels(
    songs: list[tuple[int, int, int]], epoch_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """The song id and the index within its song of every epoch of songs."""
    per_song = [(e - s) // epoch_len for _, s, e in songs]
    song_ids = np.repeat(np.asarray([sid for sid, _, _ in songs], dtype=np.int64), per_song)
    epoch_index = np.concatenate([np.arange(n, dtype=np.int64) for n in per_song])
    return song_ids, epoch_index


def _capture_into(
    session: SessionRecording | SessionReader,
    songs: list[tuple[int, int, int]],
    data: np.ndarray,
    baseline_mean: np.ndarray,
) -> None:
    """Copy the epochs of songs, in order, into data (E, C, S) and each
    epoch's (C,) baseline offset, the per-channel mean of the
    BASELINE_SECONDS of silence before its song's onset, into baseline_mean
    (E, C).

    The samples are taken through session.row, one channel's baseline and
    song at a time: a view of an in-memory session, or a read from an open
    session file into one reused buffer."""
    epoch_len = data.shape[-1]
    baseline_len = BASELINE_SECONDS * session.sample_rate_hz
    at = 0
    for _, s, e in songs:
        n = (e - s) // epoch_len
        for c in range(data.shape[1]):
            row = session.row(c, s - baseline_len, e)
            # the same bits as the channel's row of a float64 baseline window's
            # mean over axis 1
            baseline_mean[at : at + n, c] = row[:baseline_len].astype(np.float64).mean()
            # cast straight from the row into data: exact
            data[at : at + n, c] = row[baseline_len:].reshape(n, epoch_len)
        at += n


def _capture(
    session: SessionRecording | SessionReader, epoch_seconds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every song's non-overlapping epochs copied into one float64 (E, C, S)
    array, with each epoch's (C,) baseline offset, song id and index."""
    epoch_len = epoch_seconds * session.sample_rate_hz
    songs = _songs(session, epoch_len)
    song_ids, epoch_index = _epoch_labels(songs, epoch_len)
    data = np.empty((len(song_ids), session.n_channels, epoch_len))
    baseline_mean = np.empty(data.shape[:2])
    _capture_into(session, songs, data, baseline_mean)
    return data, baseline_mean, song_ids, epoch_index


def capture_music_epochs(
    session: SessionRecording | SessionReader, epoch_seconds: int
) -> list[Epoch]:
    """Slice every song into non-overlapping epochs, each carrying the per-channel
    mean of the BASELINE_SECONDS of silence before its song's onset."""
    batch = EpochBatch(
        session.subject_id,
        *_capture(session, epoch_seconds),
        session.sample_rate_hz,
        ChannelMask.all_good(session.n_channels),
    )
    return list(batch.epochs)


def _subtract_baseline(data: np.ndarray, baseline_mean: np.ndarray) -> None:
    """In place: each channel's baseline offset off that channel's samples;
    data is (..., C, S) and baseline_mean (..., C)."""
    data -= baseline_mean[..., None]


def baseline_correct(epoch: Epoch) -> Epoch:
    """Subtract each channel's baseline offset from that channel's data."""
    data = epoch.data.copy()
    _subtract_baseline(data, epoch.baseline_mean)
    return epoch.with_data(data)


def _notch(
    data: np.ndarray, sample_rate_hz: float, notch_hz: float, bandwidth_hz: float
) -> None:
    """notch_filter in place on a float64 array."""
    if not 0 < notch_hz < sample_rate_hz / 2:
        raise ValueError(
            f"notch at {notch_hz} Hz is not between 0 and Nyquist ({sample_rate_hz / 2} Hz)"
        )
    # checked one leading slice at a time, not with a batch-sized mask
    if not all(np.isfinite(part).all() for part in np.atleast_2d(data)):
        raise ValueError("input contains non-finite samples")
    b, a = dsp.iirnotch(notch_hz, notch_hz / bandwidth_hz, sample_rate_hz)
    dsp.filtfilt(b, a, data)


def notch_filter(
    x: np.ndarray,
    sample_rate_hz: float,
    notch_hz: float = 50.0,
    bandwidth_hz: float = 2.0,
) -> np.ndarray:
    """Zero-phase (forward-backward) second-order IIR notch along the last
    axis, returned as a float64 copy.

    Output length equals input length. bandwidth_hz is the -3 dB width of the
    single forward pass.
    """
    out = np.array(x, dtype=np.float64)
    _notch(out, sample_rate_hz, notch_hz, bandwidth_hz)
    return out


def _reference_channels(n_channels: int, mask: ChannelMask) -> np.ndarray:
    """The good channels of mask, checked against the montage."""
    good = mask.good
    if n_channels != good.shape[0]:
        raise ValueError(
            f"mask covers {good.shape[0]} channels, segment has {n_channels}"
        )
    if good.sum() < 2:
        raise PipelineError("average re-referencing needs at least 2 good channels")
    return good


def _rereference(data: np.ndarray, good: np.ndarray) -> None:
    """In place over (..., C, S): the per-sample mean over the good channels
    off every good channel.  The mean is summed one good channel at a time
    into one (..., S) buffer, in the order in which a mean over the channel
    axis adds them, so it has the same bits without a copy of the good
    channels."""
    channels = np.flatnonzero(good)
    mean = data[..., channels[0], :].copy()
    for c in channels[1:]:
        mean += data[..., c, :]
    mean /= len(channels)
    for c in channels:
        data[..., c, :] -= mean


def average_rereference(segment: np.ndarray, mask: ChannelMask) -> np.ndarray:
    """Subtract the per-sample mean over good channels from every good channel;
    bad channels pass through untouched.  segment is (..., C, S)."""
    good = _reference_channels(segment.shape[-2], mask)
    out = np.array(segment, dtype=np.float64)
    _rereference(out, good)
    return out


def _zscore_across_channels(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def _rejection_measures(segment: np.ndarray, sample_rate_hz: float) -> dict[str, np.ndarray]:
    """Each channel's REJECTION_MEASURES: the mean absolute deviation, the
    excess kurtosis and the EEG-span power of its row.  segment is channels x
    samples, or an (E, C, S) epoch batch, whose channel c is then its
    epochs' rows c end to end.  The measures are taken one channel at a time
    on two buffers kept from channel to channel: the row, which is centred in
    place once its spectrum is taken, and one scratch row."""
    segment = np.asarray(segment)
    n_channels = segment.shape[-2]
    n = segment[..., 0, :].size
    row, scratch = np.empty((2, n))
    # row as the shape of one channel's slice of segment, to copy it in
    row_in = row.reshape(segment[..., 0, :].shape)
    # the spectrum measure: total power over the span of EEG_BAND_EDGES, from
    # the lowest lower edge to the highest upper edge, via a mean-detrended
    # Welch PSD
    nperseg = min(n, int(sample_rate_hz))
    freqs = np.fft.rfftfreq(nperseg, 1 / sample_rate_hz)
    lo = min(edge for _, edge, _ in EEG_BAND_EDGES)
    hi = max(edge for _, _, edge in EEG_BAND_EDGES)
    band = (freqs >= lo) & (freqs < hi)
    df = freqs[1] - freqs[0] if len(freqs) > 1 else 1.0
    measures = {name: np.empty(n_channels) for name in REJECTION_MEASURES}
    for ch in range(n_channels):
        row_in[...] = segment[..., ch, :]
        _, psd = dsp.welch(row, sample_rate_hz, nperseg, detrend=True)
        measures["spectrum"][ch] = psd[band].sum() * df
        centered = np.subtract(row, row.mean(), out=row)
        measures["probability"][ch] = np.abs(centered, out=scratch).mean()
        # excess kurtosis: the fourth central moment over the squared second
        squared = np.multiply(centered, centered, out=scratch)
        m2 = squared.mean()
        m4 = np.multiply(squared, squared, out=scratch).mean()
        m2 = 1.0 if m2 == 0 else m2
        measures["kurtosis"][ch] = m4 / (m2 * m2) - 3.0
    return measures


def reject_bad_channels(
    segment: np.ndarray,
    rejection_zscore: float = 5.0,
    sample_rate_hz: float = 250.0,
) -> ChannelMask:
    """Flag channels whose amplitude distribution, kurtosis, or EEG-span power
    is a cross-channel outlier (|z| above the threshold on any measure).
    segment is channels x samples or an (E, C, S) epoch batch, as
    _rejection_measures takes it."""
    n_channels = np.shape(segment)[-2]
    if n_channels < MIN_REJECTION_CHANNELS:
        raise PipelineError(
            f"bad-channel rejection needs >= {MIN_REJECTION_CHANNELS} channels, "
            f"got {n_channels}"
        )

    measures = _rejection_measures(segment, sample_rate_hz)
    good = np.ones(n_channels, dtype=bool)
    reasons: dict[int, set[str]] = {}
    for name, values in measures.items():
        z = _zscore_across_channels(values)
        for ch in np.nonzero(np.abs(z) > rejection_zscore)[0]:
            good[ch] = False
            reasons.setdefault(int(ch), set()).add(name)

    if good.sum() < n_channels / 2:
        raise PipelineError(
            f"rejection left {int(good.sum())}/{n_channels} channels; "
            "refusing to continue with less than half the montage"
        )
    return ChannelMask(good=good, reasons={ch: frozenset(w) for ch, w in reasons.items()})


@contextmanager
def _step(name: str) -> Iterator[None]:
    """Name the step in a PipelineError raised inside the block."""
    try:
        yield
    except PipelineError as e:
        raise PipelineError(f"step {name!r} failed: {e}") from e


# Bytes of the float64 scratch in which run_pipeline preprocesses one block
# of whole consecutive songs; a song larger than this is a block of its own.
# A TINY subject (8 channels, 8 epochs, 1.3 MB) is one block, so its notch
# walks its samples once; a default one (7.7 MB a song) is a song a block.
_BLOCK_BYTES = 8 * 2**20


def _song_blocks(
    songs: list[tuple[int, int, int]], epoch_len: int, epoch_bytes: int
) -> Iterator[tuple[list[tuple[int, int, int]], int]]:
    """songs split in order into blocks, each as many whole songs as fit in
    _BLOCK_BYTES at epoch_bytes an epoch, and at least one; with each
    block's epoch count."""
    block, n_epochs = [], 0
    for song in songs:
        n = (song[2] - song[1]) // epoch_len
        if block and (n_epochs + n) * epoch_bytes > _BLOCK_BYTES:
            yield block, n_epochs
            block, n_epochs = [], 0
        block.append(song)
        n_epochs += n
    yield block, n_epochs


def run_pipeline(
    session: SessionRecording | SessionReader, config: PreprocessConfig
) -> EpochBatch:
    """Preprocess one subject's session into one EpochBatch: an (n_epochs,
    n_channels, n_samples) float32 batch and its channel mask.  Capture,
    baseline, notch and rereference run in that order on one block of whole
    songs at a time (see _BLOCK_BYTES), in a float64 scratch that is then
    copied into the batch; each of these steps works on each epoch on its
    own, so the batch holds the bits of the four steps over the whole subject
    at once, rounded to float32.  Last, bad_channels makes the batch's
    channel mask from the float32 batch and drops no epoch.
    session is a SessionRecording or an open SessionReader, whose rows are
    read from disk as they are cast.  Deterministic."""
    fs = session.sample_rate_hz
    epoch_len = config.epoch_seconds * fs
    with _step("capture"):
        songs = _songs(session, epoch_len)
    song_id, epoch_index = _epoch_labels(songs, epoch_len)
    n_channels = session.n_channels
    with _step("rereference"):
        good = _reference_channels(n_channels, ChannelMask.all_good(n_channels))
    data = np.empty((len(song_id), n_channels, epoch_len), dtype=np.float32)
    baseline_mean = np.empty(data.shape[:2])
    at = 0
    for block, n in _song_blocks(songs, epoch_len, n_channels * epoch_len * 8):
        scratch = np.empty((n, n_channels, epoch_len))
        offsets = baseline_mean[at : at + n]
        _capture_into(session, block, scratch, offsets)
        _subtract_baseline(scratch, offsets)
        _notch(scratch, fs, config.notch_hz, config.notch_bandwidth_hz)
        _rereference(scratch, good)
        data[at : at + n] = scratch
        # freed before the next block's scratch is made
        del scratch
        at += n
    with _step("bad_channels"):
        mask = reject_bad_channels(data, config.rejection_zscore, fs)
    return EpochBatch(session.subject_id, data, baseline_mean, song_id, epoch_index, fs, mask)


# Version 3 writes each subject's (E, C, S) batch as its own data_<subject>
# member, as soon as that subject is preprocessed; version 4 stores those
# members as little-endian float32; version 5 stores everything of a subject
# in that subject's own members (_RECORD), written with its batch.
EPOCHS_FORMAT_VERSION = 5
_EPOCH_DTYPE = np.dtype("<f4")
# the members of one subject's record, each stored as <name>_<subject>
_RECORD = ("data", "baseline_mean", "labels", "mask", "ratings")


@dataclass(frozen=True)
class EpochsFile:
    """Preprocessed epochs of one or more subjects pooled in memory, with
    their masks and ratings: each epoch's data and its (C,) baseline offset,
    not the baseline window.  The archive stores each subject apart."""

    epochs: tuple[Epoch, ...]
    masks: dict[int, ChannelMask]
    ratings: dict[tuple[int, int], tuple[int, int]]  # (subject, song) -> (enj, fam)
    sample_rate_hz: int


def _write_member(archive: zipfile.ZipFile, name: str, array) -> None:
    """One array as the archive member name.npy, byte for byte as np.savez
    writes a C-ordered array: the .npy 1.0 header, then the array's own
    buffer, where np.lib.format.write_array would copy it out in chunks."""
    array = np.asarray(array)
    if not array.flags.c_contiguous:
        array = array.copy(order="C")
    with archive.open(name + ".npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(
            fh,
            {
                "descr": np.lib.format.dtype_to_descr(array.dtype),
                "fortran_order": False,
                "shape": array.shape,
            },
        )
        fh.write(array.reshape(-1).view(np.uint8))


class EpochsWriter:
    """An epochs archive being written one subject at a time (see
    write_epochs).  add writes a subject's whole record at once; finishing
    the archive writes only the format version, the sample rate and the
    list of subjects."""

    def __init__(self, archive: zipfile.ZipFile):
        self._archive = archive
        self._layout: tuple[int, ...] | None = None
        self._subjects: list[int] = []
        self.n_epochs = 0

    def add(self, batch: EpochBatch, ratings: Mapping[int, tuple[int, int]]) -> None:
        """Write one subject's record: its float32 batch, from the batch's
        own buffer, each epoch's baseline offset, song id and index, its
        channel mask and its ratings, song_id -> (enjoyment, familiarity).
        Each subject may be added once."""
        sid = batch.subject_id
        if sid in self._subjects:
            raise PipelineError(f"subject {sid} was already added")
        if batch.data.dtype != _EPOCH_DTYPE:
            raise PipelineError(
                f"subject {sid} epochs are {batch.data.dtype}, not float32"
            )
        layout = (batch.sample_rate_hz, *batch.data.shape[1:])
        if self._layout is None:
            self._layout = layout
        elif layout != self._layout:
            raise PipelineError(
                f"epochs have mixed shapes: subject {sid} has "
                f"{layout[1:]} at {layout[0]} Hz, earlier subjects "
                f"{self._layout[1:]} at {self._layout[0]} Hz"
            )
        if not len(batch.data):
            raise PipelineError(f"subject {sid} has no epochs to write")
        mask = batch.channel_mask
        # each channel's good flag, then whether each REJECTION_MEASURES tripped
        flags = np.zeros((mask.n_channels, 1 + len(REJECTION_MEASURES)), dtype=bool)
        flags[:, 0] = mask.good
        for ch, why in mask.reasons.items():
            flags[ch, 1:] = [measure in why for measure in REJECTION_MEASURES]
        record = {
            "data": batch.data,
            "baseline_mean": batch.baseline_mean,
            "labels": np.stack([batch.song_id, batch.epoch_index], axis=1),
            "mask": flags,
            "ratings": np.asarray(
                [(song, *pair) for song, pair in sorted(ratings.items())], dtype=np.int64
            ).reshape(-1, 3),
        }
        for name in _RECORD:
            _write_member(self._archive, f"{name}_{sid}", record[name])
        self._subjects.append(sid)
        self.n_epochs += len(batch.data)

    def _finish(self) -> None:
        if not self._subjects:
            raise PipelineError("refusing to save an empty epoch collection")
        _write_member(self._archive, "format_version", EPOCHS_FORMAT_VERSION)
        _write_member(self._archive, "sample_rate_hz", self._layout[0])
        _write_member(self._archive, "subjects", np.asarray(self._subjects, dtype=np.int64))


@contextmanager
def write_epochs(path) -> Iterator[EpochsWriter]:
    """An EpochsWriter onto the epochs archive at path (format 5): one record
    per subject, as data_<subject> (E, C, S) <f4, baseline_mean_<subject>
    (E, C), labels_<subject> (E, 2) of song id and epoch index, mask_<subject>
    (C, 1 + 3) of the good flag and each REJECTION_MEASURES flag, and
    ratings_<subject> (R, 3) of song, enjoyment and familiarity; then
    format_version, sample_rate_hz and subjects, in the order they were
    added.  The archive goes to a temporary file that replaces path when the
    block completes; if the block or the final write raises, path is
    untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as tmp, zipfile.ZipFile(tmp, "w", allowZip64=True) as archive:
        writer = EpochsWriter(archive)
        yield writer
        writer._finish()


def save_epochs(path, epochs_file: EpochsFile):
    """Write pooled epochs as an epochs archive, one batch per subject in the
    order the subjects first appear.  Every epoch must share one channel
    count and epoch length, and hold float32 values, as run_pipeline's do;
    the masks must be those of the subjects with epochs, and the ratings of
    no other subject."""
    epochs = epochs_file.epochs
    shapes = {ep.data.shape for ep in epochs}
    if len(shapes) > 1:
        raise PipelineError(f"epochs have mixed shapes {sorted(shapes)}")
    subjects = list(dict.fromkeys(ep.subject_id for ep in epochs))
    with_epochs = sorted(subjects)
    masked = sorted(epochs_file.masks)
    rated = sorted({sid for sid, _ in epochs_file.ratings})
    if masked != with_epochs:
        raise PipelineError(
            f"channel masks for subjects {masked} but epochs for subjects {with_epochs}"
        )
    if not set(rated) <= set(subjects):
        raise PipelineError(f"ratings for subjects {rated} but epochs for subjects {with_epochs}")
    with write_epochs(path) as writer:
        for sid in subjects:
            group = [ep for ep in epochs if ep.subject_id == sid]
            data = np.empty((len(group), *group[0].data.shape), dtype=_EPOCH_DTYPE)
            for i, ep in enumerate(group):
                data[i] = ep.data
                if not np.array_equal(data[i], ep.data):
                    raise PipelineError(
                        f"subject {sid} epoch {i} holds values that float32 cannot "
                        "store exactly"
                    )
            batch = EpochBatch(
                sid,
                data,
                np.stack([ep.baseline_mean for ep in group]),
                np.asarray([ep.song_id for ep in group], dtype=np.int64),
                np.asarray([ep.epoch_index for ep in group], dtype=np.int64),
                epochs_file.sample_rate_hz,
                epochs_file.masks[sid],
            )
            writer.add(
                batch,
                {song: pair for (subject, song), pair in epochs_file.ratings.items() if subject == sid},
            )
    return Path(path)


class EpochsReader:
    """An epochs archive open for reading one epoch at a time; the masks and
    ratings are read on opening, each subject's baseline offsets and labels
    when its epochs are reached.  The archive must list each subject once and
    hold every member of each listed subject's record.  Close it, or use it
    as a context manager."""

    def __init__(self, path):
        self._archive = read_archive(
            path, "epochs", EPOCHS_FORMAT_VERSION, ("sample_rate_hz", "subjects"), PipelineError
        )
        try:
            self._read_header()
        except PipelineError:
            self.close()
            raise

    def _rows(self, name: str, width: int) -> np.ndarray:
        """The member name, checked to be a 2-D array of width columns."""
        array = self._archive[name]
        if array.ndim != 2 or array.shape[1] != width:
            raise PipelineError(
                f"{self._archive.path}: {name} has shape {array.shape}, not (rows, {width})"
            )
        return array

    def _read_header(self) -> None:
        archive = self._archive
        self.sample_rate_hz = int(archive["sample_rate_hz"])
        self._subjects = archive["subjects"].reshape(-1).tolist()
        repeated = sorted({sid for sid in self._subjects if self._subjects.count(sid) > 1})
        if repeated:
            raise PipelineError(f"{archive.path}: subjects lists subjects {repeated} more than once")
        archive.require(f"{name}_{sid}" for sid in self._subjects for name in _RECORD)
        self.masks, self.ratings = {}, {}
        for sid in self._subjects:
            flags = self._rows(f"mask_{sid}", 1 + len(REJECTION_MEASURES))
            reasons = {
                ch: frozenset(m for m, tripped in zip(REJECTION_MEASURES, row[1:]) if tripped)
                for ch, row in enumerate(flags)
                if row[1:].any()
            }
            self.masks[sid] = ChannelMask(good=flags[:, 0], reasons=reasons)
            for song, enjoyment, familiarity in self._rows(f"ratings_{sid}", 3).tolist():
                self.ratings[sid, song] = (enjoyment, familiarity)

    def _stream(self, subject_id: int) -> Iterator[Epoch]:
        """One subject's epochs, each read from its data_<subject> member
        into one reused float32 epoch as it is reached, which Epoch copies to
        float64.  The member's .npy header must be the version 1.0 one that
        EpochsWriter writes, of a C-ordered little-endian float32 (epochs,
        channels, samples) array whose epochs and channels are those of the
        subject's labels, mask and baseline offsets; the member is read to its
        end, so zipfile checks its CRC."""
        path, name = self._archive.path, f"data_{subject_id}"
        baseline_mean = self._archive[f"baseline_mean_{subject_id}"]
        labels = self._rows(f"labels_{subject_id}", 2)
        expected = (len(labels), self.masks[subject_id].n_channels)
        with self._archive.stream(name) as fh:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise PipelineError(f"{path}: {name} has .npy format version {version}")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != _EPOCH_DTYPE or fortran_order:
                raise PipelineError(
                    f"{path}: {name} holds {dtype} in "
                    f"{'Fortran' if fortran_order else 'C'} order, not C-ordered <f4"
                )
            if len(shape) != 3 or shape[:2] != expected or baseline_mean.shape != expected:
                raise PipelineError(
                    f"{path}: {name} has shape {shape} and baseline_mean_{subject_id} "
                    f"{baseline_mean.shape}, where labels_{subject_id} and "
                    f"mask_{subject_id} give (epochs, channels) {expected}"
                )
            data = np.empty(shape[1:], dtype=_EPOCH_DTYPE)
            for (song_id, epoch_index), offsets in zip(labels.tolist(), baseline_mean):
                if fh.readinto(memoryview(data.view(np.uint8))) != data.nbytes:
                    raise PipelineError(f"{path}: {name} ends inside its epochs")
                yield Epoch(
                    subject_id=subject_id,
                    song_id=song_id,
                    epoch_index=epoch_index,
                    data=data,
                    baseline_mean=offsets,
                    sample_rate_hz=self.sample_rate_hz,
                )
            if fh.read(1):
                raise PipelineError(f"{path}: {name} holds bytes past its epochs")

    def epochs(self) -> Iterator[Epoch]:
        """Every epoch, subject by subject, read from the archive one epoch at
        a time: one epoch's data in memory as long as the caller keeps no
        earlier one."""
        for subject_id in self._subjects:
            yield from self._stream(subject_id)

    def close(self) -> None:
        self._archive.close()

    def __enter__(self) -> EpochsReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_epochs(path) -> EpochsFile:
    """Every epoch of an epochs archive, with its masks and ratings."""
    with EpochsReader(path) as reader:
        return EpochsFile(
            epochs=tuple(reader.epochs()),
            masks=reader.masks,
            ratings=reader.ratings,
            sample_rate_hz=reader.sample_rate_hz,
        )
