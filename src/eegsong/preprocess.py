"""Preprocessing: epoch capture, baseline correction, mains notch, average
re-referencing, statistical bad-channel rejection, optional amplitude-based
epoch rejection.

The default step order mirrors the original acquisition pipeline, which
re-references before rejecting bad channels (so a bad channel pollutes the
common average). Pass a custom step_order to run rejection first.

The mains filter is a zero-phase second-order IIR notch, not a sliding-window
sinusoid regression; same intent (kill the 50 Hz line), far simpler, and its
attenuation is directly measurable.  It is computed in numpy (`dsp`): the
iirnotch coefficients, odd padding of 9 samples at each end, lfilter_zi
steady-state initial conditions, then a transposed direct-form II biquad run
forward and backward in the operation order of scipy's C lfilter, one Python
step per sample over every row of a block at once.  Each sample sees the same
floating-point operations in the same order as in scipy.signal.filtfilt, so
the output matches it bit for bit.  run_pipeline filters epochs in blocks,
which spreads the per-sample loop over many rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .core import (
    BASELINE_SECONDS,
    EEG_BAND_EDGES,
    REJECTION_MEASURES,
    ChannelMask,
    Epoch,
    PipelineError,
    SessionRecording,
    extract_segment,
    read_archive,
)

PIPELINE_STEPS = (
    "capture",
    "baseline",
    "notch",
    "rereference",
    "bad_channels",
    "amplitude_reject",
)


@dataclass(frozen=True)
class PreprocessConfig:
    epoch_seconds: int = 10
    notch_hz: float = 50.0
    notch_bandwidth_hz: float = 2.0
    rejection_zscore: float = 5.0
    amplitude_reject_uv: float | None = None
    step_order: tuple[str, ...] = PIPELINE_STEPS

    def __post_init__(self):
        # divisibility by the song length is checked where the song is known
        if self.epoch_seconds <= 0:
            raise ValueError(
                f"epoch_seconds must be positive, got {self.epoch_seconds}"
            )
        if self.notch_bandwidth_hz <= 0:
            raise ValueError("notch_bandwidth_hz must be positive")
        if self.rejection_zscore <= 0:
            raise ValueError("rejection_zscore must be positive")
        unknown = set(self.step_order) - set(PIPELINE_STEPS)
        if unknown:
            raise ValueError(f"unknown pipeline steps {sorted(unknown)}")
        if not self.step_order or self.step_order[0] != "capture":
            raise ValueError("step_order must start with 'capture'")


@dataclass(frozen=True)
class PipelineResult:
    epochs: tuple[Epoch, ...]
    channel_mask: ChannelMask
    n_dropped_epochs: int
    log: tuple[str, ...] = ()


def capture_music_epochs(
    session: SessionRecording, epoch_seconds: int
) -> list[Epoch]:
    """Slice every song into non-overlapping epochs, each carrying the per-channel
    mean of the BASELINE_SECONDS of silence before its song's onset."""
    fs = session.sample_rate_hz
    epoch_len = epoch_seconds * fs
    baseline_len = BASELINE_SECONDS * fs

    starts = {m.song_id: m.sample_index for m in session.markers if m.kind == "song_start"}
    ends = {m.song_id: m.sample_index for m in session.markers if m.kind == "song_end"}
    missing = sorted(set(starts) - set(ends))
    if missing:
        raise PipelineError(f"no song_end marker for songs {missing}")

    epochs: list[Epoch] = []
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
        baseline_mean = extract_segment(session, s - baseline_len, s).mean(axis=1)
        segment = extract_segment(session, s, e)
        for i in range(seg_len // epoch_len):
            epochs.append(
                Epoch(
                    subject_id=session.subject_id,
                    song_id=song_id,
                    epoch_index=i,
                    data=segment[:, i * epoch_len : (i + 1) * epoch_len],
                    baseline_mean=baseline_mean,
                    sample_rate_hz=fs,
                )
            )
    return epochs


def baseline_correct(epoch: Epoch) -> Epoch:
    """Subtract each channel's baseline offset from that channel's data."""
    return epoch.with_data(epoch.data - epoch.baseline_mean[:, None])


def notch_filter(
    x: np.ndarray,
    sample_rate_hz: float,
    notch_hz: float = 50.0,
    bandwidth_hz: float = 2.0,
) -> np.ndarray:
    """Zero-phase (forward-backward) second-order IIR notch along the last axis.

    Output length equals input length. bandwidth_hz is the -3 dB width of the
    single forward pass.
    """
    if notch_hz >= sample_rate_hz / 2:
        raise ValueError(
            f"notch at {notch_hz} Hz is not below Nyquist ({sample_rate_hz / 2} Hz)"
        )
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite samples")
    b, a = dsp.iirnotch(notch_hz, notch_hz / bandwidth_hz, sample_rate_hz)
    return dsp.filtfilt(b, a, x)


def average_rereference(segment: np.ndarray, mask: ChannelMask) -> np.ndarray:
    """Subtract the per-sample mean over good channels from every good channel;
    bad channels pass through untouched."""
    good = mask.good
    if segment.shape[0] != good.shape[0]:
        raise ValueError(
            f"mask covers {good.shape[0]} channels, segment has {segment.shape[0]}"
        )
    if good.sum() < 2:
        raise PipelineError("average re-referencing needs at least 2 good channels")
    out = np.array(segment, dtype=np.float64)
    out[good] -= out[good].mean(axis=0, keepdims=True)
    return out


def _excess_kurtosis(centered: np.ndarray) -> np.ndarray:
    """Excess kurtosis per row of an already mean-centred array."""
    squared = centered * centered
    m2 = squared.mean(axis=1)
    m4 = (squared * squared).mean(axis=1)
    m2 = np.where(m2 == 0, 1.0, m2)
    return m4 / m2**2 - 3.0


def _eeg_span_power(x: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Total power per channel over the span of EEG_BAND_EDGES, from the lowest
    lower edge to the highest upper edge, via a mean-detrended Welch PSD run
    one channel at a time (a whole-array Welch holds every segment at once)."""
    nperseg = min(x.shape[1], int(sample_rate_hz))
    spectra = [dsp.welch(row, sample_rate_hz, nperseg, detrend=True) for row in x]
    freqs = spectra[0][0]
    psd = np.stack([p for _, p in spectra])
    lo = min(edge for _, edge, _ in EEG_BAND_EDGES)
    hi = max(edge for _, _, edge in EEG_BAND_EDGES)
    band = (freqs >= lo) & (freqs < hi)
    df = freqs[1] - freqs[0] if len(freqs) > 1 else 1.0
    return psd[:, band].sum(axis=1) * df


def _zscore_across_channels(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def reject_bad_channels(
    segment: np.ndarray,
    rejection_zscore: float = 5.0,
    sample_rate_hz: float = 250.0,
) -> ChannelMask:
    """Flag channels whose amplitude distribution, kurtosis, or EEG-span power
    is a cross-channel outlier (|z| above the threshold on any measure)."""
    segment = np.asarray(segment, dtype=np.float64)
    n_channels = segment.shape[0]
    if n_channels < 4:
        raise PipelineError(
            f"bad-channel rejection needs >= 4 channels, got {n_channels}"
        )

    centered = segment - segment.mean(axis=1, keepdims=True)
    measures = {
        "probability": np.abs(centered).mean(axis=1),
        "kurtosis": _excess_kurtosis(centered),
        "spectrum": _eeg_span_power(segment, sample_rate_hz),
    }
    assert tuple(measures) == REJECTION_MEASURES

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


# Epochs per notch_filter call in run_pipeline: its per-sample loop costs the
# same for any number of rows, so blocks amortise it while staying small.
_NOTCH_BLOCK_EPOCHS = 24


def run_pipeline(session: SessionRecording, config: PreprocessConfig) -> PipelineResult:
    """Apply config.step_order to a session. Deterministic; epochs and channels
    could be processed in parallel without changing the result."""
    epochs: list[Epoch] = []
    mask = ChannelMask.all_good(session.n_channels)
    n_dropped = 0
    log: list[str] = []

    for step in config.step_order:
        try:
            if step == "capture":
                epochs = capture_music_epochs(session, config.epoch_seconds)
                log.append(f"capture: {len(epochs)} epochs of {config.epoch_seconds} s")
            elif step == "baseline":
                epochs = [baseline_correct(ep) for ep in epochs]
                log.append("baseline: corrected against 10 s pre-song silence")
            elif step == "notch":
                filtered = []
                for i in range(0, len(epochs), _NOTCH_BLOCK_EPOCHS):
                    block = epochs[i : i + _NOTCH_BLOCK_EPOCHS]
                    data = notch_filter(
                        np.stack([ep.data for ep in block]),
                        session.sample_rate_hz,
                        config.notch_hz,
                        config.notch_bandwidth_hz,
                    )
                    filtered.extend(ep.with_data(d) for ep, d in zip(block, data))
                epochs = filtered
                log.append(f"notch: {config.notch_hz} Hz zero-phase IIR")
            elif step == "rereference":
                epochs = [
                    ep.with_data(average_rereference(ep.data, mask)) for ep in epochs
                ]
                log.append(f"rereference: common average over {mask.n_good} channels")
            elif step == "bad_channels":
                concat = np.concatenate([ep.data for ep in epochs], axis=1)
                mask = reject_bad_channels(
                    concat, config.rejection_zscore, session.sample_rate_hz
                )
                for ch in sorted(mask.reasons):
                    log.append(
                        f"bad_channels: rejected channel {ch} "
                        f"({', '.join(sorted(mask.reasons[ch]))})"
                    )
                if not mask.reasons:
                    log.append("bad_channels: none rejected")
            elif step == "amplitude_reject":
                if config.amplitude_reject_uv is not None:
                    kept = []
                    for ep in epochs:
                        if np.abs(ep.data).max() > config.amplitude_reject_uv:
                            n_dropped += 1
                            log.append(
                                f"amplitude_reject: dropped song {ep.song_id} "
                                f"epoch {ep.epoch_index}"
                            )
                        else:
                            kept.append(ep)
                    epochs = kept
        except PipelineError as e:
            raise PipelineError(f"step {step!r} failed: {e}") from e

    return PipelineResult(
        epochs=tuple(epochs),
        channel_mask=mask,
        n_dropped_epochs=n_dropped,
        log=tuple(log),
    )


EPOCHS_FORMAT_VERSION = 2
_EPOCHS_ARRAYS = (
    "sample_rate_hz", "n_dropped_epochs", "data", "baseline_mean", "subject_id",
    "song_id", "epoch_index", "mask_subjects", "mask_good", "mask_reasons",
    "rating_keys", "rating_values",
)


@dataclass(frozen=True)
class EpochsFile:
    """Pooled preprocessed epochs from one or more subjects, as stored on disk:
    each epoch's data and its (C,) baseline offset, not the baseline window."""

    epochs: tuple[Epoch, ...]
    masks: dict[int, ChannelMask]
    ratings: dict[tuple[int, int], tuple[int, int]]  # (subject, song) -> (enj, fam)
    sample_rate_hz: int
    n_dropped_epochs: int = 0


def save_epochs(path, epochs_file: EpochsFile):
    """Write pooled epochs as a flat .npz archive.  Every epoch must share one
    channel count and epoch length."""
    epochs = epochs_file.epochs
    if not epochs:
        raise PipelineError("refusing to save an empty epoch collection")
    shapes = {ep.data.shape for ep in epochs}
    if len(shapes) > 1:
        raise PipelineError(f"epochs have mixed shapes {sorted(shapes)}")

    subjects = sorted(epochs_file.masks)
    n_channels = epochs[0].data.shape[0]
    reason_flags = np.zeros(
        (len(subjects), n_channels, len(REJECTION_MEASURES)), dtype=bool
    )
    for i, sid in enumerate(subjects):
        for ch, why in epochs_file.masks[sid].reasons.items():
            for j, measure in enumerate(REJECTION_MEASURES):
                reason_flags[i, ch, j] = measure in why

    rating_keys = sorted(epochs_file.ratings)
    payload = {
        "format_version": np.asarray(EPOCHS_FORMAT_VERSION),
        "sample_rate_hz": np.asarray(epochs_file.sample_rate_hz),
        "n_dropped_epochs": np.asarray(epochs_file.n_dropped_epochs),
        "data": np.stack([ep.data for ep in epochs]),
        "baseline_mean": np.stack([ep.baseline_mean for ep in epochs]),
        "subject_id": np.asarray([ep.subject_id for ep in epochs]),
        "song_id": np.asarray([ep.song_id for ep in epochs]),
        "epoch_index": np.asarray([ep.epoch_index for ep in epochs]),
        "mask_subjects": np.asarray(subjects, dtype=np.int64),
        "mask_good": np.stack(
            [np.asarray(epochs_file.masks[s].good) for s in subjects]
        )
        if subjects
        else np.zeros((0, n_channels), dtype=bool),
        "mask_reasons": reason_flags,
        "rating_keys": np.asarray(rating_keys, dtype=np.int64).reshape(-1, 2),
        "rating_values": np.asarray(
            [epochs_file.ratings[k] for k in rating_keys], dtype=np.int64
        ).reshape(-1, 2),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)
    return path


def load_epochs(path) -> EpochsFile:
    archive = read_archive(path, "epochs", EPOCHS_FORMAT_VERSION, _EPOCHS_ARRAYS, PipelineError)
    fs = int(archive["sample_rate_hz"])
    data = archive["data"]
    baseline_mean = archive["baseline_mean"]
    subject_id = archive["subject_id"]
    song_id = archive["song_id"]
    epoch_index = archive["epoch_index"]
    epochs = tuple(
        Epoch(
            subject_id=int(subject_id[i]),
            song_id=int(song_id[i]),
            epoch_index=int(epoch_index[i]),
            data=data[i],
            baseline_mean=baseline_mean[i],
            sample_rate_hz=fs,
        )
        for i in range(data.shape[0])
    )
    masks = {}
    for i, sid in enumerate(archive["mask_subjects"]):
        reasons = {}
        flags = archive["mask_reasons"][i]
        for ch in range(flags.shape[0]):
            tripped = frozenset(
                REJECTION_MEASURES[j]
                for j in range(len(REJECTION_MEASURES))
                if flags[ch, j]
            )
            if tripped:
                reasons[ch] = tripped
        masks[int(sid)] = ChannelMask(good=archive["mask_good"][i], reasons=reasons)
    ratings = {
        (int(k[0]), int(k[1])): (int(v[0]), int(v[1]))
        for k, v in zip(archive["rating_keys"], archive["rating_values"])
    }
    return EpochsFile(
        epochs=epochs,
        masks=masks,
        ratings=ratings,
        sample_rate_hz=fs,
        n_dropped_epochs=int(archive["n_dropped_epochs"]),
    )
