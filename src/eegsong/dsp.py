"""Numpy signal kernels: the Welch PSD and the zero-phase IIR notch.

Both reproduce the arithmetic of the scipy.signal calls they stand in for
(`welch` with a periodic Hamming window and density scaling; `iirnotch` and
`filtfilt` with odd padding), operation for operation, so their outputs are
bit-identical to scipy's on the same inputs; the tests hold them to that with
scipy.signal as the oracle.  Nothing here imports scipy, whose signal package
costs well over a second to import.

`filtfilt` overwrites its argument: it walks the rows in tiles of samples,
so a whole batch of epochs is filtered in one call with one small scratch
buffer rather than a padded copy of the batch.
"""

from __future__ import annotations

import math

import numpy as np

# filtfilt's default odd padding: three times the number of biquad taps.
BIQUAD_PADLEN = 9

# Samples per tile of filtfilt's walk.  Tiles of 32 to 128 samples filter a
# (72, 32, 2500) batch in the same 0.12-0.13 s (one core of a 2-vCPU Xeon);
# at 64 the (_TILE, 3, rows) scratch is 3.5 MB for its 2,304 rows.
_TILE = 64


def periodic_hamming(n: int) -> np.ndarray:
    """n-point periodic Hamming window, built as scipy.signal.get_window builds
    it: the general-cosine sum over n + 1 points, last point dropped."""
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, coef in enumerate((0.54, 1.0 - 0.54)):
        w += coef * np.cos(k * fac)
    return w[:-1]


# Samples per chunk of one row's Welch segments: a chunk's detrended,
# windowed and transformed arrays (16,000 float64 samples, 128 KB) stay under
# glibc's 128 KiB mmap threshold, so a long row's Welch reuses heap blocks
# rather than faulting fresh pages in for each temporary.
_WELCH_CHUNK_SAMPLES = 16_000


def welch(
    x: np.ndarray, sample_rate_hz: float, nperseg: int, detrend: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD along the last axis: periodic Hamming window of
    nperseg samples, 50% overlap, density scaling, mean over segments.
    detrend subtracts each segment's mean before windowing.  The segments
    are transformed _WELCH_CHUNK_SAMPLES // nperseg at a time into one
    (..., freq, segment) power array."""
    x = np.asarray(x, dtype=np.float64)
    noverlap = nperseg // 2
    hop = nperseg - noverlap
    n_seg = (x.shape[-1] - noverlap) // hop
    power = np.empty((*x.shape[:-1], nperseg // 2 + 1, n_seg))
    win = periodic_hamming(nperseg)
    # ShortTimeFFT.scale_to('psd'): builtin sum, divided by T = 1 / fs
    win = win * (1 / np.sqrt(sum(win * win) / (1 / sample_rate_hz)))
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=-1)
    segments = segments[..., : n_seg * hop : hop, :]
    chunk = max(1, _WELCH_CHUNK_SAMPLES // nperseg)
    for i in range(0, n_seg, chunk):
        part = segments[..., i : i + chunk, :]
        if detrend:
            part = part - part.mean(axis=-1, keepdims=True)
        spec = np.swapaxes(np.fft.rfft(part * win, axis=-1), -1, -2)
        np.add(spec.real**2, spec.imag**2, out=power[..., i : i + chunk])
    power[..., 1 : -1 if nperseg % 2 == 0 else None, :] *= 2
    # average over a C-contiguous (..., freq, segment) array, as scipy does,
    # so the pairwise summation runs in the same order
    return np.fft.rfftfreq(nperseg, 1 / sample_rate_hz), power.mean(axis=-1)


def iirnotch(
    notch_hz: float, quality: float, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """Second-order notch coefficients (b, a), as scipy.signal.iirnotch,
    which refuses a notch below 0 Hz or above Nyquist."""
    w0 = 2 * float(notch_hz) / sample_rate_hz
    if w0 > 1.0 or w0 < 0.0:
        raise ValueError("w0 should be such that 0 < w0 < 1")
    bw = w0 / float(quality) * math.pi
    w0 = w0 * math.pi
    gain = 1.0 / (1.0 + math.tan(bw / 2.0))
    b = gain * np.asarray([1.0, -2.0 * math.cos(w0), 1.0])
    a = np.asarray([1.0, -2.0 * gain * math.cos(w0), 2.0 * gain - 1.0])
    return b, a


def _biquad_steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """scipy.signal.lfilter_zi for a biquad with a[0] == 1: the state after a
    unit step has settled, solved as (I - companion(a).T) zi = B."""
    companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])
    return np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])


def _biquad_pass(
    b: np.ndarray, a: np.ndarray, state: np.ndarray, samples: np.ndarray, scratch: np.ndarray
) -> None:
    """Continue one transposed direct-form II pass over samples, a
    (k, *rows) view with k at most len(scratch), and write its output back
    into it.  The operation order is that of scipy's C lfilter kernel:

        y = z0 + b0 x;  z0 = (z1 + b1 x) - a1 y;  z1 = b2 x - a2 y

    The samples are copied into scratch, which holds (b0 x, b1 x, b2 x) of
    sample k in scratch[k] and then y in scratch[k, 0].  state is (3, rows):
    z0 and z1, carried from one call to the next, over a third row of -0.0,
    which added to b2 x changes no bit and makes each sample three array
    calls."""
    taps = scratch[: len(samples)]
    x = taps[:, 0].reshape(samples.shape)
    x[...] = samples
    np.multiply(taps[:, :1], b[1:, None], out=taps[:, 1:])
    np.multiply(taps[:, 0], b[0], out=taps[:, 0])
    z = state[:2]
    feedback = a[1:, None]
    ay = np.empty((2, taps.shape[2]))
    for tap, y, tail in zip(taps, taps[:, 0], taps[:, 1:]):
        np.add(state, tap, out=tap)
        np.multiply(feedback, y, out=ay)
        np.subtract(tail, ay, out=z)
    samples[...] = x


def filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> None:
    """Forward-backward biquad (b, a with a[0] == 1) along the last axis of
    the float64 array x, in place, as scipy.signal.filtfilt with its default
    odd padding of BIQUAD_PADLEN samples and lfilter_zi initial conditions
    scaled by each pass's first sample.

    Every row is filtered at once, _TILE samples at a time: the more rows,
    the less loop overhead each, and the only buffers besides x are one
    tile's (_TILE, 3, rows) scratch and the (BIQUAD_PADLEN, rows) pad at
    each end.  The backward pass starts from the forward output's last
    padded sample, so each sample sees scipy's arithmetic in scipy's order.
    The backward pass over the leading pad is not run: its output is cut
    off."""
    if x.dtype != np.float64:
        raise TypeError(f"filtfilt works in place on float64, got {x.dtype}")
    n = x.shape[-1]
    pad = BIQUAD_PADLEN
    if n <= pad:
        raise ValueError(
            "The length of the input vector x must be greater than padlen, "
            f"which is {pad}."
        )
    samples = np.moveaxis(x, -1, 0)  # a view, samples on the leading axis
    head = 2 * samples[0] - samples[pad:0:-1]
    tail = 2 * samples[-1] - samples[-2 : -pad - 2 : -1]
    scratch = np.empty((_TILE, 3, x.size // n))
    zi = _biquad_steady_state(b, a)[:, None]
    state = np.empty((3, scratch.shape[2]))
    state[2] = -0.0
    tiles = [samples[i : i + _TILE] for i in range(0, n, _TILE)]

    state[:2] = zi * head[0].reshape(-1)
    for part in (head, *tiles, tail):
        _biquad_pass(b, a, state, part, scratch)
    state[:2] = zi * tail[-1].reshape(-1)
    for part in (tail, *reversed(tiles)):
        _biquad_pass(b, a, state, part[::-1], scratch)
