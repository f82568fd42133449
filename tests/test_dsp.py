"""The numpy Welch PSD and zero-phase notch, held bit for bit to the
scipy.signal calls they replace (scipy is the oracle here, not a dependency
of the package)."""

import numpy as np
import pytest
from scipy import signal

from eegsong import PreprocessConfig, dsp, run_pipeline
from eegsong.core import EEG_BAND_EDGES, ChannelMask
from eegsong.features.spectral import PSD_DB_FLOOR, spectopo_bandpower
from eegsong.preprocess import (
    _rejection_measures,
    average_rereference,
    baseline_correct,
    capture_music_epochs,
    notch_filter,
)

FS = 250
SHAPES = ((), (4,), (3, 4))  # leading axes: 1-D, (C, n) and (E, C, n)


def noise(lead: tuple[int, ...], n: int, seed: int = 0) -> np.ndarray:
    """Offset, drifting noise: detrending and the DC bin both matter."""
    rng = np.random.default_rng(seed)
    drift = np.linspace(0.0, 40.0, n)
    return 30.0 * rng.normal(size=lead + (n,)) + drift + 12.5


@pytest.mark.parametrize("n_samples", [250, 251, 1000])
def test_periodic_hamming_matches_get_window(n_samples):
    assert np.array_equal(
        dsp.periodic_hamming(n_samples), signal.get_window("hamming", n_samples)
    )


@pytest.mark.parametrize(
    "notch_hz,quality,fs",
    # the last two are the ends of scipy's range, 0 Hz and Nyquist, which it accepts
    [(50.0, 25.0, 250), (60.0, 30.0, 1000), (50.0, 7.5, 250.0), (0.0, 25.0, 250), (125.0, 25.0, 250)],
)
def test_iirnotch_matches_scipy(notch_hz, quality, fs):
    b, a = dsp.iirnotch(notch_hz, quality, fs)
    b_ref, a_ref = signal.iirnotch(notch_hz, quality, fs=fs)
    assert np.array_equal(b, b_ref)
    assert np.array_equal(a, a_ref)


@pytest.mark.parametrize("notch_hz", [-5.0, -1e-9, 125.5, 200.0])
def test_iirnotch_refuses_what_scipy_refuses(notch_hz):
    with pytest.raises(ValueError, match="0 < w0 < 1"):
        signal.iirnotch(notch_hz, 25.0, fs=FS)
    with pytest.raises(ValueError, match="0 < w0 < 1"):
        dsp.iirnotch(notch_hz, 25.0, FS)


class TestWelch:
    @pytest.mark.parametrize("lead", SHAPES)
    @pytest.mark.parametrize("n_samples", [2500, 3001])
    @pytest.mark.parametrize("detrend", [False, True])
    @pytest.mark.parametrize("nperseg", [250, 251])
    def test_matches_scipy(self, lead, n_samples, detrend, nperseg):
        x = noise(lead, n_samples)
        freqs, psd = dsp.welch(x, FS, nperseg, detrend)
        freqs_ref, psd_ref = signal.welch(
            x,
            fs=FS,
            window="hamming",
            nperseg=nperseg,
            noverlap=nperseg // 2,
            detrend="constant" if detrend else False,
            scaling="density",
            average="mean",
            axis=-1,
        )
        assert np.array_equal(freqs, freqs_ref)
        assert np.array_equal(psd, psd_ref)

    @pytest.mark.parametrize("lead", SHAPES)
    @pytest.mark.parametrize("n_samples", [500, 2500, 3001])
    def test_welch_psd_matches_scipy(self, lead, n_samples):
        """spectopo's band power is the dB of scipy's Welch PSD averaged over
        each band, bit for bit."""
        x = noise(lead, n_samples, seed=1)
        freqs, psd = signal.welch(
            x, fs=FS, window="hamming", nperseg=FS, noverlap=FS // 2, detrend=False
        )
        power_db = spectopo_bandpower(x, FS)
        for name, lo, hi in EEG_BAND_EDGES:
            mean_psd = psd[..., (freqs >= lo) & (freqs < hi)].mean(axis=-1)
            expected = 10.0 * np.log10(np.maximum(mean_psd, PSD_DB_FLOOR))
            assert np.array_equal(power_db[f"spectopo_{name}"], expected)

    @pytest.mark.parametrize("n_samples", [200, 2500, 12_001])
    def test_span_power_matches_scipy_welch(self, n_samples):
        x = noise((6,), n_samples, seed=2)
        nperseg = min(n_samples, FS)
        freqs, psd = signal.welch(x, fs=FS, window="hamming", nperseg=nperseg, axis=-1)
        band = (freqs >= EEG_BAND_EDGES[0][1]) & (freqs < EEG_BAND_EDGES[-1][2])
        # each row's band summed alone, as reject_bad_channels measures one
        # channel per call (a (rows, band) sum along axis 1 rounds otherwise)
        expected = [p[band].sum() * (freqs[1] - freqs[0]) for p in psd]
        assert np.array_equal(_rejection_measures(x, FS)["spectrum"], expected)


class TestNotch:
    @pytest.mark.parametrize("lead", SHAPES)
    @pytest.mark.parametrize("n_samples", [10, 11, 13, 37, 2501])
    def test_matches_scipy_filtfilt(self, lead, n_samples):
        x = noise(lead, n_samples, seed=3)
        b, a = signal.iirnotch(50.0, 50.0 / 2.0, fs=FS)
        expected = signal.filtfilt(b, a, x, axis=-1)
        out = notch_filter(x, FS, 50.0, 2.0)
        assert out.shape == x.shape
        assert np.array_equal(out, expected)

    def test_signed_zeros_match_scipy(self):
        # array_equal takes -0.0 == 0.0; the sign bits are compared here
        x = np.zeros((2, 40))
        x[1] = -0.0
        b, a = signal.iirnotch(50.0, 25.0, fs=FS)
        expected = signal.filtfilt(b, a, x)
        assert np.array_equal(np.signbit(notch_filter(x, FS)), np.signbit(expected))

    @pytest.mark.parametrize("n_samples", [1, 5, 9])
    def test_nine_samples_or_fewer_rejected_like_filtfilt(self, n_samples):
        x = np.ones(n_samples)
        b, a = signal.iirnotch(50.0, 25.0, fs=FS)
        with pytest.raises(ValueError, match="padlen"):
            signal.filtfilt(b, a, x)
        with pytest.raises(ValueError, match="padlen"):
            notch_filter(x, FS)

    def test_run_pipeline_blocks_match_epoch_by_epoch(self, tiny_session):
        # run_pipeline filters and re-references a TINY subject's batch, one
        # block, in one call each, the notch in tiles of samples that do not
        # divide the 2,500-sample epochs
        config = PreprocessConfig()
        batch = run_pipeline(tiny_session, config)
        epochs = capture_music_epochs(tiny_session, config.epoch_seconds)
        assert len(epochs) == len(batch.data) == 8
        assert epochs[0].data.shape[-1] % dsp._TILE != 0
        all_good = ChannelMask.all_good(tiny_session.n_channels)
        for got, ep in zip(batch.epochs, epochs):
            expected = average_rereference(notch_filter(baseline_correct(ep).data, FS), all_good)
            # run_pipeline rounds each block into its float32 batch
            assert np.array_equal(got.data, expected.astype(np.float32))


class TestFiltfiltInPlace:
    """dsp.filtfilt walks its argument in tiles of samples and overwrites it."""

    @pytest.mark.parametrize("n_samples", [10, 11, 37, dsp._TILE, 2501])
    def test_batch_matches_scipy_filtfilt(self, n_samples):
        x = noise((3, 4), n_samples, seed=5)
        b, a = signal.iirnotch(50.0, 25.0, fs=FS)
        expected = signal.filtfilt(b, a, x, axis=-1)
        y = x.copy()
        assert dsp.filtfilt(b, a, y) is None
        assert np.array_equal(y, expected)

    def test_writes_into_its_argument(self):
        # a strided view: the rows it covers are filtered where they lie and
        # the rows between them are not touched
        whole = noise((4, 6), 300, seed=6)
        before = whole.copy()
        view = whole[:, ::2]
        b, a = signal.iirnotch(50.0, 25.0, fs=FS)
        dsp.filtfilt(b, a, view)
        assert np.array_equal(whole[:, ::2], signal.filtfilt(b, a, before[:, ::2]))
        assert np.array_equal(whole[:, 1::2], before[:, 1::2])

    @pytest.mark.parametrize("n_samples", [1, 5, 9])
    def test_nine_samples_or_fewer_raise_and_leave_the_input(self, n_samples):
        x = noise((2, 3), n_samples, seed=7)
        before = x.copy()
        b, a = signal.iirnotch(50.0, 25.0, fs=FS)
        with pytest.raises(ValueError, match="padlen"):
            dsp.filtfilt(b, a, x)
        assert np.array_equal(x, before)


def test_notch_filter_leaves_its_input_alone():
    # notch_filter copies, then filters the copy in place
    x = noise((2, 3), 100, seed=4)
    before = x.copy()
    out = notch_filter(x, FS)
    assert not np.shares_memory(out, x)
    assert np.array_equal(x, before)
