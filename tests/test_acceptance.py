"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy end-to-end checks run the real generator + pipeline at three
operating points: fully separable (high accuracy), zero separation (chance),
and an intermediate separation where ordering among models is meaningful.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy import stats

from eegsong.cli import main as cli_main
from eegsong.core import ChannelMask
from eegsong.evaluation import evaluate, evaluate_ratings, split_dataset
from eegsong.features import build_feature_matrix
from eegsong.features.dfa import dfa
from eegsong.features.wavelet import DB8_HIGHPASS, DB8_LOWPASS, dwt_multilevel
from eegsong.models import MODEL_KINDS, ModelSpec, fit, fit_dataset
from eegsong.models.neural import init_mlp, mlp_loss_and_grads
from eegsong.preprocess import (
    PreprocessConfig,
    average_rereference,
    notch_filter,
    run_pipeline,
)
from eegsong.synth import GeneratorConfig, generate_session

Z_99 = float(stats.norm.ppf(0.995))  # two-sided 99%


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def build_corpus(n_subjects: int, class_separation: float, seed: int):
    gen = GeneratorConfig(
        n_subjects=n_subjects, class_separation=class_separation, seed=seed
    )
    ratings = {}

    def epochs():
        # one subject's session, then its float32 batch, alive at a time,
        # and one float64 Epoch of the batch
        for subject_id in range(1, n_subjects + 1):
            session = generate_session(gen, subject_id)
            for song_id, pair in session.ratings.items():
                ratings[(subject_id, song_id)] = pair
            batch = run_pipeline(session, PreprocessConfig())
            del session
            yield from batch.epochs
            del batch

    return build_feature_matrix(epochs(), ["spectopo"], ratings=ratings)


@pytest.fixture(scope="module")
def separable_run():
    started = time.monotonic()
    dataset = build_corpus(20, 1.0, seed=0)
    train, test, _ = split_dataset(dataset, 1 / 3, seed=0)
    model = fit_dataset(ModelSpec(kind="knn", seed=0), train)
    accuracy = evaluate(model, test).overall_accuracy_pct
    return accuracy, time.monotonic() - started


@pytest.fixture(scope="module")
def null_corpus():
    return build_corpus(4, 0.0, seed=1)


@pytest.fixture(scope="module")
def intermediate_corpus():
    return build_corpus(6, 0.35, seed=5)


@pytest.fixture(scope="module")
def rating_corpus():
    return build_corpus(4, 1.0, seed=2)


def test_criterion_01_separable_regime_accuracy(separable_run):
    accuracy, elapsed = separable_run
    ok = accuracy >= 80.0 and elapsed < 300.0
    verdict(1, ok, f"knn+band-power accuracy {accuracy:.2f}% (floor 80%) in {elapsed:.0f}s (limit 300s)")


def test_criterion_02_null_regime_all_models_at_chance(null_corpus):
    train, test, _ = split_dataset(null_corpus, 1 / 3, seed=1)
    chance = 100.0 / 12.0
    half_width = 100.0 * Z_99 * np.sqrt((1 / 12) * (11 / 12) / test.n_rows)
    lo, hi = chance - half_width, chance + half_width
    results = {}
    for kind in MODEL_KINDS:
        model = fit_dataset(ModelSpec(kind=kind, seed=1), train)
        results[kind] = evaluate(model, test).overall_accuracy_pct
    ok = all(lo <= acc <= hi for acc in results.values())
    listing = " ".join(f"{k}={v:.2f}" for k, v in results.items())
    verdict(2, ok, f"chance band [{lo:.2f}, {hi:.2f}]% over {test.n_rows} rows: {listing}")


def test_criterion_03_intermediate_regime_ordering(intermediate_corpus):
    train, test, _ = split_dataset(intermediate_corpus, 1 / 3, seed=5)
    results = {}
    for kind in ("knn", "gboost", "mlp"):
        model = fit_dataset(ModelSpec(kind=kind, seed=5), train)
        results[kind] = evaluate(model, test).overall_accuracy_pct
    floor = 3 * 100.0 / 12.0
    ok = 20.0 <= results["knn"] <= 60.0 and all(v >= floor for v in results.values())
    listing = " ".join(f"{k}={v:.2f}" for k, v in results.items())
    verdict(3, ok, f"knn within [20, 60] and all three >= {floor:.0f}%: {listing}")


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    spectrum = np.fft.rfft(rng.standard_normal(n))
    k = np.arange(spectrum.shape[0], dtype=float)
    k[0] = 1.0
    spectrum /= np.sqrt(k)
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n)


def test_criterion_04_dfa_exponents():
    white, pink = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        white.append(dfa(rng.standard_normal(10000)).alpha)
        pink.append(dfa(_pink_noise(rng, 10000)).alpha)
    w, p = float(np.mean(white)), float(np.mean(pink))
    ok = abs(w - 0.5) <= 0.05 and abs(p - 1.0) <= 0.10
    verdict(4, ok, f"white alpha {w:.3f} (0.50±0.05), pink alpha {p:.3f} (1.00±0.10)")


def _dwt_transpose(coeffs):
    """The transpose of dwt_multilevel's analysis operator, from the
    coarsest level down: its inverse when every level length is even."""
    x = coeffs.approx
    for detail in reversed(coeffs.details):
        n = x.shape[-1] * 2
        rebuilt = np.zeros(x.shape[:-1] + (n,))
        idx = (2 * np.arange(n // 2)[:, None] + np.arange(16)[None, :]) % n
        np.add.at(rebuilt, (..., idx), x[..., :, None] * DB8_LOWPASS)
        np.add.at(rebuilt, (..., idx), detail[..., :, None] * DB8_HIGHPASS)
        x = rebuilt
    return x


def test_criterion_05_wavelet_reconstruction():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048)
    coeffs = dwt_multilevel(x, 5)
    recon_err = np.linalg.norm(_dwt_transpose(coeffs) - x) / np.linalg.norm(x)
    coeff_energy = np.sum(coeffs.approx**2) + sum(np.sum(d**2) for d in coeffs.details)
    energy_err = abs(coeff_energy - np.sum(x**2)) / np.sum(x**2)
    flat = dwt_multilevel(np.full(1024, 3.7), 5)
    detail_energy = sum(np.sum(d**2) for d in flat.details)
    ok = recon_err <= 1e-8 and energy_err <= 1e-9 and detail_energy < 1e-10
    verdict(
        5,
        ok,
        f"reconstruction {recon_err:.2e} (<=1e-8), energy drift {energy_err:.2e} "
        f"(<=1e-9), constant-input detail energy {detail_energy:.2e} (<1e-10)",
    )


def test_criterion_06_notch_filter_response():
    fs = 250.0
    t = np.arange(int(10 * fs)) / fs
    trim = slice(int(fs), -int(fs))

    def rms_change_db(freq: float) -> float:
        x = np.sin(2 * np.pi * freq * t)
        y = notch_filter(x, fs)
        return 20.0 * np.log10(
            np.sqrt(np.mean(y[trim] ** 2)) / np.sqrt(np.mean(x[trim] ** 2))
        )

    at_50 = -rms_change_db(50.0)
    at_10 = abs(rms_change_db(10.0))
    ok = at_50 >= 40.0 and at_10 <= 0.1
    verdict(6, ok, f"50 Hz attenuated {at_50:.1f} dB (>=40), 10 Hz changed {at_10:.4f} dB (<=0.1)")


def test_criterion_07_average_reference():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=40.0, size=(16, 5000))
    mask = ChannelMask(good=np.isin(np.arange(16), [3, 9], invert=True))
    once = average_rereference(x, mask)
    residual = float(np.abs(once[mask.good].mean(axis=0)).max())
    twice = average_rereference(once, mask)
    drift = float(np.abs(twice - once).max())
    ok = residual < 1e-10 and drift < 1e-10
    verdict(7, ok, f"good-channel mean {residual:.2e} (<1e-10), reapplication drift {drift:.2e} (<1e-10)")


def test_criterion_08_mlp_gradient_check():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 4))
    y = rng.integers(0, 3, size=12)
    params = init_mlp(rng, 4, 8, 3)
    _, grads = mlp_loss_and_grads(params, X, y, 3)
    step = 1e-5
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = mlp_loss_and_grads(params, X, y, 3)
            flat[i] = orig - step
            down, _ = mlp_loss_and_grads(params, X, y, 3)
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            analytic = grads[name].reshape(-1)[i]
            worst = max(
                worst,
                abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-8),
            )
    ok = worst < 1e-4
    verdict(8, ok, f"4-8-3 network, max relative gradient error {worst:.2e} (<1e-4)")


def test_criterion_09_training_monotonicity():
    rng = np.random.default_rng(5)
    centers = [(-4.0, 0.0, 1.0), (4.0, 0.0, -1.0), (0.0, 6.0, 0.0)]
    X = np.vstack([c + rng.normal(scale=2.0, size=(40, 3)) for c in centers])
    y = np.repeat(np.arange(3), 40)
    gmm = fit(ModelSpec(kind="gmm", seed=0), X, y).params["loglik"]
    km = fit(ModelSpec(kind="kmeans", seed=0), X, y).params["objective"]
    gb = fit(ModelSpec(kind="gboost", gboost_rounds=60, seed=0), X, y).params["train_loss"]
    gmm_ok = bool(np.all(np.diff(gmm) >= -1e-8))
    km_ok = bool(np.all(np.diff(km) <= 1e-8))
    gb_ok = bool(np.all(np.diff(gb) <= 1e-8))
    ok = gmm_ok and km_ok and gb_ok
    verdict(
        9,
        ok,
        f"gmm log-likelihood non-decreasing={gmm_ok}, kmeans objective "
        f"non-increasing={km_ok}, gboost loss non-increasing={gb_ok}",
    )


def test_criterion_10_evaluation_identities(null_corpus, tmp_path):
    train, test, plan = split_dataset(null_corpus, 1 / 3, seed=1)
    report = evaluate(fit_dataset(ModelSpec(kind="knn", seed=1), train), test)
    trace_exact = report.overall_accuracy_pct == 100.0 * np.trace(report.confusion) / report.n_test
    mass_exact = int(report.confusion.sum()) == report.n_test
    counts_exact = (
        all(n == 4 for _, _, n in plan.strata)
        and len(plan.strata) == 4 * 12
        and test.n_rows == 192
        and train.n_rows + test.n_rows == null_corpus.n_rows
    )

    config = {
        "seed": 3,
        "features": ["spectopo"],
        "generator": {
            "n_subjects": 2,
            "n_songs": 4,
            "song_seconds": 20,
            "inter_song_silence_seconds": 10,
            "lead_silence_seconds": 20,
            "trail_silence_seconds": 10,
            "sample_rate_hz": 250,
            "n_channels": 8,
            "n_bad_channels": 1,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append(
            tuple(
                (out / name).read_bytes()
                for name in ("dataset.csv", "plan.csv", "report.txt", "confusion.csv", "confusion.pgm")
            )
        )
    bytes_identical = blobs[0] == blobs[1]

    ok = trace_exact and mass_exact and counts_exact and bytes_identical
    verdict(
        10,
        ok,
        f"trace/total exact={trace_exact}, counts exact={counts_exact}, "
        f"same-seed reruns byte-identical={bytes_identical}",
    )


def test_criterion_11_enjoyment_recovery(rating_corpus):
    recovered = [
        evaluate_ratings(
            ModelSpec(kind="knn", seed=seed), rating_corpus, "enjoyment", seed=seed
        ).report.overall_accuracy_pct
        for seed in range(5)
    ]
    shuffled_corpus = dataclasses.replace(
        rating_corpus,
        enjoyment=np.random.default_rng(3).permutation(rating_corpus.enjoyment),
    )
    shuffled = [
        evaluate_ratings(
            ModelSpec(kind="knn", seed=seed), shuffled_corpus, "enjoyment", seed=seed
        ).report.overall_accuracy_pct
        for seed in range(5)
    ]
    n_test = 192  # 4 subjects x 12 songs x 4 held-out epochs
    half_width = 100.0 * Z_99 * np.sqrt(0.2 * 0.8 / n_test)
    lo, hi = 20.0 - half_width, 20.0 + half_width
    mean_recovered = float(np.mean(recovered))
    mean_shuffled = float(np.mean(shuffled))
    ok = min(recovered) >= 90.0 and lo <= mean_shuffled <= hi
    verdict(
        11,
        ok,
        f"planted-rating accuracy mean {mean_recovered:.2f}% / min {min(recovered):.2f}% "
        f"(floor 90%), shuffled control {mean_shuffled:.2f}% within [{lo:.2f}, {hi:.2f}]%",
    )
