"""Child process for traced runs: the signal path, layer by layer.

    python walk.py --gen GEN.json --out DIR

Generates, writes and reads back every subject's session; runs each
preprocessing step as its own public call and then run_pipeline as a whole;
saves and loads the pooled epochs; builds one feature matrix per family; and
writes the dataset CSV of all families.  Every call is wrapped in a
span.  Prints one JSON object (spans and counts) as its last line.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from eegsong import (
    ChannelMask,
    Dataset,
    GeneratorConfig,
    PreprocessConfig,
    build_feature_matrix,
    generate_session,
    read_session,
    run_pipeline,
    write_dataset_csv,
    write_session,
)
from eegsong.features import FEATURE_FAMILIES
from eegsong.preprocess import (
    EpochsFile,
    average_rereference,
    baseline_correct,
    capture_music_epochs,
    load_epochs,
    notch_filter,
    reject_bad_channels,
    save_epochs,
)

from spans import Tracer


def preprocess_steps(tracer: Tracer, session, config: PreprocessConfig) -> ChannelMask:
    """The default step order, one public call per step."""
    fs = session.sample_rate_hz
    with tracer.span("preprocess.capture"):
        epochs = capture_music_epochs(session, config.epoch_seconds)
    with tracer.span("preprocess.baseline"):
        epochs = [baseline_correct(ep) for ep in epochs]
    with tracer.span("preprocess.notch"):
        epochs = [
            ep.with_data(notch_filter(ep.data, fs, config.notch_hz, config.notch_bandwidth_hz))
            for ep in epochs
        ]
    mask = ChannelMask.all_good(session.n_channels)
    with tracer.span("preprocess.rereference"):
        epochs = [ep.with_data(average_rereference(ep.data, mask)) for ep in epochs]
    with tracer.span("preprocess.bad_channels"):
        concat = np.concatenate([ep.data for ep in epochs], axis=1)
        return reject_bad_channels(concat, config.rejection_zscore, fs)


def merge_families(parts: list[Dataset]) -> Dataset:
    """Column-wise union of single-family datasets over the same epochs."""
    first = parts[0]
    return Dataset(
        X=np.hstack([d.X for d in parts]),
        feature_names=tuple(name for d in parts for name in d.feature_names),
        labels=first.labels,
        song_id=first.song_id,
        subject_id=first.subject_id,
        epoch_index=first.epoch_index,
        enjoyment=first.enjoyment,
        familiarity=first.familiarity,
    )


def walk(tracer: Tracer, gen: GeneratorConfig, out: Path) -> dict:
    config = PreprocessConfig()
    sessions_dir = out / "sessions"
    epochs, masks, ratings = [], {}, {}
    for subject_id in range(1, gen.n_subjects + 1):
        with tracer.span("synth.generate_session"):
            session = generate_session(gen, subject_id)
        with tracer.span("synth.write_session"):
            manifest = write_session(session, sessions_dir)
        del session
        with tracer.span("synth.read_session"):
            session = read_session(manifest)
        step_mask = preprocess_steps(tracer, session, config)
        with tracer.span("preprocess.run_pipeline"):
            result = run_pipeline(session, config)
        if not np.array_equal(step_mask.good, result.channel_mask.good):
            raise SystemExit("step-by-step preprocessing disagrees with run_pipeline")
        epochs.extend(result.epochs)
        masks[subject_id] = result.channel_mask
        ratings.update({(subject_id, s): pair for s, pair in session.ratings.items()})

    epochs_path = out / "epochs.npz"
    with tracer.span("preprocess.save_epochs"):
        save_epochs(
            epochs_path,
            EpochsFile(tuple(epochs), masks, ratings, sample_rate_hz=gen.sample_rate_hz),
        )
    del epochs
    with tracer.span("preprocess.load_epochs"):
        loaded = load_epochs(epochs_path)

    parts = []
    for family in FEATURE_FAMILIES:
        with tracer.span(f"features.{family}"):
            parts.append(build_feature_matrix(loaded.epochs, [family], ratings=loaded.ratings))
    dataset = merge_families(parts)
    dataset_path = out / "dataset.csv"
    with tracer.span("features.write_csv"):
        write_dataset_csv(dataset, dataset_path)

    return {
        "epochs": len(loaded.epochs),
        "channels_rejected": sum(int((~m.good).sum()) for m in masks.values()),
        "epochs_npz_mb": epochs_path.stat().st_size / 1e6,
        "dataset_mb": dataset_path.stat().st_size / 1e6,
        "columns": dataset.width,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--gen", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    gen = GeneratorConfig(**json.loads(args.gen.read_text()))
    tracer = Tracer()
    counts = walk(tracer, gen, args.out)
    print(json.dumps({"counts": counts, "spans": tracer.spans}))


if __name__ == "__main__":
    main()
