"""Child process of traced runs: every model kind on one dataset.

    python zoo.py --dataset DATASET.csv --out DIR --seed N

Loads the feature set, then for every model kind splits, fits, saves, loads,
predicts and evaluates it; finally evaluates knn on enjoyment ratings.
Writes one model, report and confusion per kind under DIR, wraps every call
in a span, and prints one JSON object (per-kind results and spans) as its
last line.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from eegsong import (
    ModelSpec,
    evaluate,
    evaluate_ratings,
    fit_dataset,
    load_model,
    predict_labels,
    read_dataset_csv,
    render_confusion,
    save_model,
    split_dataset,
)
from eegsong.evaluation import DEFAULT_TEST_FRACTION, write_report
from eegsong.models import MODEL_KINDS

from spans import Tracer


def zoo_pass(dataset_path: Path, out: Path, seed: int, tracer: Tracer) -> dict:
    kinds = {}
    with tracer.span("features.read_csv"):
        dataset = read_dataset_csv(dataset_path)
    for kind in MODEL_KINDS:
        kind_dir = out / kind
        with tracer.span("evaluation.split"):
            train, test, _ = split_dataset(dataset, DEFAULT_TEST_FRACTION, seed)
        with tracer.span(f"models.{kind}.fit"):
            model = fit_dataset(ModelSpec(kind=kind, seed=seed), train)
        with tracer.span("models.save_load"):
            save_model(model, kind_dir / "model.npz")
            model = load_model(kind_dir / "model.npz")
        with tracer.span(f"models.{kind}.predict"):
            predicted = predict_labels(model, test.X)
        with tracer.span("evaluation.evaluate"):
            report = evaluate(model, test)
        with tracer.span("evaluation.write_report"):
            write_report(report, kind_dir / "report.txt")
        with tracer.span("evaluation.render_confusion"):
            render_confusion(report, kind_dir)
        iters = model.params.get("objective", model.params.get("loglik"))
        kinds[kind] = {
            "accuracy_pct": report.overall_accuracy_pct,
            "predicted_pct": 100.0 * float(np.mean(predicted == test.labels)),
            "iters": None if iters is None else int(np.asarray(iters).shape[0]),
        }
    with tracer.span("evaluation.ratings"):
        rated = evaluate_ratings(
            ModelSpec(kind="knn", seed=seed), dataset, "enjoyment", seed=seed
        )
    write_report(rated.report, out / "ratings_enjoyment.txt", mae=rated.mae, target="enjoyment")
    return {"kinds": kinds}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    tracer = Tracer()
    result = zoo_pass(args.dataset, args.out, args.seed, tracer)
    result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
