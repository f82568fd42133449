"""Command-line front end: seeded, reproducible runs of the full pipeline.

Every subcommand reads one resolved RunConfig (JSON file plus flag overrides),
prints it, and writes its artifact under --out with a .meta.json sidecar of
the stage and config, so any file can be regenerated from its own metadata in
any directory: an artifact's bytes depend only on its config and inputs.
evaluate and pipeline score the held-out fold once per directory: they refuse
one that holds report.txt unless --force is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import (
    FEATURE_FAMILIES,
    SECTION_FLAGS,
    RunConfig,
    load_run_config,
)
from .core import PipelineError, atomic_write

if TYPE_CHECKING:
    from .evaluation import SplitPlan
    from .preprocess import EpochsWriter

SESSIONS_DIR = "sessions"
EPOCHS_FILE = "epochs.npz"
DATASET_FILE = "dataset.csv"
PLAN_FILE = "plan.csv"
MODEL_FILE = "model.npz"
REPORT_FILE = "report.txt"
CONFUSION_FILE = "confusion.csv"


def _sessions_mismatch(config: RunConfig, out: Path) -> str | None:
    """Why the sessions under out cannot serve config, or None when they can:
    the sessions sidecar must record config's generator, and each of its
    subjects must open as a SessionReader, which checks that the manifest was
    written by this GENERATOR_VERSION, that the samples have the manifest's
    length and that the events parse."""
    from .synth import MANIFEST_NAME, SessionFormatError, SessionReader, session_dir_name

    sessions_dir = out / SESSIONS_DIR
    if not sessions_dir.is_dir():
        return f"no session directory at {sessions_dir}; run `generate` first"
    sidecar = Path(str(sessions_dir) + ".meta.json")
    try:
        recorded = json.loads(sidecar.read_text())["config"]["generator"]
    except (OSError, ValueError, KeyError, TypeError):
        recorded = None
    if not isinstance(recorded, dict):
        return (
            f"{sessions_dir}: no sessions sidecar records the generator config; "
            "run `generate` again"
        )
    wanted = dataclasses.asdict(config.generator)
    changed = sorted(
        k for k in wanted.keys() | recorded.keys() if recorded.get(k) != wanted.get(k)
    )
    if changed:
        was = ", ".join(f"{k}={recorded.get(k)!r}" for k in changed)
        now = ", ".join(f"{k}={wanted.get(k)!r}" for k in changed)
        return (
            f"{sessions_dir}: generated with {was}, but this run has {now}; "
            "run `generate` again"
        )
    n_subjects = config.generator.n_subjects
    missing = []
    for subject_id in range(1, n_subjects + 1):
        try:
            SessionReader(sessions_dir / session_dir_name(subject_id) / MANIFEST_NAME).close()
        except FileNotFoundError:
            missing.append(subject_id)
        except SessionFormatError as exc:
            return str(exc)
    if missing:
        return (
            f"{sessions_dir}: sessions of subjects {missing} of the {n_subjects} "
            "are missing; run `generate` again"
        )
    return None


# A stage's run function takes the config and the run directory, writes the
# stage's artifact there and returns its summary line.  Each imports what it
# runs, so a stage process loads only its own modules.


def _generate(config: RunConfig, out: Path) -> str:
    from .synth import write_generated_session

    sessions_dir = out / SESSIONS_DIR
    for subject_id in range(1, config.generator.n_subjects + 1):
        write_generated_session(config.generator, subject_id, sessions_dir)
    return f"wrote {config.generator.n_subjects} sessions under {sessions_dir}"


def _preprocess_subject(config: RunConfig, out: Path, subject_id: int, writer: EpochsWriter) -> None:
    """Open, check and preprocess one subject's session into writer: the
    capture reads each song's channel rows from the samples file, so the
    session is never in memory whole, and nothing of the subject is kept
    once this returns."""
    from .core import validate_session
    from .preprocess import run_pipeline
    from .synth import MANIFEST_NAME, SessionReader, session_dir_name

    manifest = out / SESSIONS_DIR / session_dir_name(subject_id) / MANIFEST_NAME
    with SessionReader(manifest) as session:
        violations = validate_session(session)
        if session.subject_id != subject_id:
            violations.append(f"manifest records subject {session.subject_id}")
        if violations:
            raise PipelineError(f"{manifest.parent}: " + "; ".join(violations))
        try:
            batch = run_pipeline(session, config.preprocess)
        except (ValueError, PipelineError) as exc:
            raise PipelineError(f"{manifest.parent}: {exc}") from exc
        writer.add(batch, session.ratings)


def _preprocess(config: RunConfig, out: Path) -> str:
    """Preprocess every subject into epochs.npz, one subject in memory at a
    time: each subject's batch is written as soon as it is ready."""
    from .preprocess import write_epochs

    mismatch = _sessions_mismatch(config, out)
    if mismatch:
        raise PipelineError(mismatch)
    path = out / EPOCHS_FILE
    with write_epochs(path) as writer:
        for subject_id in range(1, config.generator.n_subjects + 1):
            _preprocess_subject(config, out, subject_id, writer)
    return f"{writer.n_epochs} epochs from {config.generator.n_subjects} subjects -> {path}"


def _features(config: RunConfig, out: Path) -> str:
    """Featurize epochs.npz one epoch at a time."""
    from .features import build_feature_matrix, write_dataset_csv
    from .preprocess import EpochsReader

    with EpochsReader(out / EPOCHS_FILE) as reader:
        dataset = build_feature_matrix(
            reader.epochs(), config.features, ratings=reader.ratings
        )
    path = out / DATASET_FILE
    write_dataset_csv(dataset, path)
    return f"{dataset.n_rows} rows x {dataset.width} features -> {path}"


def _split(config: RunConfig, out: Path) -> str:
    from .evaluation import split_dataset, write_plan
    from .features import read_dataset_csv

    dataset = read_dataset_csv(out / DATASET_FILE)
    _, test, plan = split_dataset(dataset, config.test_fraction, config.seed)
    path = out / PLAN_FILE
    write_plan(plan, path)
    return f"{test.n_rows} of {dataset.n_rows} rows held out -> {path}"


def _read_plan(config: RunConfig, out: Path) -> SplitPlan:
    """The split plan under out, refused unless split with config's seed and
    test_fraction."""
    from .evaluation import read_plan

    path = out / PLAN_FILE
    plan = read_plan(path)
    for name in ("seed", "test_fraction"):
        planned, wanted = getattr(plan, name), getattr(config, name)
        if planned != wanted:
            raise PipelineError(
                f"{path}: split with {name}={planned!r}, but this run has "
                f"{name}={wanted!r}; run `split` again"
            )
    return plan


def _train(config: RunConfig, out: Path) -> str:
    from .evaluation import apply_plan
    from .features import read_dataset_csv
    from .models import fit_dataset, save_model

    dataset = read_dataset_csv(out / DATASET_FILE)
    train, _ = apply_plan(dataset, _read_plan(config, out))
    path = out / MODEL_FILE
    save_model(fit_dataset(config.model, train), path)
    return f"{config.model.kind} fitted on {train.n_rows} rows -> {path}"


def _evaluate(config: RunConfig, out: Path) -> str:
    from .evaluation import apply_plan, evaluate, write_report
    from .features import read_dataset_csv
    from .models import load_model

    _, test = apply_plan(read_dataset_csv(out / DATASET_FILE), _read_plan(config, out))
    report = evaluate(load_model(out / MODEL_FILE), test)
    write_report(report, out / REPORT_FILE)
    return (
        f"accuracy {report.overall_accuracy_pct:.2f}% on "
        f"{report.n_test} held-out rows (chance {report.chance_pct:.2f}%)"
    )


def _report(config: RunConfig, out: Path) -> str:
    from .evaluation import read_report, render_confusion

    report = read_report(out / REPORT_FILE)
    csv_path, pgm_path = render_confusion(report, out)
    return f"wrote {csv_path} and {pgm_path}"


# stage -> (help, the artifact under --out its sidecar describes, run), in
# pipeline order
STAGES = {
    "generate": ("write synthetic listening sessions", SESSIONS_DIR, _generate),
    "preprocess": ("turn sessions into cleaned epochs", EPOCHS_FILE, _preprocess),
    "features": ("turn epochs into a feature dataset CSV", DATASET_FILE, _features),
    "split": ("write a held-out split plan", PLAN_FILE, _split),
    "train": ("fit a model on the training fold", MODEL_FILE, _train),
    "evaluate": ("score the held-out fold and write the report", REPORT_FILE, _evaluate),
    "report": ("render confusion CSV + graymap from a report", CONFUSION_FILE, _report),
}


def run_stage(name: str, config: RunConfig, out: Path) -> None:
    """Log the config, run the stage in out, write the sidecar beside its
    artifact and print its summary."""
    resolved = dataclasses.asdict(config)
    print(f"[{name}] config: {json.dumps(resolved, sort_keys=True)}")
    _, artifact, run = STAGES[name]
    summary = run(config, out)
    meta = {"stage": name, "config": resolved}
    with atomic_write(f"{out / artifact}.meta.json") as tmp:
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"[{name}] {summary}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="seed for every stochastic stage")
    common.add_argument("--out", metavar="DIR", default="run", help="artifact directory (default: run)")
    common.add_argument(
        "--features", metavar="LIST", help=f"comma-separated subset of {','.join(FEATURE_FAMILIES)}"
    )
    common.add_argument("--test-fraction", type=float, dest="test_fraction", help="held-out fraction")
    for flag, (_, _, kind, metavar, help_text) in SECTION_FLAGS.items():
        common.add_argument(flag, type=kind, metavar=metavar, help=help_text)

    parser = argparse.ArgumentParser(
        prog="eegsong",
        description="Synthetic EEG music-decoding pipeline: generate, preprocess, "
        "extract features, train, and evaluate with one seeded config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {name: help_text for name, (help_text, _, _) in STAGES.items()}
    helps["pipeline"] = "run every stage in order with one seed"
    for name, help_text in helps.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if name in ("evaluate", "pipeline"):
            sp.add_argument(
                "--force", action="store_true", help="score again although --out holds report.txt"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        config = load_run_config(args)
        out = Path(args.out)
        report = out / REPORT_FILE
        if args.command in ("evaluate", "pipeline") and report.exists() and not args.force:
            raise PipelineError(
                f"{report} exists: the held-out fold is scored once. "
                "Pass --force to score it again."
            )
        out.mkdir(parents=True, exist_ok=True)
        if args.command != "pipeline":
            run_stage(args.command, config, out)
            return 0
        for name in STAGES:
            if name == "generate" and _sessions_mismatch(config, out) is None:
                print(f"[pipeline] reusing sessions under {out / SESSIONS_DIR}")
            else:
                run_stage(name, config, out)
    except (ValueError, PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
