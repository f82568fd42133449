"""Command-line front end: seeded, reproducible runs of the full pipeline.

Every subcommand reads one resolved RunConfig (JSON file plus flag overrides),
prints it, and writes its artifact under --out with a .meta.json sidecar
embedding the config and seed, so any file can be regenerated from its own
metadata.  Running the same command twice produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .core import PipelineError, atomic_write, validate_session
from .evaluation import (
    DEFAULT_TEST_FRACTION,
    EvalError,
    apply_plan,
    evaluate,
    held_out_rows,
    mark_plan_consumed,
    read_plan,
    read_report,
    render_confusion,
    split_dataset,
    write_plan,
    write_report,
)
from .features import FEATURE_FAMILIES, build_feature_matrix, read_dataset_csv, write_dataset_csv
from .features.spectral import SPECTOPO_MIN_SECONDS
from .models import MODEL_KINDS, ModelSpec, fit_dataset, load_model, save_model
from .preprocess import (
    MIN_REJECTION_CHANNELS,
    EpochsReader,
    EpochsWriter,
    PreprocessConfig,
    run_pipeline,
    write_epochs,
)
from .synth import (
    EVENTS_NAME,
    MANIFEST_NAME,
    SAMPLES_NAME,
    GeneratorConfig,
    SessionReader,
    generate_session,
    session_dir_name,
    write_session,
)

SESSIONS_DIR = "sessions"
EPOCHS_FILE = "epochs.npz"
DATASET_FILE = "dataset.csv"
PLAN_FILE = "plan.csv"
MODEL_FILE = "model.npz"
REPORT_FILE = "report.txt"
CONFUSION_FILE = "confusion.csv"


class ConfigError(ValueError):
    """Config file or override cannot be turned into a valid RunConfig."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "run"
    features: tuple[str, ...] = FEATURE_FAMILIES
    test_fraction: float = DEFAULT_TEST_FRACTION
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelSpec = field(default_factory=lambda: ModelSpec(kind="knn"))

    @property
    def out(self) -> Path:
        return Path(self.out_dir)


_TOP_KEYS = ("seed", "out_dir", "features", "test_fraction", "generator", "preprocess", "model")
_SECTIONS = {"generator": GeneratorConfig, "preprocess": PreprocessConfig, "model": ModelSpec}

# flags that set one field of a config section: flag -> (section, field, type,
# metavar, help)
_SECTION_FLAGS = {
    "--subjects": ("generator", "n_subjects", int, None, "number of synthetic subjects"),
    "--channels": ("generator", "n_channels", int, None, "channels per synthetic session"),
    "--epoch-seconds": (
        "preprocess", "epoch_seconds", int, None,
        "epoch length within each song; must divide the song length",
    ),
    "--model": ("model", "kind", str, "KIND", f"model kind ({', '.join(MODEL_KINDS)})"),
}


# JSON has one number type, so a count in a config file may come as 2.5, 8.0 or
# true: a numeric field takes only its annotated type (never a bool), an int
# where a float is meant, and null where None is
_FIELD_VALUES = {
    int: ((int,), "an integer"),
    int | None: ((int, type(None)), "an integer or null"),
    float: ((int, float), "a number"),
    float | None: ((int, float, type(None)), "a number or null"),
}


def _section_kwargs(raw: dict, section: str) -> dict:
    data = raw.get(section, {})
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    types = typing.get_type_hints(_SECTIONS[section])
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown {section} config key {key!r}")
        if types[key] in _FIELD_VALUES:
            allowed, kind = _FIELD_VALUES[types[key]]
            if type(value) not in allowed:
                raise ConfigError(f"{section} config key {key!r} must be {kind}, got {value!r}")
    return dict(data)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    seed = raw.get("seed", 0) if args.seed is None else args.seed
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    sections = {section: _section_kwargs(raw, section) for section in _SECTIONS}
    # flag --seed overrides every section seed; otherwise the top-level seed
    # fills in sections that did not set their own
    for section in ("generator", "model"):
        if args.seed is not None:
            sections[section]["seed"] = seed
        else:
            sections[section].setdefault("seed", seed)
    for flag, (section, key, *_) in _SECTION_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            sections[section][key] = value
    sections["model"].setdefault("kind", "knn")

    features = raw.get("features", list(FEATURE_FAMILIES))
    if args.features is not None:
        features = [name.strip() for name in args.features.split(",") if name.strip()]
    if not isinstance(features, (list, tuple)) or not features:
        raise ConfigError("features must be a non-empty list")
    unknown = set(features) - set(FEATURE_FAMILIES)
    if unknown:
        raise ConfigError(
            f"unknown feature families {sorted(unknown)}; choose from {FEATURE_FAMILIES}"
        )

    test_fraction = raw.get("test_fraction", DEFAULT_TEST_FRACTION)
    if args.test_fraction is not None:
        test_fraction = args.test_fraction
    try:
        test_fraction = float(test_fraction)
    except (TypeError, ValueError):
        raise ConfigError(
            f"test_fraction must be a number, got {test_fraction!r}"
        ) from None
    out_dir = raw.get("out_dir", "run") if args.out is None else args.out

    try:
        config = RunConfig(
            seed=seed,
            out_dir=str(out_dir),
            features=tuple(features),
            test_fraction=test_fraction,
            **{section: cls(**sections[section]) for section, cls in _SECTIONS.items()},
        )
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    song_seconds = config.generator.song_seconds
    epoch_seconds = config.preprocess.epoch_seconds
    if song_seconds % epoch_seconds != 0:
        raise ConfigError(
            f"epoch_seconds {epoch_seconds} does not divide the "
            f"{song_seconds} s songs"
        )
    fraction = config.test_fraction
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {fraction}")
    per_song = song_seconds // epoch_seconds
    n_test = held_out_rows(fraction, per_song)
    if n_test in (0, per_song):
        raise ConfigError(
            f"test_fraction {fraction} holds out {n_test} of the {per_song} "
            "epochs of each song, leaving an empty fold"
        )
    nyquist_hz = config.generator.sample_rate_hz / 2
    pre = config.preprocess
    # a notch bandwidth at or above Nyquist puts a pole outside the unit circle
    for name, hz in (("notch_hz", pre.notch_hz), ("notch_bandwidth_hz", pre.notch_bandwidth_hz)):
        if hz >= nyquist_hz:
            raise ConfigError(
                f"{name} {hz} is not below the Nyquist frequency ({nyquist_hz} Hz) "
                "of the sessions"
            )
    if "spectopo" in config.features and epoch_seconds < SPECTOPO_MIN_SECONDS:
        raise ConfigError(
            f"spectopo needs epochs of at least {SPECTOPO_MIN_SECONDS} s "
            f"(its Welch windows are 1 s), got epoch_seconds {epoch_seconds}"
        )
    n_channels = config.generator.n_channels
    if n_channels < MIN_REJECTION_CHANNELS:
        raise ConfigError(
            f"the bad_channels step needs at least {MIN_REJECTION_CHANNELS} "
            f"channels, got n_channels {n_channels}"
        )
    return config


def _sessions_mismatch(config: RunConfig) -> str | None:
    """Why the sessions under config.out cannot serve config, or None when they
    can: the sessions sidecar must record config's generator, and each of its
    subjects must have a manifest, samples and events file."""
    sessions_dir = config.out / SESSIONS_DIR
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
    missing = [
        subject_id
        for subject_id in range(1, n_subjects + 1)
        if not all(
            (sessions_dir / session_dir_name(subject_id) / name).is_file()
            for name in (MANIFEST_NAME, SAMPLES_NAME, EVENTS_NAME)
        )
    ]
    if missing:
        return (
            f"{sessions_dir}: sessions of subjects {missing} of the {n_subjects} "
            "are missing; run `generate` again"
        )
    return None


# A stage's run function takes the config and the --force flag, which only
# evaluate reads, writes the stage's artifact and returns its summary line.


def _generate(config: RunConfig, force: bool) -> str:
    sessions_dir = config.out / SESSIONS_DIR
    for subject_id in range(1, config.generator.n_subjects + 1):
        write_session(generate_session(config.generator, subject_id), sessions_dir)
    return f"wrote {config.generator.n_subjects} sessions under {sessions_dir}"


def _preprocess_subject(config: RunConfig, subject_id: int, writer: EpochsWriter) -> None:
    """Open, check and preprocess one subject's session into writer: the
    capture reads each song's channel rows from the samples file, so the
    session is never in memory whole, and nothing of the subject is kept
    once this returns."""
    manifest = config.out / SESSIONS_DIR / session_dir_name(subject_id) / MANIFEST_NAME
    with SessionReader(manifest) as session:
        violations = validate_session(session)
        if session.subject_id != subject_id:
            violations.append(f"manifest records subject {session.subject_id}")
        if violations:
            raise PipelineError(f"{manifest.parent}: " + "; ".join(violations))
        for song_id, pair in session.ratings.items():
            writer.ratings[(subject_id, song_id)] = pair
        result = run_pipeline(session, config.preprocess)
    writer.add(result.batch)
    writer.masks[subject_id] = result.channel_mask
    writer.n_dropped_epochs += result.n_dropped_epochs


def _preprocess(config: RunConfig, force: bool) -> str:
    """Preprocess every subject into epochs.npz, one subject in memory at a
    time: each subject's batch is written as soon as it is ready."""
    mismatch = _sessions_mismatch(config)
    if mismatch:
        raise PipelineError(mismatch)
    path = config.out / EPOCHS_FILE
    with write_epochs(path) as writer:
        for subject_id in range(1, config.generator.n_subjects + 1):
            _preprocess_subject(config, subject_id, writer)
    return (
        f"{writer.n_epochs} epochs from {len(writer.masks)} subjects"
        f" ({writer.n_dropped_epochs} dropped) -> {path}"
    )


def _features(config: RunConfig, force: bool) -> str:
    """Featurize epochs.npz one epoch at a time."""
    with EpochsReader(config.out / EPOCHS_FILE) as reader:
        dataset = build_feature_matrix(
            reader.epochs(), config.features, ratings=reader.ratings
        )
    path = config.out / DATASET_FILE
    write_dataset_csv(dataset, path)
    return f"{dataset.n_rows} rows x {dataset.width} features -> {path}"


def _split(config: RunConfig, force: bool) -> str:
    dataset = read_dataset_csv(config.out / DATASET_FILE)
    _, test, plan = split_dataset(dataset, config.test_fraction, config.seed)
    path = config.out / PLAN_FILE
    write_plan(plan, path)
    return f"{test.n_rows} of {dataset.n_rows} rows held out -> {path}"


def _train(config: RunConfig, force: bool) -> str:
    dataset = read_dataset_csv(config.out / DATASET_FILE)
    train, _ = apply_plan(dataset, read_plan(config.out / PLAN_FILE))
    path = config.out / MODEL_FILE
    save_model(fit_dataset(config.model, train), path)
    return f"{config.model.kind} fitted on {train.n_rows} rows -> {path}"


def _evaluate(config: RunConfig, force: bool) -> str:
    plan_path = config.out / PLAN_FILE
    plan = read_plan(plan_path)
    if plan.consumed and not force:
        raise EvalError(
            f"{plan_path}: split plan already consumed; the held-out set is "
            "meant to be used once. Pass --force to re-evaluate."
        )
    _, test = apply_plan(read_dataset_csv(config.out / DATASET_FILE), plan)
    report = evaluate(load_model(config.out / MODEL_FILE), test)
    write_report(report, config.out / REPORT_FILE)
    mark_plan_consumed(plan_path)
    return (
        f"accuracy {report.overall_accuracy_pct:.2f}% on "
        f"{report.n_test} held-out rows (chance {report.chance_pct:.2f}%)"
    )


def _report(config: RunConfig, force: bool) -> str:
    report, _ = read_report(config.out / REPORT_FILE)
    csv_path, pgm_path = render_confusion(report, config.out)
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


def run_stage(name: str, config: RunConfig, force: bool) -> None:
    """Log the config, run the stage, write the sidecar beside its artifact
    and print its summary."""
    resolved = dataclasses.asdict(config)
    print(f"[{name}] config: {json.dumps(resolved, sort_keys=True)}")
    _, artifact, run = STAGES[name]
    summary = run(config, force)
    meta = {"stage": name, "seed": config.seed, "config": resolved}
    with atomic_write(f"{config.out / artifact}.meta.json") as tmp:
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"[{name}] {summary}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="seed for every stochastic stage")
    common.add_argument("--out", metavar="DIR", help="artifact directory (default: run)")
    common.add_argument(
        "--features", metavar="LIST", help=f"comma-separated subset of {','.join(FEATURE_FAMILIES)}"
    )
    common.add_argument("--test-fraction", type=float, dest="test_fraction", help="held-out fraction")
    for flag, (_, _, kind, metavar, help_text) in _SECTION_FLAGS.items():
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
                "--force", action="store_true", help="re-evaluate an already-consumed split plan"
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
        config.out.mkdir(parents=True, exist_ok=True)
        force = getattr(args, "force", False)
        if args.command != "pipeline":
            run_stage(args.command, config, force)
            return 0
        for name in STAGES:
            if name == "generate" and _sessions_mismatch(config) is None:
                print(f"[pipeline] reusing sessions under {config.out / SESSIONS_DIR}")
            else:
                run_stage(name, config, force)
    except (ValueError, PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
