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
from dataclasses import dataclass, field
from pathlib import Path

from .core import PipelineError
from .evaluation import (
    DEFAULT_TEST_FRACTION,
    EvalError,
    apply_plan,
    evaluate,
    mark_plan_consumed,
    read_plan,
    read_report,
    render_confusion,
    split_dataset,
    write_plan,
    write_report,
)
from .features import FEATURE_FAMILIES, build_feature_matrix, read_dataset_csv, write_dataset_csv
from .models import ModelSpec, fit_dataset, load_model, save_model
from .preprocess import (
    EpochsFile,
    PreprocessConfig,
    load_epochs,
    run_pipeline,
    save_epochs,
)
from .synth import (
    EVENTS_NAME,
    MANIFEST_NAME,
    SAMPLES_NAME,
    GeneratorConfig,
    generate_session,
    read_session,
    session_dir_name,
    write_session,
)

SESSIONS_DIR = "sessions"
EPOCHS_FILE = "epochs.npz"
DATASET_FILE = "dataset.csv"
PLAN_FILE = "plan.csv"
MODEL_FILE = "model.npz"
REPORT_FILE = "report.txt"


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


def _section_kwargs(raw: dict, section: str, cls) -> dict:
    data = raw.get(section, {})
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown {section} config key {key!r}")
    kwargs = dict(data)
    if "step_order" in kwargs:
        kwargs["step_order"] = tuple(kwargs["step_order"])
    return kwargs


def load_run_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    seed = raw.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    gen_kwargs = _section_kwargs(raw, "generator", GeneratorConfig)
    pre_kwargs = _section_kwargs(raw, "preprocess", PreprocessConfig)
    model_kwargs = _section_kwargs(raw, "model", ModelSpec)
    # flag --seed overrides every section seed; otherwise the top-level seed
    # fills in sections that did not set their own
    if getattr(args, "seed", None) is not None:
        gen_kwargs["seed"] = seed
        model_kwargs["seed"] = seed
    else:
        gen_kwargs.setdefault("seed", seed)
        model_kwargs.setdefault("seed", seed)

    if getattr(args, "subjects", None) is not None:
        gen_kwargs["n_subjects"] = args.subjects
    if getattr(args, "channels", None) is not None:
        gen_kwargs["n_channels"] = args.channels
    if getattr(args, "epoch_seconds", None) is not None:
        pre_kwargs["epoch_seconds"] = args.epoch_seconds
    if getattr(args, "model", None) is not None:
        model_kwargs["kind"] = args.model
    model_kwargs.setdefault("kind", "knn")

    features = raw.get("features", list(FEATURE_FAMILIES))
    if getattr(args, "features", None) is not None:
        features = [name.strip() for name in args.features.split(",") if name.strip()]
    if not isinstance(features, (list, tuple)) or not features:
        raise ConfigError("features must be a non-empty list")
    unknown = set(features) - set(FEATURE_FAMILIES)
    if unknown:
        raise ConfigError(
            f"unknown feature families {sorted(unknown)}; choose from {FEATURE_FAMILIES}"
        )

    test_fraction = raw.get("test_fraction", DEFAULT_TEST_FRACTION)
    if getattr(args, "test_fraction", None) is not None:
        test_fraction = args.test_fraction

    out_dir = raw.get("out_dir", "run")
    if getattr(args, "out", None) is not None:
        out_dir = args.out

    try:
        return RunConfig(
            seed=seed,
            out_dir=str(out_dir),
            features=tuple(features),
            test_fraction=float(test_fraction),
            generator=GeneratorConfig(**gen_kwargs),
            preprocess=PreprocessConfig(**pre_kwargs),
            model=ModelSpec(**model_kwargs),
        )
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def resolved_config_dict(config: RunConfig) -> dict:
    out = dataclasses.asdict(config)
    out["features"] = list(config.features)
    out["preprocess"]["step_order"] = list(config.preprocess.step_order)
    return out


def _write_sidecar(artifact: Path, config: RunConfig, stage: str) -> None:
    meta = {
        "stage": stage,
        "seed": config.seed,
        "config": resolved_config_dict(config),
    }
    sidecar = Path(str(artifact) + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _log_config(stage: str, config: RunConfig) -> None:
    print(f"[{stage}] config: {json.dumps(resolved_config_dict(config), sort_keys=True)}")


def _subject_dirs(sessions_dir: Path) -> list[Path]:
    if not sessions_dir.is_dir():
        raise PipelineError(
            f"no session directory at {sessions_dir}; run `generate` first"
        )
    found = sorted(
        (p for p in sessions_dir.iterdir() if p.is_dir() and p.name.startswith("subject_")),
        key=lambda p: int(p.name.split("_", 1)[1]),
    )
    if not found:
        raise PipelineError(f"{sessions_dir} contains no subject_<id> directories")
    return found


def do_generate(config: RunConfig) -> Path:
    _log_config("generate", config)
    sessions_dir = config.out / SESSIONS_DIR
    for subject_id in range(1, config.generator.n_subjects + 1):
        session = generate_session(config.generator, subject_id)
        write_session(session, sessions_dir)
    _write_sidecar(sessions_dir, config, "generate")
    print(
        f"[generate] wrote {config.generator.n_subjects} sessions under {sessions_dir}"
    )
    return sessions_dir


def do_preprocess(config: RunConfig) -> Path:
    _log_config("preprocess", config)
    sessions_dir = config.out / SESSIONS_DIR
    epochs = []
    masks = {}
    ratings = {}
    n_dropped = 0
    sample_rate = None
    for subject_dir in _subject_dirs(sessions_dir):
        session = read_session(subject_dir / "manifest.txt")
        result = run_pipeline(session, config.preprocess)
        epochs.extend(result.epochs)
        masks[session.subject_id] = result.channel_mask
        n_dropped += result.n_dropped_epochs
        sample_rate = session.sample_rate_hz
        for song_id, pair in session.ratings.items():
            ratings[(session.subject_id, song_id)] = pair
    path = config.out / EPOCHS_FILE
    save_epochs(
        path,
        EpochsFile(
            epochs=tuple(epochs),
            masks=masks,
            ratings=ratings,
            sample_rate_hz=int(sample_rate),
            n_dropped_epochs=n_dropped,
        ),
    )
    _write_sidecar(path, config, "preprocess")
    print(
        f"[preprocess] {len(epochs)} epochs from {len(masks)} subjects"
        f" ({n_dropped} dropped) -> {path}"
    )
    return path


def do_features(config: RunConfig) -> Path:
    _log_config("features", config)
    epochs_file = load_epochs(config.out / EPOCHS_FILE)
    dataset = build_feature_matrix(
        epochs_file.epochs, config.features, ratings=epochs_file.ratings
    )
    path = config.out / DATASET_FILE
    write_dataset_csv(dataset, path)
    _write_sidecar(path, config, "features")
    print(
        f"[features] {dataset.n_rows} rows x {dataset.width} features -> {path}"
    )
    return path


def do_split(config: RunConfig) -> Path:
    _log_config("split", config)
    dataset = read_dataset_csv(config.out / DATASET_FILE)
    _, test, plan = split_dataset(dataset, config.test_fraction, config.seed)
    path = config.out / PLAN_FILE
    write_plan(plan, path)
    _write_sidecar(path, config, "split")
    print(f"[split] {test.n_rows} of {dataset.n_rows} rows held out -> {path}")
    return path


def do_train(config: RunConfig) -> Path:
    _log_config("train", config)
    dataset = read_dataset_csv(config.out / DATASET_FILE)
    plan = read_plan(config.out / PLAN_FILE)
    train, _ = apply_plan(dataset, plan)
    model = fit_dataset(config.model, train)
    path = config.out / MODEL_FILE
    save_model(model, path)
    _write_sidecar(path, config, "train")
    print(f"[train] {config.model.kind} fitted on {train.n_rows} rows -> {path}")
    return path


def do_evaluate(config: RunConfig, force: bool = False) -> Path:
    _log_config("evaluate", config)
    plan_path = config.out / PLAN_FILE
    plan = read_plan(plan_path)
    if plan.consumed and not force:
        raise EvalError(
            f"{plan_path}: split plan already consumed; the held-out set is "
            "meant to be used once. Pass --force to re-evaluate."
        )
    dataset = read_dataset_csv(config.out / DATASET_FILE)
    _, test = apply_plan(dataset, plan)
    model = load_model(config.out / MODEL_FILE)
    report = evaluate(model, test)
    path = config.out / REPORT_FILE
    write_report(report, path)
    _write_sidecar(path, config, "evaluate")
    mark_plan_consumed(plan_path)
    print(
        f"[evaluate] accuracy {report.overall_accuracy_pct:.2f}% on "
        f"{report.n_test} held-out rows (chance {report.chance_pct:.2f}%)"
    )
    return path


def do_report(config: RunConfig) -> tuple[Path, Path]:
    _log_config("report", config)
    report, _ = read_report(config.out / REPORT_FILE)
    csv_path, pgm_path = render_confusion(report, config.out)
    _write_sidecar(csv_path, config, "report")
    print(f"[report] wrote {csv_path} and {pgm_path}")
    return csv_path, pgm_path


def _sessions_reusable(config: RunConfig) -> bool:
    """True when the sessions sidecar matches the generator config and every
    subject's manifest, samples and events files are present."""
    sessions_dir = config.out / SESSIONS_DIR
    sidecar = Path(str(sessions_dir) + ".meta.json")
    if not sidecar.is_file():
        return False
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError:
        return False
    if meta.get("config", {}).get("generator") != dataclasses.asdict(config.generator):
        return False
    return all(
        (sessions_dir / session_dir_name(subject_id) / name).is_file()
        for subject_id in range(1, config.generator.n_subjects + 1)
        for name in (MANIFEST_NAME, SAMPLES_NAME, EVENTS_NAME)
    )


def do_pipeline(config: RunConfig, force: bool = False) -> Path:
    if _sessions_reusable(config):
        print(f"[pipeline] reusing sessions under {config.out / SESSIONS_DIR}")
    else:
        do_generate(config)
    do_preprocess(config)
    do_features(config)
    do_split(config)
    do_train(config)
    report_path = do_evaluate(config, force=force)
    do_report(config)
    return report_path


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="seed for every stochastic stage")
    common.add_argument("--out", metavar="DIR", help="artifact directory (default: run)")
    common.add_argument(
        "--epoch-seconds",
        type=int,
        choices=(10, 120),
        dest="epoch_seconds",
        help="epoch length within each song",
    )
    common.add_argument(
        "--features", metavar="LIST", help=f"comma-separated subset of {','.join(FEATURE_FAMILIES)}"
    )
    common.add_argument("--model", metavar="KIND", help="model kind (knn, tree, gboost, gnb, mlp, kmeans, gmm)")
    common.add_argument("--test-fraction", type=float, dest="test_fraction", help="held-out fraction")
    common.add_argument("--subjects", type=int, help="number of synthetic subjects")
    common.add_argument("--channels", type=int, help="channels per synthetic session")
    common.add_argument(
        "--force", action="store_true", help="re-evaluate an already-consumed split plan"
    )

    parser = argparse.ArgumentParser(
        prog="eegsong",
        description="Synthetic EEG music-decoding pipeline: generate, preprocess, "
        "extract features, train, and evaluate with one seeded config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    steps = {
        "generate": "write synthetic listening sessions",
        "preprocess": "turn sessions into cleaned epochs",
        "features": "turn epochs into a feature dataset CSV",
        "split": "write a held-out split plan",
        "train": "fit a model on the training fold",
        "evaluate": "score the held-out fold and write the report",
        "report": "render confusion CSV + graymap from a report",
        "pipeline": "run every stage in order with one seed",
    }
    for name, help_text in steps.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(command=name)
    return parser


_COMMANDS = {
    "generate": lambda cfg, args: do_generate(cfg),
    "preprocess": lambda cfg, args: do_preprocess(cfg),
    "features": lambda cfg, args: do_features(cfg),
    "split": lambda cfg, args: do_split(cfg),
    "train": lambda cfg, args: do_train(cfg),
    "evaluate": lambda cfg, args: do_evaluate(cfg, force=args.force),
    "report": lambda cfg, args: do_report(cfg),
    "pipeline": lambda cfg, args: do_pipeline(cfg, force=args.force),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        config = load_run_config(args)
        config.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](config, args)
    except (ValueError, PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
