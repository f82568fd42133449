"""The run configuration: RunConfig, its three sections and load_run_config.

Every constant that building or checking a run config reads lives here too:
the feature family names, the model kinds, the default held-out fraction and
its rounding, the shortest spectopo epoch and the fewest channels that
bad-channel rejection takes.  The stage modules import these names from here,
so the command line resolves and validates a config without importing any
stage.  ModelSpec holds what a run config may set for a model; each kind's
fixed hyperparameters are constants of its module under eegsong.models.
"""

from __future__ import annotations

import argparse
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .core import BASELINE_SECONDS, EEG_BAND_EDGES, EXPECTED_SAMPLE_RATES

# Feature families, in the order features.dataset.FAMILIES maps them.
FEATURE_FAMILIES = ("spectopo", "wavedec", "dfa", "entropy")

# Model kinds, in the order models.KINDS maps them.
SUPERVISED_KINDS = ("knn", "tree", "gboost", "gnb", "mlp")
CLUSTERING_KINDS = ("kmeans", "gmm")
MODEL_KINDS = SUPERVISED_KINDS + CLUSTERING_KINDS

DEFAULT_TEST_FRACTION = 1.0 / 3.0

# Shortest signal, in 1 s Welch windows, that spectopo averages over; the run
# config refuses shorter epochs when spectopo is selected.
SPECTOPO_MIN_SECONDS = 2

# Fewest channels whose cross-channel z-scores bad-channel rejection takes;
# the run config refuses fewer.
MIN_REJECTION_CHANNELS = 4

# Most songs with distinct signatures: one ordering each of the 5 EEG bands.
MAX_SONGS = math.factorial(len(EEG_BAND_EDGES))


def held_out_rows(test_fraction: float, n_rows: int) -> int:
    """Test rows that split_dataset takes from a stratum of n_rows rows:
    test_fraction * n_rows, rounded half up."""
    return math.floor(test_fraction * n_rows + 0.5)


class ConfigError(ValueError):
    """Config file or override cannot be turned into a valid RunConfig."""


@dataclass(frozen=True)
class GeneratorConfig:
    n_subjects: int = 20
    n_songs: int = 12
    song_seconds: int = 120
    inter_song_silence_seconds: int = 10
    lead_silence_seconds: int = 120
    trail_silence_seconds: int = 120
    sample_rate_hz: int = 250
    n_channels: int = 32
    line_noise_amplitude_uv: float = 5.0
    n_bad_channels: int = 2
    class_separation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in (
            "n_subjects",
            "n_songs",
            "song_seconds",
            "inter_song_silence_seconds",
            "lead_silence_seconds",
            "trail_silence_seconds",
            "sample_rate_hz",
            "n_channels",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # validate_session refuses any other rate at ingest
        if self.sample_rate_hz not in EXPECTED_SAMPLE_RATES:
            raise ValueError(
                f"sample_rate_hz must be one of {EXPECTED_SAMPLE_RATES}, "
                f"got {self.sample_rate_hz}"
            )
        # Each song's baseline is the BASELINE_SECONDS just before its onset;
        # a shorter silence would reach back into the previous song (or before
        # the recording starts).
        for name in ("lead_silence_seconds", "inter_song_silence_seconds"):
            if getattr(self, name) < BASELINE_SECONDS:
                raise ValueError(
                    f"{name} must be >= the {BASELINE_SECONDS} s pre-song "
                    f"baseline, got {getattr(self, name)}"
                )
        if self.n_songs > MAX_SONGS:
            raise ValueError(
                f"n_songs must be at most {MAX_SONGS} (one per band order), got {self.n_songs}"
            )
        if self.class_separation < 0:
            raise ValueError("class_separation must be >= 0")
        if self.n_bad_channels < 0:
            raise ValueError("n_bad_channels must be >= 0")
        if self.n_bad_channels >= self.n_channels:
            raise ValueError("n_bad_channels must leave at least one clean channel")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def session_seconds(self) -> int:
        return (
            self.lead_silence_seconds
            + self.n_songs * self.song_seconds
            + (self.n_songs - 1) * self.inter_song_silence_seconds
            + self.trail_silence_seconds
        )

    @property
    def session_samples(self) -> int:
        return self.session_seconds * self.sample_rate_hz


@dataclass(frozen=True)
class PreprocessConfig:
    epoch_seconds: int = 10
    notch_hz: float = 50.0
    notch_bandwidth_hz: float = 2.0
    rejection_zscore: float = 5.0

    def __post_init__(self):
        # divisibility by the song length is checked where the song is known
        if self.epoch_seconds <= 0:
            raise ValueError(
                f"epoch_seconds must be positive, got {self.epoch_seconds}"
            )
        # notch_hz against Nyquist is checked where the sample rate is known
        if self.notch_hz <= 0:
            raise ValueError(f"notch_hz must be positive, got {self.notch_hz}")
        if self.notch_bandwidth_hz <= 0:
            raise ValueError("notch_bandwidth_hz must be positive")
        if self.rejection_zscore <= 0:
            raise ValueError("rejection_zscore must be positive")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    knn_k: int = 5
    tree_max_depth: int = 8
    tree_min_leaf: int = 2
    gboost_rounds: int = 100
    mlp_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        for name in ("knn_k", "tree_max_depth", "tree_min_leaf", "gboost_rounds", "mlp_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    features: tuple[str, ...] = FEATURE_FAMILIES
    test_fraction: float = DEFAULT_TEST_FRACTION
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelSpec = field(default_factory=lambda: ModelSpec(kind="knn"))


def training_rows(config: RunConfig) -> int:
    """Rows in the training fold of a run of config: every (subject, song)
    stratum's epochs but the ones split_dataset holds out."""
    per_song = config.generator.song_seconds // config.preprocess.epoch_seconds
    n_train = per_song - held_out_rows(config.test_fraction, per_song)
    return config.generator.n_subjects * config.generator.n_songs * n_train


_TOP_KEYS = ("seed", "features", "test_fraction", "generator", "preprocess", "model")
_SECTIONS = {"generator": GeneratorConfig, "preprocess": PreprocessConfig, "model": ModelSpec}

# flags that set one field of a config section: flag -> (section, field, type,
# metavar, help)
SECTION_FLAGS = {
    "--subjects": ("generator", "n_subjects", int, None, "number of synthetic subjects"),
    "--channels": ("generator", "n_channels", int, None, "channels per synthetic session"),
    "--epoch-seconds": (
        "preprocess", "epoch_seconds", int, None,
        "epoch length within each song; must divide the song length",
    ),
    "--model": ("model", "kind", str, "KIND", f"model kind ({', '.join(MODEL_KINDS)})"),
}


# JSON has one number type, so a count in a config file may come as 2.5, 8.0 or
# true: a numeric field takes only its annotated type (never a bool), or an int
# where a float is meant
_FIELD_VALUES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
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
    for flag, (section, key, *_) in SECTION_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            sections[section][key] = value
    sections["model"].setdefault("kind", "knn")

    features = raw.get("features", list(FEATURE_FAMILIES))
    if args.features is not None:
        features = [name.strip() for name in args.features.split(",") if name.strip()]
    if (
        not isinstance(features, (list, tuple))
        or not features
        or not all(type(name) is str for name in features)
    ):
        raise ConfigError(
            f"features must be a non-empty list of family names, got {features!r}"
        )
    unknown = set(features) - set(FEATURE_FAMILIES)
    if unknown:
        raise ConfigError(
            f"unknown feature families {sorted(unknown)}; choose from {FEATURE_FAMILIES}"
        )

    test_fraction = raw.get("test_fraction", DEFAULT_TEST_FRACTION)
    if args.test_fraction is not None:
        test_fraction = args.test_fraction
    if type(test_fraction) not in (int, float):
        raise ConfigError(f"test_fraction must be a number, got {test_fraction!r}")

    try:
        config = RunConfig(
            seed=seed,
            features=tuple(features),
            test_fraction=float(test_fraction),
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
    kind, n_songs, n_train = config.model.kind, config.generator.n_songs, training_rows(config)
    if n_songs < 2:
        raise ConfigError(f"model kind {kind!r} needs at least two songs, got n_songs {n_songs}")
    if kind == "knn" and config.model.knn_k > n_train:
        raise ConfigError(
            f"knn_k {config.model.knn_k} exceeds the {n_train} training rows that "
            "n_subjects, n_songs, song_seconds, epoch_seconds and test_fraction leave"
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
