"""EEG music-decoding pipeline on synthetic sessions.

Generates protocol-shaped multichannel listening sessions, preprocesses them
into epochs, extracts spectral / wavelet / fluctuation / entropy features, and
trains and evaluates a suite of from-scratch classifiers and clusterers with a
consumable held-out split.

Importing the package imports none of its modules: each name below is
imported from its module on first access, so a process that runs one stage
loads only what that stage uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module under eegsong that defines it
_EXPORTS = {
    "BASELINE_SECONDS": "core",
    "ChannelMask": "core",
    "Epoch": "core",
    "EpochBatch": "core",
    "EventMarker": "core",
    "PipelineError": "core",
    "SessionRecording": "core",
    "validate_session": "core",
    "GeneratorConfig": "config",
    "ModelSpec": "config",
    "PreprocessConfig": "config",
    "EvalReport": "evaluation",
    "RatingEvalResult": "evaluation",
    "SplitPlan": "evaluation",
    "evaluate": "evaluation",
    "evaluate_ratings": "evaluation",
    "render_confusion": "evaluation",
    "split_dataset": "evaluation",
    "Dataset": "features",
    "build_feature_matrix": "features",
    "read_dataset_csv": "features",
    "write_dataset_csv": "features",
    "TrainedModel": "models",
    "fit": "models",
    "fit_dataset": "models",
    "load_model": "models",
    "predict_labels": "models",
    "predict_proba": "models",
    "save_model": "models",
    "run_pipeline": "preprocess",
    "generate_session": "synth",
    "read_session": "synth",
    "write_session": "synth",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
