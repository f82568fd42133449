"""EEG music-decoding pipeline on synthetic sessions.

Generates protocol-shaped multichannel listening sessions, preprocesses them
into epochs, extracts spectral / wavelet / fluctuation / entropy features, and
trains and evaluates a suite of from-scratch classifiers and clusterers with a
consumable held-out split.
"""

from .core import (
    BASELINE_SECONDS,
    ChannelMask,
    Epoch,
    EpochBatch,
    EventMarker,
    PipelineError,
    SessionRecording,
    validate_session,
)
from .evaluation import (
    EvalReport,
    RatingEvalResult,
    SplitPlan,
    evaluate,
    evaluate_ratings,
    render_confusion,
    split_dataset,
)
from .features import (
    Dataset,
    build_feature_matrix,
    read_dataset_csv,
    write_dataset_csv,
)
from .models import ModelSpec, TrainedModel, fit, fit_dataset, load_model, predict_labels, predict_proba, save_model
from .preprocess import PreprocessConfig, run_pipeline
from .synth import GeneratorConfig, generate_session, read_session, write_session

__version__ = "0.1.0"

__all__ = [
    "BASELINE_SECONDS",
    "ChannelMask",
    "Dataset",
    "Epoch",
    "EpochBatch",
    "EvalReport",
    "EventMarker",
    "GeneratorConfig",
    "ModelSpec",
    "PipelineError",
    "PreprocessConfig",
    "RatingEvalResult",
    "SessionRecording",
    "SplitPlan",
    "TrainedModel",
    "build_feature_matrix",
    "evaluate",
    "evaluate_ratings",
    "fit",
    "fit_dataset",
    "generate_session",
    "load_model",
    "predict_labels",
    "predict_proba",
    "read_dataset_csv",
    "read_session",
    "render_confusion",
    "run_pipeline",
    "save_model",
    "split_dataset",
    "validate_session",
    "write_dataset_csv",
    "write_session",
    "__version__",
]
