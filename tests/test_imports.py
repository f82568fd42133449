"""What each process imports: the lazy package, the name lists the run
config shares with the stages, and the modules each CLI stage loads."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import eegsong
from eegsong import config, features, models

SRC = str(Path(__file__).resolve().parents[1] / "src")

STAGES = ("generate", "preprocess", "features", "split", "train", "evaluate", "report")

STAGE_CONFIG = {
    "seed": 4,
    "generator": {
        "n_subjects": 1,
        "n_songs": 3,
        "song_seconds": 30,
        "inter_song_silence_seconds": 10,
        "lead_silence_seconds": 20,
        "trail_silence_seconds": 10,
        "n_channels": 6,
        "n_bad_channels": 1,
        "class_separation": 3.0,
    },
}

# the signal path, which no stage after features needs
SIGNAL = (
    "eegsong.synth",
    "eegsong.preprocess",
    "eegsong.dsp",
    "eegsong.features.spectral",
    "eegsong.features.wavelet",
    "eegsong.features.dfa",
    "eegsong.features.entropy",
)
# stage -> the modules, or packages with all their modules, it must not load
NOT_LOADED = {
    "generate": (
        "eegsong.preprocess", "eegsong.dsp", "eegsong.features", "eegsong.models",
        "eegsong.evaluation",
    ),
    "preprocess": ("eegsong.features", "eegsong.models", "eegsong.evaluation"),
    "features": ("eegsong.synth", "eegsong.models", "eegsong.evaluation"),
    "split": (*SIGNAL, "eegsong.models"),
    "train": SIGNAL,
    "evaluate": SIGNAL,
    "report": (*SIGNAL, "eegsong.models"),
}
# modules no stage may load: numpy.ma is about 20 ms of start-up, and numpy
# 2.4's np.unique imports it, so the stages call core.sorted_unique instead
NOT_LOADED_BY_ANY = ("numpy.ma",)


def _python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory):
    """stage -> the eegsong modules, and numpy.ma if it is loaded, in a
    fresh interpreter that ran it, the stages run in pipeline order on one
    run directory."""
    root = tmp_path_factory.mktemp("stages")
    (root / "cfg.json").write_text(json.dumps(STAGE_CONFIG))
    loaded = {}
    for stage in STAGES:
        code = (
            "import json, sys\n"
            "from eegsong.cli import main\n"
            f"assert main([{stage!r}, '--config', 'cfg.json', '--out', 'run']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('eegsong') or m == 'numpy.ma')))"
        )
        loaded[stage] = json.loads(_python(code, root))
    return loaded


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_loads_only_its_modules(stage, stage_modules):
    offenders = [
        m
        for m in stage_modules[stage]
        if any(
            m == name or m.startswith(name + ".")
            for name in NOT_LOADED[stage] + NOT_LOADED_BY_ANY
        )
    ]
    assert offenders == []


def test_importing_the_package_loads_no_module():
    code = "import sys, eegsong; print(sorted(m for m in sys.modules if m.startswith('eegsong.')))"
    assert _python(code, SRC) == "[]"


def test_every_public_name_resolves_and_is_listed():
    listed = dir(eegsong)
    for name in eegsong.__all__:
        assert getattr(eegsong, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        eegsong.no_such_name


def test_feature_family_names_have_one_source():
    assert config.FEATURE_FAMILIES == tuple(features.dataset.FAMILIES)
    assert features.FEATURE_FAMILIES is config.FEATURE_FAMILIES
    for module, function in features.dataset.FAMILIES.values():
        assert callable(getattr(import_module(f"eegsong.features.{module}"), function))


def test_model_kinds_have_one_source():
    assert config.MODEL_KINDS == tuple(models.KINDS)
    assert models.MODEL_KINDS is config.MODEL_KINDS
    assert config.SUPERVISED_KINDS + config.CLUSTERING_KINDS == config.MODEL_KINDS
    for module, fit_name, scores_name, arrays in models.KINDS.values():
        kind_module = import_module(f"eegsong.models.{module}")
        assert callable(getattr(kind_module, fit_name))
        assert callable(getattr(kind_module, scores_name))
        # the names of the param_<name> arrays that model.npz stores
        assert arrays and len(set(arrays)) == len(arrays)
        assert all(isinstance(name, str) and name.isidentifier() for name in arrays)


def test_moved_names_keep_their_old_paths():
    from eegsong.evaluation import DEFAULT_TEST_FRACTION, held_out_rows
    from eegsong.features.spectral import SPECTOPO_MIN_SECONDS
    from eegsong.preprocess import MIN_REJECTION_CHANNELS, PreprocessConfig
    from eegsong.synth import GeneratorConfig

    assert GeneratorConfig is config.GeneratorConfig
    assert PreprocessConfig is config.PreprocessConfig
    assert models.ModelSpec is config.ModelSpec
    assert (DEFAULT_TEST_FRACTION, held_out_rows) == (
        config.DEFAULT_TEST_FRACTION,
        config.held_out_rows,
    )
    assert (SPECTOPO_MIN_SECONDS, MIN_REJECTION_CHANNELS) == (
        config.SPECTOPO_MIN_SECONDS,
        config.MIN_REJECTION_CHANNELS,
    )
