"""End-to-end command-line runs on a downsized session corpus."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from eegsong.cli import STAGES, ConfigError, _build_parser, load_run_config, main
from eegsong.config import _FIELD_VALUES, FEATURE_FAMILIES, ModelSpec
from eegsong.dsp import _TILE
from eegsong.features import build_feature_matrix
from eegsong.preprocess import _BLOCK_BYTES, EpochsReader, PreprocessConfig, run_pipeline
from eegsong.synth import MANIFEST_NAME, GeneratorConfig, read_session, session_dir_name

from conftest import LONG_SESSION_GENERATOR, MEMORY_GENERATOR, TINY

SMALL_CONFIG = {
    "seed": 3,
    "features": ["spectopo", "entropy"],
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
        "class_separation": 1.0,
    },
}

ARTIFACTS = (
    "epochs.npz",
    "dataset.csv",
    "plan.csv",
    "model.npz",
    "report.txt",
    "confusion.csv",
    "confusion.pgm",
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "run_a"
    started = time.monotonic()
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.monotonic() - started
    assert code == 0
    assert elapsed < 60.0
    return root, cfg_path, out


class TestPipelineArtifacts:
    def test_every_stage_leaves_its_file(self, workspace):
        _, _, out = workspace
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        assert (out / "sessions" / "subject_1").is_dir()
        assert (out / "sessions" / "subject_2").is_dir()

    def test_sidecars_embed_stage_seed_and_config(self, workspace):
        _, _, out = workspace
        meta = json.loads((out / "dataset.csv.meta.json").read_text())
        assert sorted(meta) == ["config", "stage"]
        assert meta["stage"] == "features"
        assert meta["config"]["seed"] == 3
        assert meta["config"]["generator"]["n_subjects"] == 2
        assert meta["config"]["features"] == ["entropy", "spectopo"] or meta["config"][
            "features"
        ] == ["spectopo", "entropy"]
        session_meta = json.loads((out / "sessions.meta.json").read_text())
        assert session_meta["stage"] == "generate"

    def test_sidecar_configs_round_trip(self, workspace, tmp_path):
        """Any artifact can be regenerated from its own metadata: each
        sidecar's config, passed back as --config, resolves to that config."""
        _, _, out = workspace
        for stage, (_, artifact, _) in STAGES.items():
            recorded = json.loads((out / f"{artifact}.meta.json").read_text())["config"]
            cfg_path = tmp_path / f"{stage}.json"
            cfg_path.write_text(json.dumps(recorded))
            config = load_run_config(_build_parser().parse_args([stage, "--config", str(cfg_path)]))
            assert json.loads(json.dumps(dataclasses.asdict(config))) == recorded, stage

    def test_dataset_width_follows_selected_families(self, workspace):
        _, _, out = workspace
        header = (out / "dataset.csv").read_text().splitlines()[0].split(",")
        # (5 band powers + 2 entropies) x 8 channels, then the metadata columns
        assert len(header) == 7 * 8 + 5

    def test_report_accuracy_is_parseable(self, workspace):
        _, _, out = workspace
        text = (out / "report.txt").read_text()
        overall = [ln for ln in text.splitlines() if ln.startswith("overall_pct:")]
        assert len(overall) == 1
        assert 0.0 <= float(overall[0].split(":")[1]) <= 100.0


def _snapshot(run_dir: Path) -> dict[str, tuple[int, int]]:
    """Each file under run_dir, by relative path: its inode and mtime, which
    change when a stage writes the file (atomic_write replaces it)."""
    return {
        str(p.relative_to(run_dir)): (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def _contents(run_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


class TestHeldOutDiscipline:
    def test_consumed_plan_refuses_reevaluation(self, workspace, capsys):
        _, cfg_path, out = workspace
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{out / 'report.txt'} exists" in err
        assert "Pass --force" in err

    def test_second_pipeline_is_refused_before_any_stage(self, workspace, capsys):
        _, cfg_path, out = workspace
        before, contents = _snapshot(out), _contents(out)
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "report.txt" in captured.err
        assert "[generate]" not in captured.out
        assert _snapshot(out) == before
        assert _contents(out) == contents

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_a_rerun_stage_rewrites_only_its_artifact(self, stage, workspace, capsys):
        """Re-running one stage in a finished run directory writes its own
        artifact and sidecar and nothing else, with the same bytes."""
        _, cfg_path, out = workspace
        artifact = STAGES[stage][1]
        before, contents = _snapshot(out), _contents(out)
        force = ["--force"] if stage == "evaluate" else []
        assert main([stage, "--config", str(cfg_path), "--out", str(out), *force]) == 0
        capsys.readouterr()
        after = _snapshot(out)
        assert after.keys() == before.keys()
        rewritten = {name for name in after if after[name] != before[name]}
        # the artifact, its sidecar and, for a directory, what it holds
        owned = {name for name in after if name.startswith(artifact)}
        if stage == "report":
            owned.add("confusion.pgm")  # written beside confusion.csv
        assert rewritten == owned
        assert _contents(out) == contents

    def test_a_sidecar_config_does_not_name_the_run_directory(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        """split run from its own sidecar's config, elsewhere and without
        --out, writes under ./run and leaves the original plan untouched."""
        _, _, out = workspace
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(
            json.dumps(json.loads((out / "plan.csv.meta.json").read_text())["config"])
        )
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "dataset.csv").write_bytes((out / "dataset.csv").read_bytes())
        before, plan = _snapshot(out), (out / "plan.csv").read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["split", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert _snapshot(out) == before
        assert (tmp_path / "run" / "plan.csv").read_bytes() == plan

    def test_force_overrides_the_refusal(self, workspace, capsys):
        _, cfg_path, out = workspace
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(out), "--force"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_rerun_reuses_sessions_and_resplits(self, workspace, capsys):
        _, cfg_path, out = workspace
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out), "--force"])
        assert code == 0
        assert "reusing sessions" in capsys.readouterr().out

    def test_rerun_regenerates_a_missing_session_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "sessions" / "subject_2" / "samples.f32").unlink()
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out), "--force"])
        assert code == 0
        assert "[generate] wrote" in capsys.readouterr().out

    def test_rerun_regenerates_sessions_of_another_generator_version(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        argv = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *argv]) == 0
        capsys.readouterr()
        manifest = out / "sessions" / "subject_2" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("generator_version: 2\n", ""))
        assert main(["preprocess", *argv]) == 1
        assert "run `generate` again" in capsys.readouterr().err
        assert main(["pipeline", *argv, "--force"]) == 0
        assert "[generate] wrote" in capsys.readouterr().out
        assert manifest.read_text().startswith("generator_version: 2\n")


class TestSessionIngest:
    def test_stale_subjects_are_not_read(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--subjects", "3", "--out", str(out)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--subjects", "2", "--out", str(out)]) == 0
        assert "from 2 subjects" in capsys.readouterr().out
        with np.load(out / "epochs.npz") as archive:
            assert sorted(set(archive["subject_id"].tolist())) == [1, 2]
            assert archive["mask_subjects"].tolist() == [1, 2]

    @pytest.mark.parametrize(
        "flags, was, now",
        [
            (["--subjects", "2"], "n_subjects=3", "n_subjects=2"),
            (["--subjects", "3", "--seed", "9"], "seed=3", "seed=9"),
            (["--subjects", "3", "--channels", "16"], "n_channels=8", "n_channels=16"),
        ],
        ids=["subjects", "seed", "channels"],
    )
    def test_sessions_of_another_generator_config_are_refused(
        self, flags, was, now, tmp_path, capsys
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--subjects", "3", "--out", str(out)]) == 0
        assert main(["preprocess", "--config", str(cfg_path), *flags, "--out", str(out)]) == 1
        assert f"generated with {was}, but this run has {now}" in capsys.readouterr().err
        assert not (out / "epochs.npz").exists()

    def test_missing_subject_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "sessions" / "subject_2" / "manifest.txt").unlink()
        assert main(["preprocess", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "sessions of subjects [2] of the 2" in capsys.readouterr().err

    def test_marker_past_the_end_is_refused(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], n_subjects=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "sessions" / "subject_1" / "events.csv", "a") as fh:
            fh.write("99999999,rating_screen,\n")
        assert main(["preprocess", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "marker out of range: rating_screen at sample 99999999" in err
        assert not (out / "epochs.npz").exists()

    def test_session_of_another_subject_is_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = out / "sessions" / "subject_2" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("subject_id: 2", "subject_id: 1"))
        assert main(["preprocess", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "subject_2: manifest records subject 1" in capsys.readouterr().err
        assert not (out / "epochs.npz").exists()

    def test_failure_on_a_later_subject_leaves_no_epochs_file(self, tmp_path, capsys):
        """Subject 1 is already written to the epochs archive when subject 2
        fails; neither epochs.npz nor its temporary file is left behind."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "sessions" / "subject_2" / "events.csv", "a") as fh:
            fh.write("99999999,rating_screen,\n")
        assert main(["preprocess", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "subject_2: marker out of range" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["sessions", "sessions.meta.json"]

    def test_epoch_longer_than_song_refused_before_any_stage(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], song_seconds=60))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--epoch-seconds", "120", "--out", str(out)])
        assert code == 1
        assert "does not divide the 60 s songs" in capsys.readouterr().err
        assert not (out / "sessions").exists()

    def test_epoch_dividing_a_non_default_song_length_runs(self, tmp_path, capsys):
        gen = dict(SMALL_CONFIG["generator"], song_seconds=60)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, generator=gen)))
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--epoch-seconds", "20", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        with np.load(out / "epochs.npz") as archive:
            songs = archive["subject_id"] * 100 + archive["song_id"]
        _, per_song = np.unique(songs, return_counts=True)
        assert per_song.tolist() == [3] * gen["n_subjects"] * gen["n_songs"]

    def test_unexpected_sample_rate_refused_before_generate(self, tmp_path, capsys):
        gen = dict(SMALL_CONFIG["generator"], sample_rate_hz=500)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, generator=gen)))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "sample_rate_hz must be one of (250, 1000)" in capsys.readouterr().err
        assert not (out / "sessions").exists()

    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({"preprocess": {"notch_hz": 0}}, [], "notch_hz must be positive, got 0"),
            ({"preprocess": {"notch_hz": -5}}, [], "notch_hz must be positive, got -5"),
            (
                {"preprocess": {"notch_hz": 200}}, [],
                "notch_hz 200 is not below the Nyquist frequency (125.0 Hz)",
            ),
            (
                {"preprocess": {"notch_bandwidth_hz": 130}}, [],
                "notch_bandwidth_hz 130 is not below the Nyquist",
            ),
            (
                {"preprocess": {"amplitude_reject_uv": 100.0}}, [],
                "unknown preprocess config key 'amplitude_reject_uv'",
            ),
            ({}, ["--epoch-seconds", "1"], "spectopo needs epochs of at least 2 s"),
            ({}, ["--channels", "3"], "bad_channels step needs at least 4 channels"),
            ({}, ["--test-fraction", "1.5"], "test_fraction must be in (0, 1), got 1.5"),
            # 20 s songs of 10 s epochs: 0.2 of 2 rounds to no test epoch
            ({}, ["--test-fraction", "0.2"], "test_fraction 0.2 holds out 0 of the 2 epochs of each song"),
            (
                {"generator": dict(SMALL_CONFIG["generator"], n_subjects=1.5)}, [],
                "generator config key 'n_subjects' must be an integer, got 1.5",
            ),
            (
                {"generator": dict(SMALL_CONFIG["generator"], n_channels=8.0)}, [],
                "generator config key 'n_channels' must be an integer, got 8.0",
            ),
            (
                {"preprocess": {"epoch_seconds": 2.5}}, [],
                "preprocess config key 'epoch_seconds' must be an integer, got 2.5",
            ),
            (
                {"model": {"n_clusters": True}}, [],
                "model config key 'n_clusters' must be an integer or null, got True",
            ),
            (
                {"generator": dict(SMALL_CONFIG["generator"], line_noise_amplitude_uv="5")}, [],
                "generator config key 'line_noise_amplitude_uv' must be a number, got '5'",
            ),
            ({"seed": True}, [], "seed must be a non-negative integer, got True"),
            (
                {"preprocess": {"step_order": ["capture", "baseline"]}}, [],
                "unknown preprocess config key 'step_order'",
            ),
            ({"out_dir": "elsewhere"}, [], "unknown config key 'out_dir'"),
        ],
        ids=[
            "notch_zero",
            "notch_negative",
            "notch_above_nyquist",
            "notch_band_above_nyquist",
            "amplitude_reject_uv_key",
            "epoch_below_spectopo_minimum",
            "channels_below_rejection_minimum",
            "test_fraction_above_one",
            "test_fraction_empties_the_test_fold",
            "fractional_subject_count",
            "float_channel_count",
            "fractional_epoch_seconds",
            "boolean_cluster_count",
            "string_line_noise_amplitude",
            "boolean_seed",
            "step_order_key",
            "out_dir",
        ],
    )
    def test_config_a_stage_cannot_run_is_refused_before_generate(
        self, overrides, flags, message, tmp_path, capsys
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, **overrides)))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not (out / "sessions").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (
                "features", ["spectopo", 3, "x"],
                "features must be a non-empty list of family names, got ['spectopo', 3, 'x']",
            ),
            (
                "features", [["spectopo"]],
                "features must be a non-empty list of family names, got [['spectopo']]",
            ),
        ],
        ids=["mixed_feature_types", "nested_feature_list"],
    )
    def test_top_level_value_of_the_wrong_type_is_refused(
        self, key, value, message, tmp_path, monkeypatch, capsys
    ):
        # no --out, so the run directory would appear as ./run
        cfg = dict(SMALL_CONFIG, **{key: value})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_every_numeric_section_field_is_type_checked(self):
        """A section field's annotation must be str or have a row in the
        table of JSON value types, or load_run_config would take any value
        for it unchecked."""
        for cls in (GeneratorConfig, PreprocessConfig, ModelSpec):
            for name, annotation in typing.get_type_hints(cls).items():
                assert annotation is str or annotation in _FIELD_VALUES, (cls.__name__, name)

    def test_stage_minimums_bind_only_selected_stages(self):
        def load(*argv):
            return load_run_config(_build_parser().parse_args(["generate", *argv]))

        assert load("--epoch-seconds", "1", "--features", "dfa,entropy").preprocess.epoch_seconds == 1

    @pytest.mark.parametrize("value", ["abc", [0.25], None])
    def test_non_numeric_test_fraction_names_key_and_value(self, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, test_fraction=value)))
        out = tmp_path / "run"
        assert main(["split", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: test_fraction must be a number, got {value!r}\n"
        with pytest.raises(ConfigError, match="test_fraction"):
            load_run_config(_build_parser().parse_args(["split", "--config", str(cfg_path)]))


class TestDeterminism:
    def test_same_config_same_bytes(self, workspace):
        """Two runs into directories whose paths differ in length are equal
        file for file: sessions, archives, text artifacts and sidecars."""
        root, cfg_path, out_a = workspace
        out_b = root / "a_run_directory_with_a_longer_path" / "run_b"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        a, b = _contents(out_a), _contents(out_b)
        assert sorted(a) == sorted(b)
        for name in (*ARTIFACTS, "sessions/subject_1/samples.f32", "sessions.meta.json"):
            assert name in a, name
        assert [name for name in a if a[name] != b[name]] == []

    def test_seed_flag_reaches_every_stage(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], n_subjects=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "seeded"
        code = main(["generate", "--config", str(cfg_path), "--seed", "7", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "sessions.meta.json").read_text())
        assert meta["config"]["seed"] == 7
        assert meta["config"]["generator"]["seed"] == 7
        assert meta["config"]["model"]["seed"] == 7

    def test_seed_changes_the_data(self, tmp_path):
        cfg = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], n_subjects=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for seed in ("5", "6"):
            out = tmp_path / f"seed_{seed}"
            assert main(["generate", "--config", str(cfg_path), "--seed", seed, "--out", str(out)]) == 0
            blobs.append((out / "sessions" / "subject_1" / "samples.f32").read_bytes())
        assert blobs[0] != blobs[1]


class TestErrorHandling:
    def test_unknown_top_level_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 0, "verbosity": 3}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key 'verbosity'" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"generator": {"n_subject": 2}}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown generator config key 'n_subject'" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_feature_family(self, tmp_path, capsys):
        assert main(["features", "--features", "spectopo,mfcc", "--out", str(tmp_path)]) == 1
        assert "unknown feature families" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        assert main(["generate", "--seed", "-4", "--out", str(tmp_path)]) == 1
        assert "non-negative" in capsys.readouterr().err

    def test_preprocess_without_sessions(self, tmp_path, capsys):
        assert main(["preprocess", "--out", str(tmp_path / "nothing")]) == 1
        assert "run `generate` first" in capsys.readouterr().err

    def test_model_missing_a_parameter_array_is_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--model", "tree", "--out", str(out)]) == 0
        capsys.readouterr()
        model_path = out / "model.npz"
        with np.load(model_path) as archive:
            payload = {k: archive[k] for k in archive.files if k != "param_value"}
        with open(model_path, "wb") as fh:
            np.savez(fh, **payload)
        code = main(["evaluate", "--config", str(cfg_path), "--model", "tree", "--out", str(out), "--force"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{model_path}: model archive has no param_value array" in err

    def test_nonfinite_dataset_value_is_refused_by_split(self, workspace, tmp_path, capsys):
        _, cfg_path, run = workspace
        lines = (run / "dataset.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "nan"
        lines[2] = ",".join(fields)
        out = tmp_path / "run"
        out.mkdir()
        (out / "dataset.csv").write_text("\n".join(lines) + "\n")
        column = lines[0].split(",")[1]
        assert main(["split", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"row 3: non-finite value in column {column}" in err

    def test_bad_flag_value_exits_two(self, capsys):
        assert main(["pipeline", "--epoch-seconds", "ten"]) == 2
        capsys.readouterr()

    def test_force_on_a_stage_that_ignores_it_exits_two(self, tmp_path, capsys):
        assert main(["generate", "--force", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "pipeline" in capsys.readouterr().out


SUBJECT_EPOCH_BYTES = 12 * 16 * 2500 * 8


def _traced_peak(argv: list[str]) -> int:
    """Peak bytes that tracemalloc sees while main(argv) runs."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_signal_stages_hold_one_subject_at_a_time(tmp_path, capsys):
    """preprocess and features stream subjects: going from 1 to 3 subjects
    raises their peak traced memory by less than one subject's epochs."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], **MEMORY_GENERATOR))))
    peaks = {}
    for n_subjects in (1, 3):
        argv = ["--config", str(cfg_path), "--subjects", str(n_subjects), "--out", str(tmp_path / f"run_{n_subjects}")]
        assert main(["generate", *argv]) == 0
        peaks[n_subjects] = {stage: _traced_peak([stage, *argv]) for stage in ("preprocess", "features")}
    capsys.readouterr()
    for stage in ("preprocess", "features"):
        growth = peaks[3][stage] - peaks[1][stage]
        assert growth < SUBJECT_EPOCH_BYTES, (stage, peaks[1][stage], peaks[3][stage])


def _long_session_bytes() -> dict[str, int]:
    """Bytes of the arrays that the signal stages may hold at the
    LONG_SESSION_GENERATOR config, and the slack allowed beside them."""
    gen = GeneratorConfig(**LONG_SESSION_GENERATOR)
    row = gen.session_samples * 8
    epoch_len = PreprocessConfig().epoch_seconds * gen.sample_rate_hz
    song_epochs = gen.song_seconds * gen.sample_rate_hz // epoch_len
    n_epochs = gen.n_songs * song_epochs
    epoch = gen.n_channels * epoch_len * 8
    # the whole songs that fit in one float64 block, and at least one
    block_epochs = song_epochs * min(gen.n_songs, max(1, _BLOCK_BYTES // (song_epochs * epoch)))
    return {
        # one channel's spectrum and row-sized temporaries
        "rows": 2 * row,
        # the float32 row that generate casts each built row into to write it
        "cast": gen.session_samples * 4,
        # run_pipeline's float32 batch
        "batch": n_epochs * epoch // 2,
        # the float64 scratch of one block of songs
        "block": block_epochs * epoch,
        "float64_batch": n_epochs * epoch,
        "tile": _TILE * 3 * block_epochs * gen.n_channels * 8,
        "epoch": epoch,
        # each epoch's (C,) baseline offset, subject, song and index
        "per_epoch": n_epochs * (gen.n_channels + 3) * 8,
        # the rest of generate's row-sized scratch (the row it builds and the
        # 1/f gain) and the interpreter's own allocations
        "slack": 4 * row + 1_000_000,
    }


def test_signal_stages_hold_no_session_sized_array(tmp_path, capsys):
    """generate holds a few one-channel rows, writing each row as it is
    built; preprocess holds the float32 batch, one float64 block of songs,
    the notch's tile scratch and a few rows, reading the session from disk
    row by row rather than whole, and never a float64 copy of the batch; and
    features holds one epoch at a time beside the per-epoch arrays."""
    size = _long_session_bytes()
    budgets = {
        "generate": size["rows"] + size["cast"] + size["slack"],
        "preprocess": size["batch"] + size["block"] + size["tile"] + size["rows"] + size["slack"],
        "features": size["epoch"] + size["per_epoch"] + size["slack"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, generator=LONG_SESSION_GENERATOR)))
    argv = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    peaks = {stage: _traced_peak([stage, *argv]) for stage in budgets}
    capsys.readouterr()
    over = {stage: (peaks[stage], budget) for stage, budget in budgets.items() if peaks[stage] >= budget}
    assert over == {}
    assert peaks["preprocess"] < size["float64_batch"], (peaks["preprocess"], size["float64_batch"])


def test_pipeline_process_peaks_within_the_preprocess_budget(tmp_path, capsys):
    """One `pipeline` process, every stage in turn, peaks under preprocess's
    budget of the float32 batch, one float64 block, the notch's tile scratch,
    a few rows and slack: generate, which builds a session, holds no
    session-sized array, and no stage holds a second batch-sized one."""
    size = _long_session_bytes()
    budget = size["batch"] + size["block"] + size["tile"] + size["rows"] + size["slack"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, generator=LONG_SESSION_GENERATOR)))
    peak = _traced_peak(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert peak < budget, (peak, budget)


def test_features_from_the_epochs_file_equal_the_in_memory_ones(tmp_path, capsys):
    """The CLI's file path (run_pipeline, epochs.npz, EpochsReader) and the
    in-memory path (run_pipeline's epochs) build the same feature matrix,
    bit for bit: run_pipeline's batch holds the float32 values that the
    archive stores."""
    generator = dataclasses.asdict(TINY)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": TINY.seed, "generator": generator}))
    out = tmp_path / "run"
    argv = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["generate", *argv]) == 0
    assert main(["preprocess", *argv]) == 0
    capsys.readouterr()
    with EpochsReader(out / "epochs.npz") as reader:
        from_file = build_feature_matrix(reader.epochs(), FEATURE_FAMILIES)
    in_memory = []
    for subject_id in range(1, TINY.n_subjects + 1):
        session = read_session(out / "sessions" / session_dir_name(subject_id) / MANIFEST_NAME)
        in_memory.extend(run_pipeline(session, PreprocessConfig()).epochs)
    expected = build_feature_matrix(in_memory, FEATURE_FAMILIES)
    assert from_file.feature_names == expected.feature_names
    assert np.array_equal(from_file.X, expected.X)


def test_cli_import_loads_no_scipy():
    # scipy.signal alone costs every stage process over a second of start-up,
    # and scipy.spatial a third of one; the package imports no scipy at all.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import eegsong, eegsong.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_signal_stages_load_no_scipy(tmp_path):
    # every stage runs on numpy alone: generate, preprocess and features, then
    # split, train, evaluate and report for each model kind
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    common = f"'--config', {str(cfg_path)!r}, '--out', {str(tmp_path / 'run')!r}"
    code = (
        "import sys; from eegsong.cli import main\n"
        "from eegsong.models import MODEL_KINDS\n"
        "for stage in ('generate', 'preprocess', 'features'):\n"
        f"    assert main([stage, {common}]) == 0\n"
        "for i, kind in enumerate(MODEL_KINDS):\n"
        "    for stage in ('split', 'train', 'evaluate', 'report'):\n"
        "        force = ['--force'] if stage == 'evaluate' and i else []\n"
        f"        assert main([stage, {common}, '--model', kind, *force]) == 0, (stage, kind)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_no_module_imports_scipy_signal():
    # nor any other part of scipy: the package runs on numpy alone
    package = Path(__file__).resolve().parents[1] / "src" / "eegsong"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []


def test_console_script_is_installed():
    proc = subprocess.run(
        ["eegsong", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout
