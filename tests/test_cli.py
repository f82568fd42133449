"""End-to-end command-line runs on a downsized session corpus."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eegsong.cli import main

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

TEXT_ARTIFACTS = ("dataset.csv", "plan.csv", "report.txt", "confusion.csv", "confusion.pgm")


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
        assert meta["stage"] == "features"
        assert meta["seed"] == 3
        assert meta["config"]["generator"]["n_subjects"] == 2
        assert meta["config"]["features"] == ["entropy", "spectopo"] or meta["config"][
            "features"
        ] == ["spectopo", "entropy"]
        session_meta = json.loads((out / "sessions.meta.json").read_text())
        assert session_meta["stage"] == "generate"

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


class TestHeldOutDiscipline:
    def test_consumed_plan_refuses_reevaluation(self, workspace, capsys):
        _, cfg_path, out = workspace
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert "already consumed" in capsys.readouterr().err

    def test_force_overrides_the_refusal(self, workspace, capsys):
        _, cfg_path, out = workspace
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(out), "--force"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_rerun_reuses_sessions_and_resplits(self, workspace, capsys):
        _, cfg_path, out = workspace
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert "reusing sessions" in capsys.readouterr().out

    def test_rerun_regenerates_a_missing_session_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "sessions" / "subject_2" / "samples.f32").unlink()
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert "[generate] wrote" in capsys.readouterr().out


class TestDeterminism:
    def test_same_config_same_bytes(self, workspace):
        root, cfg_path, out_a = workspace
        out_b = root / "run_b"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for name in TEXT_ARTIFACTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        for sub in ("subject_1", "subject_2"):
            a_dir, b_dir = out_a / "sessions" / sub, out_b / "sessions" / sub
            a_files = sorted(p.name for p in a_dir.iterdir())
            assert a_files == sorted(p.name for p in b_dir.iterdir())
            for name in a_files:
                assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_seed_flag_reaches_every_stage(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG, generator=dict(SMALL_CONFIG["generator"], n_subjects=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "seeded"
        code = main(["generate", "--config", str(cfg_path), "--seed", "7", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "sessions.meta.json").read_text())
        assert meta["seed"] == 7
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

    def test_bad_flag_value_exits_two(self, capsys):
        assert main(["pipeline", "--epoch-seconds", "17"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "pipeline" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # scipy.signal alone costs every stage process over a second of start-up;
    # it is imported inside the functions that call it.
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


def test_console_script_is_installed():
    proc = subprocess.run(
        ["eegsong", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout
