"""Config fuzz: run `eegsong pipeline` on many small seeded configs.

    python3 tools/fuzz_configs.py --configs 200 --seed 0 [--timeout 120]

Draws each config from its own seeded stream (1-3 subjects, 1-4 short songs,
short silences, 1-12 channels, any model kind, any non-empty feature subset,
varied epoch_seconds, test_fraction and knn_k), writes it to a temporary
directory and runs `python -m eegsong.cli pipeline` on it there, one config
at a time, with the package imported from this checkout's src.  A config
that load_run_config refuses exits 1 before `generate` writes anything, and
counts as refused.  The script reports every config that started a stage
(printed "[generate] config:") and then exited non-zero, every run that
printed a traceback and every run that timed out, each with its config and
stderr, and exits 1 if there was any.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from eegsong.config import FEATURE_FAMILIES, MODEL_KINDS  # noqa: E402


def draw_config(seed: int, index: int) -> dict:
    """One small run config from the stream of (seed, index)."""
    rng = random.Random(f"{seed}:{index}")
    n_channels = rng.randint(1, 12)
    epoch_seconds = rng.choice([1, 2, 3, 4, 5, 6, 10, 15])
    # mostly whole epochs per song, so that most draws pass validation
    song_seconds = epoch_seconds * rng.randint(1, 6) if rng.random() < 0.9 else rng.randint(4, 60)
    features = [f for f in FEATURE_FAMILIES if rng.random() < 0.5] or [rng.choice(FEATURE_FAMILIES)]
    return {
        "seed": rng.randint(0, 10_000),
        "features": features,
        "test_fraction": rng.choice([0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.6, 0.75, 0.9]),
        "generator": {
            "n_subjects": rng.randint(1, 3),
            "n_songs": rng.randint(1, 4),
            "song_seconds": song_seconds,
            "inter_song_silence_seconds": rng.randint(10, 15),
            "lead_silence_seconds": rng.randint(10, 20),
            "trail_silence_seconds": rng.randint(1, 10),
            "n_channels": n_channels,
            "n_bad_channels": rng.randint(0, min(3, n_channels - 1)),
            "class_separation": round(rng.uniform(0.0, 1.0), 2),
            "line_noise_amplitude_uv": round(rng.uniform(0.0, 10.0), 1),
        },
        "preprocess": {
            "epoch_seconds": epoch_seconds,
            "notch_hz": rng.choice([50.0, 60.0]),
        },
        "model": {
            "kind": rng.choice(MODEL_KINDS),
            "knn_k": rng.randint(1, 20),
            "tree_max_depth": rng.randint(1, 6),
            "tree_min_leaf": rng.randint(1, 4),
            "gboost_rounds": rng.randint(1, 20),
            "mlp_epochs": rng.randint(1, 30),
        },
    }


def run_config(config: dict, timeout: float) -> dict:
    """Run pipeline on config in a fresh temporary directory; return its
    outcome: ok, refused (before any stage ran), failed (after a stage
    started), traceback or timeout, with the last lines of its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="eegsong-fuzz-") as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = [sys.executable, "-m", "eegsong.cli", "pipeline", "--config", str(cfg_path),
                "--out", str(Path(tmp) / "run")]
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"outcome": "timeout", "stderr": ""}
    err = proc.stderr.strip()
    if "Traceback (most recent call last)" in err:
        outcome = "traceback"
    elif proc.returncode == 0:
        outcome = "ok"
    elif "[generate]" in proc.stdout:
        outcome = "failed"
    else:
        outcome = "refused"
    return {"outcome": outcome, "stderr": err[-2000:]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=200, help="number of configs to draw")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config streams")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per pipeline run")
    args = parser.parse_args()
    counts = {"ok": 0, "refused": 0, "failed": 0, "traceback": 0, "timeout": 0}
    refusals: dict[str, int] = {}
    for index in range(args.configs):
        config = draw_config(args.seed, index)
        result = run_config(config, args.timeout)
        counts[result["outcome"]] += 1
        if result["outcome"] == "refused":
            # the refusal's wording with its numbers masked, to group the reasons
            reason = result["stderr"].splitlines()[-1] if result["stderr"] else "(no message)"
            key = re.sub(r"\d+(\.\d+)?", "N", reason.removeprefix("error: "))[:90]
            refusals[key] = refusals.get(key, 0) + 1
        elif result["outcome"] != "ok":
            print(f"{result['outcome'].upper()} config {index}: {json.dumps(config)}")
            print("    " + result["stderr"].replace("\n", "\n    "))
        sys.stdout.flush()
    print(f"{args.configs} configs, seed {args.seed}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for reason, n in sorted(refusals.items(), key=lambda item: -item[1]):
        print(f"  refused {n:3d}: {reason}")
    return 1 if counts["failed"] + counts["traceback"] + counts["timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())
