"""The workloads: what one pass runs, how it is checked, and the traced
run that splits a pass into per-layer numbers.

Every pass gets a fresh run directory, which is deleted once its artifact size
is taken.  Without that, `eegsong pipeline` would reuse the sessions of the
previous pass and `evaluate` would refuse the consumed split plan.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    BENCH_DIR,
    CLI_STAGES,
    CheckFailed,
    chance_band_pct,
    check_dataset_csv,
    check_stage_artifacts,
    fresh_dir,
    parse_report,
    run_child,
    sha256,
    tree_mb,
)
from spans import Tracer, self_times

MODEL_KINDS = ("knn", "tree", "gboost", "gnb", "mlp", "kmeans", "gmm")
# Unsupervised kinds, scored through a majority-label map: on these small
# test folds they land inside the chance band on some seeds.
CLUSTERING_KINDS = ("kmeans", "gmm")
FEATURE_FAMILIES = ("spectopo", "wavedec", "dfa", "entropy")
PREPROCESS_SPANS = (
    "capture", "baseline", "notch", "rereference", "bad_channels",
    "run_pipeline", "save_epochs", "load_epochs",
)
EVALUATION_SPANS = ("split", "evaluate", "ratings", "write_report", "render_confusion")

# (name, unit, better) of every metric a traced run prints
LAYER_METRICS = (
    [(f"synth.{s}_s", "s", "lower") for s in ("generate_session", "write_session", "read_session")]
    + [(f"preprocess.{s}_s", "s", "lower") for s in PREPROCESS_SPANS]
    + [
        ("preprocess.epochs_npz_mb", "MB", "lower"),
        ("preprocess.epochs", "count", "higher"),
        ("preprocess.channels_rejected", "count", "lower"),
    ]
    + [(f"features.{f}_s", "s", "lower") for f in FEATURE_FAMILIES]
    + [
        ("features.write_csv_s", "s", "lower"),
        ("features.read_csv_s", "s", "lower"),
        ("features.dataset_mb", "MB", "lower"),
        ("features.columns", "count", "lower"),
    ]
    + [
        metric
        for kind in MODEL_KINDS
        for metric in (
            (f"models.{kind}.fit_s", "s", "lower"),
            (f"models.{kind}.predict_s", "s", "lower"),
            (f"models.{kind}.accuracy_pct", "%", "higher"),
        )
    ]
    + [
        ("models.kmeans.iters", "count", "lower"),
        ("models.gmm.iters", "count", "lower"),
        ("models.save_load_s", "s", "lower"),
    ]
    + [(f"evaluation.{s}_s", "s", "lower") for s in EVALUATION_SPANS]
    + [("cli.import_s", "s", "lower")]
    + [(f"cli.{stage}_s", "s", "lower") for stage in CLI_STAGES]
    + [(f"cli.{stage}.peak_rss_mb", "MB", "lower") for stage in CLI_STAGES]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("accuracy_pct", "%"),
)

# The TINY generator of tests/conftest.py (without its seed), with 60 s songs
# and a stronger song signal: at 20 s songs the 8 held-out rows score at
# chance on some seeds, so neither the chance check nor accuracy_pct would
# mean anything.
TINY_GEN = {
    "n_subjects": 2,
    "n_songs": 4,
    "song_seconds": 60,
    "inter_song_silence_seconds": 10,
    "lead_silence_seconds": 20,
    "trail_silence_seconds": 10,
    "sample_rate_hz": 250,
    "n_channels": 8,
    "n_bad_channels": 1,
    "class_separation": 3.0,
}
# Default subjects (32 channels, 250 Hz, 120 s songs, 12 ten-second epochs
# per song), with 6 of the 12 songs and shorter silences so that one pass
# takes about 13 s rather than half a minute.
PIPELINE_GEN = {
    "n_subjects": 2,
    "n_songs": 6,
    "lead_silence_seconds": 20,
    "trail_silence_seconds": 20,
}

# runs of each side of the import probe
PROBE_REPS = 3


@dataclass
class Context:
    seed: int
    work: Path  # scratch directory of this invocation, removed at exit


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    artifact_mb: float
    accuracy_pct: float
    fingerprint: dict[str, str]


def python_c_walls(code: str, reps: int) -> list[float]:
    walls = []
    for _ in range(reps):
        proc = run_child(["-c", code])
        if proc.returncode != 0:
            raise CheckFailed(f"python -c {code!r} exited {proc.returncode}: {proc.output[-2000:]}")
        walls.append(proc.wall_s)
    return walls


def import_probe() -> float:
    """`python -c "import eegsong.cli"` minus a bare interpreter start."""
    return statistics.median(python_c_walls("import eegsong.cli", PROBE_REPS)) - statistics.median(
        python_c_walls("pass", PROBE_REPS)
    )


def run_walk(ctx: Context, gen: dict) -> dict:
    out = fresh_dir(ctx.work / "walk")
    gen_path = ctx.work / "walk_gen.json"
    gen_path.write_text(json.dumps({**gen, "seed": ctx.seed}))
    try:
        proc = run_child([str(BENCH_DIR / "walk.py"), "--gen", str(gen_path), "--out", str(out)])
        return proc.last_json()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_zoo(ctx: Context, dataset: Path) -> dict:
    out = fresh_dir(ctx.work / "zoo")
    try:
        proc = run_child([str(BENCH_DIR / "zoo.py"), "--dataset", str(dataset),
                          "--out", str(out), "--seed", str(ctx.seed)])
        result = proc.last_json()
        check_zoo(out, result)
        return result
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_zoo(out: Path, result: dict) -> None:
    """Each kind's report parses and agrees with its predictions, and each
    supervised kind beats the 99% chance band of its test fold."""
    for kind in MODEL_KINDS:
        kind_dir = out / kind
        report = parse_report(kind_dir / "report.txt")
        claimed = result["kinds"][kind]
        if not (
            math.isclose(report["accuracy_pct"], claimed["accuracy_pct"], rel_tol=1e-9)
            and math.isclose(report["accuracy_pct"], claimed["predicted_pct"], rel_tol=1e-9)
        ):
            raise CheckFailed(f"{kind}: report accuracy disagrees with the predictions")
        n_classes = round(100.0 / report["chance_pct"])
        limit = chance_band_pct(report["n_test"], n_classes)
        if kind not in CLUSTERING_KINDS and report["accuracy_pct"] <= limit:
            raise CheckFailed(
                f"{kind}: {report['accuracy_pct']:.1f}% is inside the 99% chance band "
                f"(<= {limit:.1f}% on {report['n_test']} rows)"
            )
        for name in ("model.npz", "confusion.csv", "confusion.pgm"):
            if not (kind_dir / name).is_file():
                raise CheckFailed(f"{kind}: missing {name}")
    parse_report(out / "ratings_enjoyment.txt")


def same_outputs(first: PassResult, second: PassResult) -> None:
    """Reruns are bit-identical: a traced pass reproduces the untraced one."""
    if first.fingerprint != second.fingerprint:
        raise CheckFailed(f"outputs differ between passes: {first.fingerprint} vs {second.fingerprint}")


def layer_metrics(
    spans: list[list],
    walk: dict,
    zoo: dict,
    cli_rss: dict[str, float],
    import_s: float,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    values = {f"{name}_s": t for name, t in self_times(spans).items()}
    counts = walk["counts"]
    values.update({
        "preprocess.epochs_npz_mb": counts["epochs_npz_mb"],
        "preprocess.epochs": counts["epochs"],
        "preprocess.channels_rejected": counts["channels_rejected"],
        "features.dataset_mb": counts["dataset_mb"],
        "features.columns": counts["columns"],
        "models.kmeans.iters": zoo["kinds"]["kmeans"]["iters"],
        "models.gmm.iters": zoo["kinds"]["gmm"]["iters"],
        "cli.import_s": import_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for kind in MODEL_KINDS:
        values[f"models.{kind}.accuracy_pct"] = zoo["kinds"][kind]["accuracy_pct"]
    for stage, rss in cli_rss.items():
        values[f"cli.{stage}.peak_rss_mb"] = rss
    return values


class CliWorkload:
    """Passes that run `python -m eegsong.cli` processes on one config."""

    def __init__(self, name, commands, gen):
        self.name = name
        self.commands = commands
        self.gen = gen

    def config_path(self, ctx: Context) -> Path:
        return ctx.work / f"{self.name}.json"

    def setup(self, ctx: Context) -> float:
        """Write the run config, then import the CLI once so that the first
        timed pass finds bytecode and files already cached.  Returns the
        wall time of the whole set-up."""
        start = time.perf_counter()
        self.config_path(ctx).write_text(
            json.dumps({"generator": self.gen, "model": {"kind": "knn"}})
        )
        python_c_walls("import eegsong.cli", 1)
        return time.perf_counter() - start

    def run_cli(self, ctx: Context, commands, run_dir: Path, tracer=None) -> list:
        procs = []
        for command in commands:
            argv = ["-m", "eegsong.cli", command, "--config", str(self.config_path(ctx)),
                    "--seed", str(ctx.seed), "--out", str(run_dir)]
            if tracer is None:
                proc = run_child(argv)
            else:
                with tracer.span(f"cli.{command}"):
                    proc = run_child(argv)
            procs.append(proc)
            if proc.returncode != 0:
                raise CheckFailed(f"{command} exited {proc.returncode}: {proc.output[-2000:]}")
        if "[generate] wrote" not in procs[0].output:
            raise CheckFailed("generate did not run: sessions were reused")
        return procs

    def check(self, run_dir: Path) -> tuple[float, dict[str, str]]:
        check_stage_artifacts(run_dir)
        check_dataset_csv(run_dir / "dataset.csv")
        report = parse_report(run_dir / "report.txt")
        if report["accuracy_pct"] <= report["chance_pct"]:
            raise CheckFailed(
                f"accuracy {report['accuracy_pct']}% is not above chance {report['chance_pct']}%"
            )
        return report["accuracy_pct"], {
            "dataset.csv": sha256(run_dir / "dataset.csv"),
            "report.txt": sha256(run_dir / "report.txt"),
        }

    def checked_result(self, procs, run_dir: Path) -> PassResult:
        accuracy, fingerprint = self.check(run_dir)
        return PassResult(
            wall_s=sum(p.wall_s for p in procs),
            cpu_s=sum(p.cpu_s for p in procs),
            peak_rss_mb=max(p.peak_rss_mb for p in procs),
            artifact_mb=tree_mb(run_dir),
            accuracy_pct=accuracy,
            fingerprint=fingerprint,
        )

    def run_pass(self, ctx: Context) -> PassResult:
        run_dir = fresh_dir(ctx.work / "run")
        try:
            return self.checked_result(self.run_cli(ctx, self.commands, run_dir), run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def trace(self, ctx: Context) -> tuple[dict[str, float], int]:
        """The config stage by stage, once untraced and once with a span per
        process, then every model kind on the dataset those stages wrote, the
        signal-path walk and the import probe.

        trace.overhead_s is the traced minus the untraced wall time of the
        stage-by-stage run.  Those spans sit in this process, around the
        stage processes; the spans inside the walk and zoo children have no
        untraced counterpart and are not part of it."""
        untraced_dir = fresh_dir(ctx.work / "untraced")
        try:
            untraced = self.checked_result(
                self.run_cli(ctx, CLI_STAGES, untraced_dir), untraced_dir
            )
        finally:
            shutil.rmtree(untraced_dir, ignore_errors=True)
        tracer = Tracer()
        run_dir = fresh_dir(ctx.work / "traced")
        procs = self.run_cli(ctx, CLI_STAGES, run_dir, tracer)
        traced = self.checked_result(procs, run_dir)
        same_outputs(untraced, traced)
        rss = {stage: p.peak_rss_mb for stage, p in zip(CLI_STAGES, procs)}
        zoo = run_zoo(ctx, run_dir / "dataset.csv")
        walk = run_walk(ctx, self.gen)
        values = layer_metrics(
            tracer.spans + zoo["spans"] + walk["spans"], walk, zoo, rss,
            import_probe(), traced.wall_s, untraced.wall_s,
        )
        return values, 2


WORKLOADS = {
    "pipeline_2subj": CliWorkload("pipeline_2subj", ("pipeline",), PIPELINE_GEN),
    "cli_stages_tiny": CliWorkload("cli_stages_tiny", CLI_STAGES, TINY_GEN),
}
