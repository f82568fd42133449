"""Process running, output checks and small statistics shared by the workloads.

The benchmark process itself never imports eegsong: every measured piece of
work runs in a child Python process, so that its CPU time and peak RSS come
from that child's rusage alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
WORK_DIR = REPO_ROOT / ".bench_runs"

# One BLAS/OpenMP thread per child: cpu_s then counts the program's own work,
# and two children never fight over the cores of a small box.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD_TIMEOUT_S = 150.0

CLI_STAGES = ("generate", "preprocess", "features", "split", "train", "evaluate", "report")
# artifact written by each stage; each has a <artifact>.meta.json sidecar
STAGE_ARTIFACTS = {
    "generate": "sessions",
    "preprocess": "epochs.npz",
    "features": "dataset.csv",
    "split": "plan.csv",
    "train": "model.npz",
    "evaluate": "report.txt",
    "report": "confusion.csv",
}
META_COLUMNS = ("song_id", "subject_id", "epoch_index", "enjoyment", "familiarity")


class CheckFailed(Exception):
    """A pass produced output that fails the benchmark's output check."""


@dataclass
class Proc:
    argv: list[str]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: str

    def last_json(self) -> dict:
        lines = self.output.strip().splitlines()
        if self.returncode != 0 or not lines:
            raise CheckFailed(f"{self.argv[1:3]} exited {self.returncode}: {self.output[-2000:]}")
        return json.loads(lines[-1])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str]) -> Proc:
    """Run `python <args>` to completion; time it and read its rusage."""
    argv = [sys.executable] + list(args)
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL,
        env=child_env(),
        cwd=REPO_ROOT,
        text=True,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv=argv,
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        output=output,
    )


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    """Delete one invocation's scratch directory, and the shared parent once
    no other invocation uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another invocation is still using it


def tree_mb(path: Path) -> float:
    total = sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return total / 1e6


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def parse_report(path: Path) -> dict:
    """Parse a report.txt and check it is self-consistent: a square confusion
    block over class_labels whose total is n_test and whose diagonal gives
    overall_pct."""
    if not path.is_file():
        raise CheckFailed(f"missing report {path.name}")
    fields: dict[str, str] = {}
    confusion: list[list[int]] = []
    in_confusion = False
    try:
        for line in path.read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            if in_confusion:
                confusion.append([int(v) for v in line.split(",")])
                continue
            key, _, value = line.partition(":")
            if key == "confusion":
                in_confusion = True
            else:
                fields[key.strip()] = value.strip()
        n_test = int(fields["n_test"])
        chance = float(fields["chance_pct"])
        overall = float(fields["overall_pct"])
        n_classes = len(fields["class_labels"].split(","))
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: malformed report ({exc})") from exc
    if len(confusion) != n_classes or any(len(row) != n_classes for row in confusion):
        raise CheckFailed(f"{path.name}: confusion block is not {n_classes}x{n_classes}")
    if sum(map(sum, confusion)) != n_test or n_test <= 0:
        raise CheckFailed(f"{path.name}: confusion total differs from n_test={n_test}")
    correct = sum(confusion[i][i] for i in range(n_classes))
    if not math.isclose(100.0 * correct / n_test, overall, rel_tol=1e-9):
        raise CheckFailed(f"{path.name}: overall_pct {overall} disagrees with the confusion")
    return {"n_test": n_test, "chance_pct": chance, "accuracy_pct": overall}


def check_dataset_csv(path: Path) -> tuple[int, int]:
    """Every feature cell of a dataset.csv parses to a finite float; returns
    (rows, feature columns)."""
    if not path.is_file():
        raise CheckFailed(f"missing {path.name}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header[-len(META_COLUMNS):]) != META_COLUMNS:
            raise CheckFailed(f"{path.name}: header lacks the meta columns")
        width = len(header) - len(META_COLUMNS)
        rows = 0
        for row in reader:
            if len(row) != len(header):
                raise CheckFailed(f"{path.name}: row {rows + 2} has {len(row)} fields")
            try:
                finite = all(math.isfinite(float(v)) for v in row[:width])
            except ValueError:
                finite = False
            if not finite:
                raise CheckFailed(f"{path.name}: row {rows + 2} has a non-finite feature")
            rows += 1
    if rows == 0 or width == 0:
        raise CheckFailed(f"{path.name}: empty dataset")
    return rows, width


def check_stage_artifacts(run_dir: Path) -> None:
    """Each stage's artifact and its .meta.json sidecar exist, and the sidecar
    names that stage."""
    for stage in CLI_STAGES:
        artifact = run_dir / STAGE_ARTIFACTS[stage]
        sidecar = Path(str(artifact) + ".meta.json")
        if not artifact.exists() or not sidecar.is_file():
            raise CheckFailed(f"stage {stage}: missing {artifact.name} or its sidecar")
        try:
            meta = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{sidecar.name}: not JSON ({exc})") from exc
        if meta.get("stage") != stage:
            raise CheckFailed(f"{sidecar.name}: names stage {meta.get('stage')!r}")
    if not (run_dir / "confusion.pgm").is_file():
        raise CheckFailed("stage report: missing confusion.pgm")


def chance_band_pct(n_test: int, n_classes: int) -> float:
    """Upper edge of the 99% band of accuracy under guessing: the smallest
    share c/n with P(Binomial(n, 1/k) <= c) >= 0.99."""
    p = 1.0 / n_classes
    cumulative = 0.0
    for c in range(n_test + 1):
        cumulative += math.comb(n_test, c) * p**c * (1 - p) ** (n_test - c)
        if cumulative >= 0.99:
            return 100.0 * c / n_test
    return 100.0


def machine_block() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
    }
