"""Benchmark of the eegsong pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0: set up, then run timed passes for about S seconds, check every
pass's outputs, and print the end-to-end metrics (medians over passes).  One
set-up writes the run config and imports the CLI once; it is done five times
and setup_s is the median.
--trace 1: one traced run that prints the per-layer metrics, plus the
tracing overhead as traced minus untraced wall time of the stage-by-stage
CLI run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The program is run from ./src (no install needed) as
`python -m eegsong.cli` or through its public functions, always in child
processes with one BLAS thread.

Workloads:
  pipeline_2subj   one `eegsong pipeline` process, 2 subjects x 6 songs of 32
                   channels, all four feature families, knn: the signal path.
  cli_stages_tiny  the seven CLI stages as seven processes on a tiny 8-channel
                   config: per-process fixed costs.
Every model kind is fitted and scored in the traced runs of both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

from harness import SRC_DIR, WORK_DIR, CheckFailed, fresh_dir, machine_block, remove_work_dir
from workloads import END_TO_END_METRICS, LAYER_METRICS, WORKLOADS, Context

# complete set-ups per run; setup_s is their median
SETUP_REPS = 5


def timed_passes(workload, ctx: Context, seconds: float):
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        try:
            passes.append(workload.run_pass(ctx))
        except CheckFailed as exc:
            failures.append(str(exc))
            print(f"[{workload.name}] pass failed: {exc}", flush=True)
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within half a pass of the budget
        if elapsed * (1 + 0.5 / (len(passes) + len(failures))) > seconds:
            return passes, failures


def end_to_end(workload, ctx: Context, seconds: float) -> dict:
    setup = [workload.setup(ctx) for _ in range(SETUP_REPS)]
    passes, failures = timed_passes(workload, ctx, seconds)
    if not passes:
        raise CheckFailed(f"every pass failed; first: {failures[0]}")
    # bit-identical reruns: every pass must reproduce the first pass's outputs
    reference = passes[0].fingerprint
    good = [p for p in passes if p.fingerprint == reference]
    failed = len(failures) + len(passes) - len(good)
    values = {
        "setup_s": median(setup),
        "wall_s": median(p.wall_s for p in good),
        "cpu_s": median(p.cpu_s for p in good),
        "peak_rss_mb": median(p.peak_rss_mb for p in good),
        "artifact_mb": median(p.artifact_mb for p in good),
        "accuracy_pct": median(p.accuracy_pct for p in good),
    }
    print("passes: " + json.dumps({
        "samples": len(good),
        "setup_s": setup,
        "wall_s": [p.wall_s for p in good],
        "cpu_s": [p.cpu_s for p in good],
        "peak_rss_mb": [p.peak_rss_mb for p in good],
        "fingerprint": reference,
    }))
    return {
        "correct": failed == 0,
        "attempted": len(passes) + len(failures),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_METRICS},
    }


def per_layer(workload, ctx: Context) -> dict:
    workload.setup(ctx)
    values, attempted = workload.trace(ctx)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC_DIR / "eegsong" / "cli.py").is_file():
        print(f"error: no eegsong sources under {SRC_DIR}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, work=fresh_dir(WORK_DIR / f"{workload.name}-{os.getpid()}"))
    print("machine: " + json.dumps(machine_block()), flush=True)
    try:
        if args.trace:
            result = per_layer(workload, ctx)
        else:
            result = end_to_end(workload, ctx, args.seconds)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work_dir(ctx.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
