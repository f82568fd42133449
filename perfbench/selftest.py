"""Smoke test of the benchmark itself, at micro sizes (about two minutes).

    python3 perfbench/selftest.py

Runs every workload's end-to-end measurement and traced run on a small
generator config, and checks that each metric named in BENCHMARK.json is
printed with its unit.  Also checks that the output checks reject broken
artifacts.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

from harness import (
    REPO_ROOT,
    STAGE_ARTIFACTS,
    WORK_DIR,
    CheckFailed,
    check_dataset_csv,
    check_stage_artifacts,
    parse_report,
    remove_work_dir,
)
from run import end_to_end, per_layer
from workloads import CLI_STAGES, TINY_GEN, WORKLOADS, CliWorkload, Context

MICRO = {
    "pipeline_2subj": CliWorkload("pipeline_2subj", ("pipeline",), TINY_GEN),
    "cli_stages_tiny": CliWorkload("cli_stages_tiny", CLI_STAGES, TINY_GEN),
}


def scratch_dir(prefix: str) -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-{os.getpid()}-", dir=WORK_DIR))


def declared() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


class WorkloadSmoke(unittest.TestCase):
    def setUp(self):
        self.work = scratch_dir("selftest")
        self.spec = declared()

    def tearDown(self):
        remove_work_dir(self.work)

    def assert_metrics(self, result: dict, section: str):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_declared_workloads_exist(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(WORKLOADS))

    def test_each_workload(self):
        for name, workload in MICRO.items():
            with self.subTest(workload=name):
                work = self.work / name
                work.mkdir()
                result = end_to_end(workload, Context(seed=3, work=work), seconds=0)
                self.assert_metrics(result, "end_to_end")
                result = per_layer(workload, Context(seed=3, work=work))
                self.assert_metrics(result, "per_layer")


class OutputChecks(unittest.TestCase):
    REPORT = "n_test: 4\nchance_pct: 50\noverall_pct: 75\nclass_labels: 1,2\nconfusion:\n2,0\n1,1\n"

    def setUp(self):
        self.dir = scratch_dir("checks")

    def tearDown(self):
        remove_work_dir(self.dir)

    def test_report_must_agree_with_its_confusion(self):
        path = self.dir / "report.txt"
        path.write_text(self.REPORT)
        self.assertEqual(parse_report(path)["accuracy_pct"], 75.0)
        path.write_text(self.REPORT.replace("overall_pct: 75", "overall_pct: 100"))
        with self.assertRaises(CheckFailed):
            parse_report(path)

    def test_dataset_must_be_finite(self):
        path = self.dir / "dataset.csv"
        header = "ch0_a,song_id,subject_id,epoch_index,enjoyment,familiarity\n"
        path.write_text(header + "1.5,1,1,0,3,3\n")
        self.assertEqual(check_dataset_csv(path), (1, 1))
        path.write_text(header + "nan,1,1,0,3,3\n")
        with self.assertRaises(CheckFailed):
            check_dataset_csv(path)

    def test_missing_sidecar_fails(self):
        (self.dir / "confusion.pgm").write_text("x\n")
        for stage, name in STAGE_ARTIFACTS.items():
            (self.dir / name).write_text("x\n")
            (self.dir / f"{name}.meta.json").write_text(json.dumps({"stage": stage}))
        check_stage_artifacts(self.dir)
        (self.dir / "plan.csv.meta.json").unlink()
        with self.assertRaises(CheckFailed):
            check_stage_artifacts(self.dir)


if __name__ == "__main__":
    sys.exit(unittest.main())
