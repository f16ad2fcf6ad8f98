#!/usr/bin/env python3
"""Tests for tools/bench_pair.py's verdicts, on synthetic perfbench run files
(no builds, no runs). Stdlib only; wired as the `bench_pair_test` ctest
target.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402

with open(os.path.join(bench_pair.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASELINE = {"ops_per_s": 100000.0, "op_p50_us": 4.0, "op_p99_us": 40.0,
            "fsync_p50_us": 30.0, "fsync_p99_us": 55.0, "op_ok_ratio": 1.0,
            "write_amp": 1.46, "setup_s": 0.17, "dram_mb": 30.0}


class BenchPairTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(prefix="bench_pair_test_")

    def tearDown(self):
        self.dir.cleanup()

    def run_file(self, scale=None, correct=True, attempted=1000, failed=0):
        """Writes a perfbench-style stdout (header, then the JSON summary as
        the last line) and reads it back the way the tool does."""
        values = dict(BASELINE)
        values.update(scale or {})
        summary = {"correct": correct, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": "x"}
                               for k, v in values.items()}}
        fd, path = tempfile.mkstemp(dir=self.dir.name, suffix=".out")
        with os.fdopen(fd, "w") as f:
            f.write("perfbench workload=varmail seed=1\nmetrics: ...\n")
            f.write(json.dumps(summary) + "\n")
        return bench_pair.load_summary(path)

    def judge(self, base_runs, head_runs, workload="varmail"):
        """The record and failures with `workload` given the runs above and
        every other workload identical on both sides."""
        runs = {w: {"base": [self.run_file() for _ in base_runs],
                    "head": [self.run_file() for _ in base_runs]}
                for w in WORKLOADS}
        runs[workload] = {"base": base_runs, "head": head_runs}
        return bench_pair.judge(SPEC, runs)

    def series(self, metric, values, **kwargs):
        return [self.run_file({metric: v}, **kwargs) for v in values]

    def test_summary_is_the_last_line(self):
        run = self.run_file({"ops_per_s": 123.0})
        self.assertEqual(run["metrics"]["ops_per_s"]["value"], 123.0)
        path = os.path.join(self.dir.name, "crashed.out")
        with open(path, "w") as f:
            f.write("perfbench: harness exited with 4\n")
        self.assertIsNone(bench_pair.load_summary(path))

    def test_twenty_percent_throughput_drop_fails(self):
        base = self.series("ops_per_s", [100e3, 101e3, 99e3, 100.5e3, 99.5e3])
        head = self.series("ops_per_s", [80e3, 80.8e3, 79.2e3, 80.4e3, 79.6e3])
        # BENCHMARK.json bounds ops_per_s at 25%, so a 20% drop is within
        # it and reads ok.
        record, failures = self.judge(base, head, "webserver")
        self.assertEqual(
            record["webserver"]["metrics"]["ops_per_s"]["verdict"], "ok")
        self.assertEqual(failures, [])
        # Against a 15% throughput bound the same drop fails and names the
        # workload and metric.
        spec = json.loads(json.dumps(SPEC))
        for m in spec["end_to_end"]:
            if m["name"] == "ops_per_s":
                m["bound"] = 0.15
        runs = {"webserver": {"base": base, "head": head}}
        record, failures = bench_pair.judge(spec, runs)
        row = record["webserver"]["metrics"]["ops_per_s"]
        self.assertEqual(row["verdict"], "regression")
        self.assertEqual(row["wins"], 0)
        self.assertEqual(len(failures), 1)
        self.assertIn("webserver ops_per_s", failures[0])

    def test_drop_beyond_the_bound_fails(self):
        base = self.series("ops_per_s", [100e3, 101e3, 99e3])
        head = self.series("ops_per_s", [70e3, 71e3, 69e3])
        record, failures = self.judge(base, head)
        self.assertEqual(
            record["varmail"]["metrics"]["ops_per_s"]["verdict"],
            "regression")
        self.assertEqual(len(failures), 1)

    def test_two_percent_wobble_passes(self):
        base = self.series("ops_per_s", [100e3, 101e3, 99e3, 100e3])
        head = self.series("ops_per_s", [98e3, 102e3, 99e3, 98.5e3])
        record, failures = self.judge(base, head)
        row = record["varmail"]["metrics"]["ops_per_s"]
        self.assertEqual(row["verdict"], "ok")
        self.assertEqual(row["wins"], 1)
        self.assertEqual(failures, [])

    def test_wide_parent_spread_is_unresolved(self):
        base = self.series("op_p99_us", [20.0, 40.0, 60.0, 30.0, 50.0])
        head = self.series("op_p99_us", [25.0, 45.0, 35.0, 55.0, 40.0])
        record, failures = self.judge(base, head)
        row = record["varmail"]["metrics"]["op_p99_us"]
        self.assertEqual(row["base_iqr"], 20.0)
        self.assertEqual(row["verdict"], "unresolved")
        self.assertEqual(failures, [])
        # Unless every change run beats every parent run.
        head = self.series("op_p99_us", [10.0, 12.0, 11.0, 9.0, 13.0])
        record, _ = self.judge(base, head)
        self.assertEqual(
            record["varmail"]["metrics"]["op_p99_us"]["verdict"], "ok")

    def test_incorrect_run_fails(self):
        base = [self.run_file() for _ in range(3)]
        head = [self.run_file(), self.run_file(correct=False),
                self.run_file()]
        _, failures = self.judge(base, head)
        self.assertEqual(len(failures), 1)
        self.assertIn("correct", failures[0])

    def test_more_failed_operations_on_the_change_fails(self):
        base = [self.run_file(attempted=1000, failed=1) for _ in range(3)]
        head = [self.run_file(attempted=1000, failed=2) for _ in range(3)]
        _, failures = self.judge(base, head)
        self.assertEqual(len(failures), 1)
        self.assertIn("fails 6 of 3000", failures[0])
        # The same count over more attempted operations is a smaller share.
        head = [self.run_file(attempted=2000, failed=1) for _ in range(3)]
        _, failures = self.judge(base, head)
        self.assertEqual(failures, [])

    def test_lower_is_better_metrics_judge_rises(self):
        base = self.series("fsync_p50_us", [30.0, 31.0, 29.0])
        slower = self.series("fsync_p50_us", [40.0, 41.0, 39.0])
        record, failures = self.judge(base, slower)
        row = record["varmail"]["metrics"]["fsync_p50_us"]
        self.assertEqual(row["verdict"], "regression")
        self.assertEqual(row["wins"], 0)
        self.assertIn("varmail fsync_p50_us", failures[0])
        faster = self.series("fsync_p50_us", [20.0, 21.0, 19.0])
        record, failures = self.judge(base, faster)
        row = record["varmail"]["metrics"]["fsync_p50_us"]
        self.assertEqual(row["verdict"], "ok")
        self.assertEqual(row["wins"], 3)
        self.assertEqual(failures, [])

    def test_side_spec_is_a_revision_and_assignments(self):
        side = bench_pair.parse_side("HEAD AERIE_DIRECT=off AERIE_PROF=1")
        self.assertEqual(side["rev"], "HEAD")
        self.assertEqual(side["env"], {"AERIE_DIRECT": "off",
                                       "AERIE_PROF": "1"})
        with self.assertRaises(ValueError):
            bench_pair.parse_side("HEAD AERIE_DIRECT")
        with self.assertRaises(ValueError):
            bench_pair.parse_side("  ")


if __name__ == "__main__":
    unittest.main()
