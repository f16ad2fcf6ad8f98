"""Very short end-to-end runs of every workload through the correctness
checks, plus the failure mode without sources (non-zero exit, no result).
Builds the harness on first use, like perfbench/run.py.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, root=ROOT, seconds=9):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        out = p.stdout.strip().splitlines()
        result = json.loads(out[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in names))
        self.assertEqual(sum("check: PASS" in line for line in out), 3)
        return result["metrics"]

    def test_varmail(self):
        m = self.check("varmail", 0)
        self.assertGreater(m["fsync_p50_us"]["value"], 0)

    def test_webserver(self):
        self.check("webserver", 0)

    def test_webproxy_flat(self):
        self.check("webproxy_flat", 0)

    def test_traced(self):
        m = self.check("webproxy_flat", 1)
        self.assertGreater(m["trace.traced_ops_per_s"]["value"], 0)
        self.assertGreater(m["iface.sync_p50_us"]["value"], 0)
        self.assertGreater(m["flatfs.sync_calls"]["value"], 0)

    def test_fileserver_mix(self):
        """Concurrent clients; not a BENCHMARK.json workload because its
        clients lose acknowledged appends (an open defect), which fails
        this test until the defect is fixed."""
        self.check("fileserver_mix", 0)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_result(self):
        build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = build / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE.parent, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            p = run("varmail", 0, root=bare, seconds=1)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
