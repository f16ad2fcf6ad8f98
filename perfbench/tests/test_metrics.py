"""Metric derivations of perfbench on fixed inputs.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import metrics  # noqa: E402


def span(op, dur_ns, ok=True, start=0, client=0):
    return (start, dur_ns, op, client, ok)


def raw_window(before, after, seconds=2.0, bytes_read=0, sample_bytes=0,
               histograms=None):
    return {"seconds": seconds, "bytes_read": bytes_read,
            "sample_bytes": sample_bytes, "before": before, "after": after,
            "histograms": histograms or {}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(metrics.percentile(vals, 50), 50)
        self.assertEqual(metrics.percentile(vals, 90), 90)

    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 samples has exactly 10 beyond it: reported.
        self.assertEqual(metrics.percentile(list(range(1, 1001)), 99), 990)
        # 999 samples leave 9 beyond: not reported.
        self.assertIsNone(metrics.percentile(list(range(1, 1000)), 99))
        # p50 needs 20 samples.
        self.assertEqual(metrics.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(metrics.percentile(list(range(1, 20)), 50))
        self.assertIsNone(metrics.percentile([], 50))


class RatioAndDeltaTest(unittest.TestCase):
    def test_ratio_base(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertIsNone(metrics.ratio(3, 0))
        self.assertEqual(metrics.ratio(0, 5), 0.0)

    def test_median_over_processes(self):
        runs = [{"a": 3.0, "b": None}, {"a": 1.0, "b": None},
                {"a": 2.0, "b": 5.0}]
        self.assertEqual(metrics.median_of(runs), {"a": 2.0, "b": 5.0})
        self.assertIsNone(metrics.median_of([{"a": None}])["a"])

    def test_counter_deltas(self):
        before = {"a": 2, "b": 10}
        after = {"a": 5, "b": 10, "c": 7}
        self.assertEqual(metrics.deltas(before, after),
                         {"a": 3, "b": 0, "c": 7})


class WindowTest(unittest.TestCase):
    def window(self, spans, before=None, after=None, **kw):
        return metrics.Window(raw_window(before or {}, after or {}, **kw),
                              spans)

    def test_failures_counted_not_timed(self):
        spans = [span("open", 1000)] * 30 + [span("open", 10**9, ok=False)]
        w = self.window(spans, seconds=2.0)
        self.assertEqual(w.attempted, 31)
        self.assertEqual(w.failed, 1)
        self.assertEqual(w.ops_per_s(), 15.0)  # successes only
        self.assertEqual(w.lat_us("open", 50), 1.0)  # failure not in tail

    def test_end_to_end(self):
        spans = ([span("fsync", 50_000)] * 40 + [span("read", 2_000)] * 40 +
                 [span("write", 3_000, ok=False)] * 20)
        after = {"scm.flush.lines": 100, "scm.stream.bytes": 6400,
                 "pxfs.api.logical_write_bytes": 3200,
                 "flatfs.api.logical_write_bytes": 0}
        before = {"scm.flush.lines": 50, "pxfs.api.logical_write_bytes": 0}
        w = self.window(spans, before, after, seconds=4.0,
                        sample_bytes=2**20)
        m = metrics.end_to_end(w, 2.0, 2**30 + 5 * 2**20, 2**30)
        self.assertEqual(m["ops_per_s"], 20.0)
        self.assertEqual(m["op_ok_ratio"], 0.8)
        self.assertEqual(m["fsync_p50_us"], 50.0)
        self.assertEqual(m["op_p50_us"], 2.0)
        self.assertIsNone(m["fsync_p99_us"])  # 40 samples: tail unknown
        # 50 lines * 64 bytes over 3200 logical bytes; streamed bytes are
        # already inside the flushed lines.
        self.assertEqual(m["write_amp"], 1.0)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["dram_mb"], 4.0)

    def test_per_layer_bases(self):
        spans = [span("open", 4_000)] * 30 + [span("get", 1_500)] * 30
        before = {"tfs.batch.applied": 10, "txlog.commit.count": 100,
                  "span:tfs.apply_batch:self_ns": 1_000_000}
        after = {"tfs.batch.applied": 14, "txlog.commit.count": 140,
                 "span:tfs.apply_batch:self_ns": 1_400_000,
                 "pxfs.name_cache.hit": 3, "pxfs.name_cache.miss": 1,
                 "clerk.grant.local": 9, "clerk.acquire.global": 1,
                 "libfs.batch.ops": 40, "libfs.batch.shipped": 4,
                 "libfs.direct.read_bytes": 500,
                 "rpc.tfs.apply_batch.calls": 4, "rpc.lock.renew.calls": 2,
                 "span:rpc.tfs.apply_batch:rpc_wait_ns": 8000,
                 "span:tfs.apply_batch:lock_wait_ns": 3000}
        w = self.window(spans, before, after, bytes_read=1000,
                        histograms={"lock.wait.latency_us": {
                            "count": 7, "sum": 70, "p50": 9, "p99": 20}})
        timed = self.window(spans * 2)
        m = metrics.per_layer(w, timed)
        self.assertEqual(m["txlog.commits_per_batch"], 10.0)
        self.assertEqual(m["tfs.apply_batch_self_us_per_batch"], 100.0)
        self.assertEqual(m["pxfs.name_cache_hit_ratio"], 0.75)
        self.assertEqual(m["clerk.local_grant_ratio"], 0.9)
        self.assertEqual(m["libfs.ops_per_batch"], 10.0)
        self.assertEqual(m["libfs.direct_read_ratio"], 0.5)
        self.assertEqual(m["rpc.calls_per_op"], 0.1)  # 6 calls / 60 ops
        self.assertEqual(m["rpc.wait_us"], 8.0)
        self.assertEqual(m["lock.renews"], 2)
        self.assertEqual(m["lock.waits"], 7)
        self.assertEqual(m["pxfs.open_calls"], 30)
        self.assertEqual(m["flatfs.get_calls"], 30)
        self.assertEqual(m["flatfs.put_calls"], 0)
        # Interface classes merge PXFS and FlatFS calls of one kind.
        self.assertEqual(m["iface.meta_p50_us"], 4.0)  # open
        self.assertEqual(m["iface.read_p50_us"], 1.5)  # get
        self.assertIsNone(m["iface.write_p50_us"])
        self.assertIsNone(m["scm.flushes_per_fsync"])  # no fsync: no base
        self.assertEqual(m["trace.overhead_pct"], 50.0)


class SpanFileTest(unittest.TestCase):
    def test_roundtrip(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            path = os.path.join(d, "w.spans")
            with open(path, "wb") as f:
                f.write(metrics.SPAN.pack(5, 1234, metrics.OPS.index("fsync"),
                                          2, 1))
                f.write(metrics.SPAN.pack(9, 77, metrics.OPS.index("get"),
                                          1, 0))
            self.assertEqual(metrics.load_spans(path),
                             [(5, 1234, "fsync", 2, True),
                              (9, 77, "get", 1, False)])


class BenchmarkSpecTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics the derivations produce."""

    def test_names_match(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        w = metrics.Window(raw_window({}, {}), [])
        e2e = metrics.end_to_end(w, 1.0, 0, 0)
        layer = metrics.per_layer(w, w)
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]),
                         sorted(e2e))
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]),
                         sorted(layer))
        self.assertEqual([x["name"] for x in spec["workloads"]],
                         ["varmail", "webserver", "webproxy_flat"])


if __name__ == "__main__":
    unittest.main()
