"""Metric derivations for the Aerie end-to-end benchmark.

Pure functions over the raw record aerie_perfbench writes (result.json plus
the per-window span files), so each derivation can be tested on fixed
inputs (tests/test_metrics.py).
"""

import math
import statistics
import struct

# harness.h Span: start_ns u64, dur_ns u32, op u8, client u8, ok u8, pad u8.
SPAN = struct.Struct("<QIBBBx")
OPS = ["open", "read", "write", "close", "unlink", "stat", "fsync", "rename",
       "put", "get", "erase", "sync"]
# The durability calls: PXFS Fsync and FlatFS Sync.
DURABILITY_OPS = ["fsync", "sync"]
PXFS_OPS = ["open", "read", "write", "close", "unlink", "stat", "fsync"]
FLATFS_OPS = ["put", "get", "erase", "sync"]
# Call classes of the file-system interface a workload uses (PXFS or
# FlatFS): each class occurs in every workload, so its latency is measured
# everywhere rather than reading 0 where an interface or op is unused.
IFACE_CLASSES = {
    "read": ["read", "get"],
    "write": ["write", "put"],
    "sync": ["fsync", "sync"],
    "meta": ["open", "close", "unlink", "stat", "rename", "erase"],
}
SCM_LAYERS = ["txlog", "osd", "tfs", "pxfs", "flatfs"]
LINE_BYTES = 64

# A percentile is reported only when at least this many samples lie beyond
# it; otherwise the tail is a handful of samples and says nothing.
MIN_BEYOND = 10


def load_spans(path):
    """Returns a list of (start_ns, dur_ns, op_name, client, ok)."""
    with open(path, "rb") as f:
        data = f.read()
    return [(s, d, OPS[op], c, bool(ok))
            for s, d, op, c, ok in SPAN.iter_unpack(data)]


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile, or None if fewer than MIN_BEYOND
    samples lie strictly beyond it."""
    n = len(sorted_values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted_values[rank - 1]


def ratio(num, den):
    """num / den, or None when the base is zero."""
    return None if den == 0 else num / den


def deltas(before, after):
    """Per-name after - before; names absent before count from zero."""
    return {k: v - before.get(k, 0) for k, v in after.items()}


class Window:
    """One measured window: its calls and its registry deltas."""

    def __init__(self, raw, spans):
        self.seconds = raw["seconds"]
        self.bytes_read = raw["bytes_read"]
        self.sample_bytes = raw["sample_bytes"]
        self.d = deltas(raw["before"], raw["after"])
        self.hists = raw["histograms"]
        self.attempted = len(spans)
        self.failed = sum(1 for s in spans if not s[4])
        self.ok_lat = {op: [] for op in OPS}
        for _, dur, op, _, ok in spans:
            if ok:
                self.ok_lat[op].append(dur)
        for v in self.ok_lat.values():
            v.sort()
        self.succeeded = self.attempted - self.failed

    def c(self, name):
        return self.d.get(name, 0)

    def span(self, name, field):
        return self.d.get("span:%s:%s" % (name, field), 0)

    def span_sum(self, field):
        """`field` summed over every span."""
        tail = ":" + field
        return sum(v for k, v in self.d.items()
                   if k.startswith("span:") and k.endswith(tail))

    def lat_us(self, ops, p):
        if isinstance(ops, str):
            vals = self.ok_lat[ops]
        else:
            vals = sorted(x for op in ops for x in self.ok_lat[op])
        v = percentile(vals, p)
        return None if v is None else v / 1000.0

    def ops_per_s(self):
        return self.succeeded / self.seconds

    def logical_write_bytes(self):
        return (self.c("pxfs.api.logical_write_bytes") +
                self.c("flatfs.api.logical_write_bytes"))


def end_to_end(w, setup_s, peak_rss_bytes, region_bytes):
    """The user-visible metrics of window `w` (None: not measurable).
    dram_mb is the peak RSS less the emulated SCM region (prefaulted, so
    resident) and the harness's own span buffers."""
    return {
        "ops_per_s": w.ops_per_s(),
        "op_p50_us": w.lat_us(OPS, 50),
        "op_p99_us": w.lat_us(OPS, 99),
        "fsync_p50_us": w.lat_us(DURABILITY_OPS, 50),
        "fsync_p99_us": w.lat_us(DURABILITY_OPS, 99),
        "op_ok_ratio": ratio(w.succeeded, w.attempted),
        # scm.stream.bytes are already counted in scm.flush.lines when the
        # write-combining drain (BFlush) charges them, so physical bytes are
        # the flushed lines alone.
        "write_amp": ratio(w.c("scm.flush.lines") * LINE_BYTES,
                           w.logical_write_bytes()),
        "setup_s": setup_s,
        "dram_mb": (peak_rss_bytes - region_bytes - w.sample_bytes) / 2**20,
    }


def op_table(w):
    """Per-op (calls, p50_us, p99_us) of the successful calls in `w`."""
    return {op: (len(w.ok_lat[op]), w.lat_us(op, 50), w.lat_us(op, 99))
            for op in OPS if w.ok_lat[op]}


def per_layer(w, timed=None):
    """Single-layer metrics of window `w`; `timed` is an untraced window of
    the same process, for the tracing overhead."""
    m = {}
    for cls, ops in IFACE_CLASSES.items():
        m["iface.%s_p50_us" % cls] = w.lat_us(ops, 50)
    for op in PXFS_OPS:
        m["pxfs.%s_calls" % op] = len(w.ok_lat[op])
    m["pxfs.name_cache_hit_ratio"] = ratio(
        w.c("pxfs.name_cache.hit"),
        w.c("pxfs.name_cache.hit") + w.c("pxfs.name_cache.miss"))
    for op in FLATFS_OPS:
        m["flatfs.%s_calls" % op] = len(w.ok_lat[op])

    shipped = w.c("libfs.batch.shipped")
    applied = w.c("tfs.batch.applied")
    m["libfs.ops_per_batch"] = ratio(w.c("libfs.batch.ops"), shipped)
    m["libfs.batches_shipped"] = shipped
    m["libfs.ship_failed"] = w.c("libfs.batch.ship_failed")
    m["libfs.direct_read_ratio"] = ratio(w.c("libfs.direct.read_bytes"),
                                         w.bytes_read)
    m["libfs.direct_fallbacks"] = w.c("libfs.direct.fallback")
    m["libfs.pool_refills"] = w.c("libfs.pool.refill")
    m["libfs.ship_batch_self_us"] = _per_call_us(w, "libfs.ship_batch")

    m["clerk.local_grant_ratio"] = ratio(
        w.c("clerk.grant.local"),
        w.c("clerk.grant.local") + w.c("clerk.acquire.global"))
    m["lock.revokes"] = w.c("lock.revoke.issued")
    m["lock.renews"] = w.c("rpc.lock.renew.calls")
    m["lock.waits"] = w.hists.get("lock.wait.latency_us", {"count": 0})["count"]

    rpc_calls = sum(v for k, v in w.d.items()
                    if k.startswith("rpc.") and k.endswith(".calls"))
    m["rpc.calls_per_op"] = ratio(rpc_calls, w.succeeded)
    m["rpc.wait_us"] = w.span_sum("rpc_wait_ns") / 1000.0

    m["tfs.batches_applied"] = applied
    m["tfs.ops_applied"] = w.c("tfs.ops.applied")
    m["tfs.ops_rejected"] = w.c("tfs.ops.rejected")
    self_ns = w.span("tfs.apply_batch", "self_ns")
    m["tfs.apply_batch_self_us_per_batch"] = (
        None if applied == 0 else self_ns / applied / 1000.0)

    m["txlog.commits_per_batch"] = ratio(w.c("txlog.commit.count"), applied)
    m["txlog.commit_bytes_per_op"] = ratio(w.c("txlog.append.bytes"),
                                           w.c("tfs.ops.applied"))
    m["txlog.commit_self_us"] = _per_call_us(w, "txlog.commit")

    fsyncs = sum(len(w.ok_lat[op]) for op in DURABILITY_OPS)
    m["scm.flush_lines_per_op"] = ratio(w.c("scm.flush.lines"), w.succeeded)
    m["scm.fences_per_op"] = ratio(w.c("scm.fence.count"), w.succeeded)
    m["scm.flushes_per_fsync"] = ratio(w.c("scm.flush.lines"), fsyncs)
    m["scm.wl_flush_self_us"] = _per_call_us(w, "scm.wl_flush")
    logical = w.logical_write_bytes()
    for layer in SCM_LAYERS:
        lines = w.c("scm.layer.%s.lines_flushed" % layer)
        m["scm.%s.bytes_per_user_byte" % layer] = ratio(lines * LINE_BYTES,
                                                        logical)

    if timed is not None:
        m["trace.timed_ops_per_s"] = timed.ops_per_s()
        m["trace.traced_ops_per_s"] = w.ops_per_s()
        kept = ratio(w.ops_per_s(), timed.ops_per_s())
        m["trace.overhead_pct"] = None if kept is None else 100 * (1 - kept)
    return m


def _per_call_us(w, span):
    return ratio(w.span(span, "self_ns") / 1000.0, w.span(span, "count"))


def median_of(runs):
    """Per-metric median over runs, ignoring runs where it is None."""
    out = {}
    for k in runs[0]:
        vals = [r[k] for r in runs if r[k] is not None]
        out[k] = statistics.median(vals) if vals else None
    return out
