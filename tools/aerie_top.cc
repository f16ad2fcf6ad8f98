// aerie_top: live cross-process telemetry viewer.
//
// Discovers the per-process shared-memory telemetry segments
// (`aerie.obs.<pid>`, see src/obs/telemetry.h) under /dev/shm (or
// --dir/$AERIE_OBS_SHM_DIR), merges same-named metrics across processes,
// and renders a refreshing table: per-layer and per-RPC-method rates and
// tail latencies (p50/p95/p99) over the refresh interval, and the per-layer
// SCM write-amplification breakdown. `--json` takes two samples and emits
// one machine-readable document instead (validated by `tools/validate.py
// telemetry` in CI).
//
// Rates and tails come from obs::IntervalTelemetry, the difference between
// consecutive samples; a process that reset its registry mid-interval
// (bench epochs call obs::ResetAll) counts whole rather than negative.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/obs.h"
#include "src/obs/telemetry.h"

namespace aerie {
namespace {

using obs::JsonEscape;
using obs::MetricSnapshot;
using obs::TelemetrySnapshot;

struct Options {
  std::string dir = obs::TelemetryDir();
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;  // 0: run until killed
  bool json = false;
  bool gc = true;
  bool clear = true;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dir D] [--interval MS] [--iterations N] [--json]\n"
      "          [--no-gc] [--no-clear]\n"
      "  --dir D         segment directory (default $AERIE_OBS_SHM_DIR or "
      "/dev/shm)\n"
      "  --interval MS   refresh / sampling interval (default 1000)\n"
      "  --iterations N  refresh N times then exit (default: forever)\n"
      "  --json          one-shot: two samples, one JSON document on stdout\n"
      "  --no-gc         do not unlink segments of dead processes\n"
      "  --no-clear      do not clear the screen between refreshes\n",
      argv0);
}

std::string PrettyCount(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

std::string PrettyNanos(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", ns);
  }
  return buf;
}

std::string PrettyBytes(uint64_t b) {
  char buf[32];
  const double v = static_cast<double>(b);
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", v / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMiB", v / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", v / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", b);
  }
  return buf;
}

// One sample plus what changed since the previous one.
struct Sample {
  uint64_t mono_ns = 0;
  std::vector<TelemetrySnapshot> processes;
  std::vector<MetricSnapshot> merged;    // cumulative, across processes
  std::vector<MetricSnapshot> interval;  // since the previous sample
  double interval_s = 0;
};

Sample TakeSample(const Options& opt, const Sample* prev) {
  Sample s;
  s.mono_ns = NowNanos();
  s.processes = obs::ReadTelemetryDir(opt.dir, opt.gc);
  s.merged = obs::MergeTelemetry(s.processes);
  if (prev != nullptr) {
    s.interval = obs::IntervalTelemetry(prev->processes, s.processes);
    s.interval_s = static_cast<double>(s.mono_ns - prev->mono_ns) / 1e9;
  }
  return s;
}

// The row named `name` in a name-sorted snapshot, or null.
const MetricSnapshot* Find(const std::vector<MetricSnapshot>& rows,
                           std::string_view name) {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const MetricSnapshot& row, std::string_view n) {
        return row.name < n;
      });
  return it != rows.end() && it->name == name ? &*it : nullptr;
}

uint64_t CounterOf(const std::vector<MetricSnapshot>& rows,
                   std::string_view name) {
  const MetricSnapshot* row = Find(rows, name);
  return row != nullptr ? row->counter : 0;
}

double PerSec(const Sample& s, uint64_t n) {
  return s.interval_s > 0 ? static_cast<double>(n) / s.interval_s : 0.0;
}

// A layer's cumulative row paired with its row over the interval (spans
// and self-time tails since the previous sample; empty when idle).
struct LayerView {
  obs::LayerRow total;
  obs::LayerRow interval;
};

std::vector<LayerView> Layers(const Sample& s) {
  const std::vector<obs::LayerRow> interval = obs::LayerRows(s.interval);
  std::vector<LayerView> out;
  for (obs::LayerRow& row : obs::LayerRows(s.merged)) {
    LayerView view;
    const auto it = std::find_if(
        interval.begin(), interval.end(),
        [&](const obs::LayerRow& r) { return r.layer == row.layer; });
    if (it != interval.end()) {
      view.interval = *it;
    }
    view.total = std::move(row);
    out.push_back(std::move(view));
  }
  return out;
}

// Lock-plane view: the live waiter gauge plus the contention latency
// histograms the lock layer publishes (values are recorded in
// MICROSECONDS; multiply by 1e3 before feeding the ns pretty-printer).
struct LockView {
  int64_t waiters = 0;
  bool any = false;
  Histogram wait_latency;    // lock.wait.latency_us (cumulative)
  Histogram revoke_latency;  // lock.revoke.latency_us (cumulative)
  Histogram revoke_queue;    // clerk.revoke.queue_us (cumulative)
};

LockView LockRows(const Sample& s) {
  LockView view;
  for (const MetricSnapshot& m : s.merged) {
    if (m.kind == obs::Metric::Kind::kGauge && m.name == "lock.waiters") {
      view.waiters = m.gauge;
      view.any = true;
    } else if (m.name == "lock.wait.latency_us") {
      view.wait_latency.Merge(m.hist);
      view.any = true;
    } else if (m.name == "lock.revoke.latency_us") {
      view.revoke_latency.Merge(m.hist);
      view.any = true;
    } else if (m.name == "clerk.revoke.queue_us") {
      view.revoke_queue.Merge(m.hist);
      view.any = true;
    }
  }
  return view;
}

// Total shm-export drops across live segments. Nonzero means the telemetry
// in view is INCOMPLETE (entry or bucket capacity exhausted) and capacities
// in src/obs/telemetry.h need raising — surfaced as a warning header and a
// machine-readable JSON field so dashboards can alarm on it.
struct DroppedTotals {
  uint64_t entries = 0;
  uint64_t hists = 0;
  bool warning() const { return entries != 0 || hists != 0; }
};

DroppedTotals SumDropped(const Sample& s) {
  DroppedTotals t;
  for (const TelemetrySnapshot& p : s.processes) {
    t.entries += p.dropped_entries;
    t.hists += p.dropped_hists;
  }
  return t;
}

// Per-RPC-method rows keyed by method name ("tfs.apply_batch"): the
// rpc.<method>.calls/bytes counters plus the rpc.<method> span's interval
// histogram.
struct RpcRow {
  uint64_t calls = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  Histogram interval;
};

std::map<std::string, RpcRow> RpcRows(const Sample& s) {
  std::map<std::string, RpcRow> rows;
  for (const MetricSnapshot& m : s.merged) {
    if (m.name.rfind("rpc.", 0) != 0) {
      continue;
    }
    const std::string rest = m.name.substr(4);
    if (m.kind == obs::Metric::Kind::kSpan) {
      if (const MetricSnapshot* i = Find(s.interval, m.name)) {
        rows[rest].interval = i->hist;
      }
      continue;
    }
    const size_t dot = rest.rfind('.');
    if (dot == std::string::npos) {
      continue;
    }
    const std::string method = rest.substr(0, dot);
    const std::string field = rest.substr(dot + 1);
    if (field == "calls") {
      rows[method].calls = m.counter;
    } else if (field == "bytes_out") {
      rows[method].bytes_out = m.counter;
    } else if (field == "bytes_in") {
      rows[method].bytes_in = m.counter;
    }
  }
  return rows;
}

std::vector<std::pair<std::string, uint64_t>> CounterPairs(const Sample& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const MetricSnapshot& m : s.merged) {
    if (m.kind == obs::Metric::Kind::kCounter) {
      out.emplace_back(m.name, m.counter);
    }
  }
  return out;
}

void RenderText(const Options& opt, const Sample& cur) {
  if (opt.clear && ::isatty(STDOUT_FILENO)) {
    std::fputs("\x1b[H\x1b[2J", stdout);
  }
  std::printf("aerie_top — %zu process(es) in %s, interval %.1fs\n",
              cur.processes.size(), opt.dir.c_str(), cur.interval_s);
  const DroppedTotals dropped = SumDropped(cur);
  if (dropped.warning()) {
    std::printf("WARNING: telemetry INCOMPLETE — %" PRIu64
                " dropped entr%s, %" PRIu64
                " dropped histogram%s (segment capacity exhausted; raise "
                "kTelemetryEntryCapacity/kTelemetryHistCapacity)\n",
                dropped.entries, dropped.entries == 1 ? "y" : "ies",
                dropped.hists, dropped.hists == 1 ? "" : "s");
  }
  std::printf("\n");

  std::printf("%7s  %-16s  %-8s  %9s  %8s  %7s  %7s\n", "PID", "PROCESS",
              "MODE", "PUBLISHES", "METRICS", "DROPPED", "DROPH");
  for (const TelemetrySnapshot& p : cur.processes) {
    std::printf("%7" PRIu64 "  %-16.16s  %-8s  %9" PRIu64 "  %8zu  %7" PRIu64
                "  %7" PRIu64 "\n",
                p.pid, p.process_name.c_str(), obs::ModeName(p.mode),
                p.publish_count, p.metrics.size(), p.dropped_entries,
                p.dropped_hists);
  }

  const auto layers = Layers(cur);
  if (!layers.empty()) {
    std::printf("\n%-12s  %10s  %10s  %10s  %8s  %6s  %8s  %8s  %8s\n",
                "LAYER", "SPANS", "SPANS/S", "SELF", "CPU", "WAIT%", "p50",
                "p95", "p99");
    for (const LayerView& view : layers) {
      const obs::LayerRow& row = view.total;
      const Histogram& tail = view.interval.self;
      std::printf("%-12.12s  %10s  %10s  %10s  %8s  %5.1f%%  %8s  %8s  %8s\n",
                  row.layer.c_str(),
                  PrettyCount(static_cast<double>(row.spans)).c_str(),
                  PrettyCount(PerSec(cur, view.interval.spans)).c_str(),
                  PrettyNanos(row.self_ns).c_str(),
                  PrettyNanos(row.cpu_ns).c_str(), row.WaitPct(),
                  PrettyNanos(tail.Percentile(50)).c_str(),
                  PrettyNanos(tail.Percentile(95)).c_str(),
                  PrettyNanos(tail.Percentile(99)).c_str());
    }
  }

  const LockView locks = LockRows(cur);
  if (locks.any) {
    std::printf("\nlocks: %" PRId64 " waiter(s) now\n", locks.waiters);
    std::printf("%-24s  %10s  %8s  %8s  %8s\n", "LOCK HISTOGRAM", "COUNT",
                "p50", "p95", "p99");
    const struct {
      const char* name;
      const Histogram* hist;
    } lock_hists[] = {
        {"lock.wait.latency_us", &locks.wait_latency},
        {"lock.revoke.latency_us", &locks.revoke_latency},
        {"clerk.revoke.queue_us", &locks.revoke_queue},
    };
    for (const auto& h : lock_hists) {
      // Recorded values are microseconds; scale to ns for the pretty units.
      std::printf("%-24s  %10s  %8s  %8s  %8s\n", h.name,
                  PrettyCount(static_cast<double>(h.hist->count())).c_str(),
                  PrettyNanos(h.hist->Percentile(50) * 1000).c_str(),
                  PrettyNanos(h.hist->Percentile(95) * 1000).c_str(),
                  PrettyNanos(h.hist->Percentile(99) * 1000).c_str());
    }
  }

  const auto rpcs = RpcRows(cur);
  if (!rpcs.empty()) {
    std::printf("\n%-24s  %10s  %10s  %10s  %8s  %8s  %8s\n", "RPC METHOD",
                "CALLS", "CALLS/S", "OUT", "p50", "p95", "p99");
    for (const auto& [method, row] : rpcs) {
      const double rate =
          PerSec(cur, CounterOf(cur.interval, "rpc." + method + ".calls"));
      std::printf("%-24.24s  %10s  %10s  %10s  %8s  %8s  %8s\n",
                  method.c_str(),
                  PrettyCount(static_cast<double>(row.calls)).c_str(),
                  PrettyCount(rate).c_str(),
                  PrettyBytes(row.bytes_out).c_str(),
                  PrettyNanos(row.interval.Percentile(50)).c_str(),
                  PrettyNanos(row.interval.Percentile(95)).c_str(),
                  PrettyNanos(row.interval.Percentile(99)).c_str());
    }
  }

  // FlatFS's direct value cache (DESIGN.md §10): bytes served straight from
  // mapped SCM under the clerk's direct-access epoch, plus how often a
  // stale epoch or in-flight revoke pushed a get back onto the locked path.
  {
    auto counter = [&cur](const char* name) {
      return CounterOf(cur.merged, name);
    };
    auto rate = [&cur](const char* name) {
      return static_cast<uint64_t>(PerSec(cur, CounterOf(cur.interval, name)));
    };
    const uint64_t read_bytes = counter("libfs.direct.read_bytes");
    const uint64_t grants = counter("clerk.direct.grant");
    if (read_bytes != 0 || grants != 0) {
      std::printf(
          "\ndirect path: read %s (%s/s), grants %s, fallbacks %s "
          "(clerk %s)\n",
          PrettyBytes(read_bytes).c_str(),
          PrettyBytes(rate("libfs.direct.read_bytes")).c_str(),
          PrettyCount(static_cast<double>(grants)).c_str(),
          PrettyCount(static_cast<double>(counter("libfs.direct.fallback")))
              .c_str(),
          PrettyCount(static_cast<double>(counter("clerk.direct.fallback")))
              .c_str());
    }
  }

  const obs::WriteAmpReport amp = obs::ComputeWriteAmp(CounterPairs(cur));
  if (amp.physical_bytes != 0 || amp.logical_bytes != 0) {
    std::printf("\nwrite amplification: logical %s, physical %s",
                PrettyBytes(amp.logical_bytes).c_str(),
                PrettyBytes(amp.physical_bytes).c_str());
    if (amp.logical_bytes != 0) {
      std::printf(", amp %.2fx", amp.amplification);
    }
    std::printf("\n%-14s  %12s  %12s  %10s  %8s\n", "SCM LAYER", "PHYSICAL",
                "STREAMED", "FENCES", "AMP");
    for (const obs::WriteAmpRow& row : amp.layers) {
      std::printf("%-14.14s  %12s  %12s  %10s  ", row.layer.c_str(),
                  PrettyBytes(row.physical_bytes).c_str(),
                  PrettyBytes(row.streamed_bytes).c_str(),
                  PrettyCount(static_cast<double>(row.fences)).c_str());
      if (amp.logical_bytes != 0) {
        std::printf("%7.2fx\n", row.amplification);
      } else {
        std::printf("%8s\n", "-");
      }
    }
  }
  std::fflush(stdout);
}

std::string RenderJson(const Options& opt, const Sample& cur) {
  char buf[320];
  // schema_version 3: the per-layer and per-method "interval" histograms
  // are the difference of the two samples (tools/telemetry_schema.json).
  std::string out = "{\n  \"schema_version\": 3,\n";
  std::snprintf(buf, sizeof(buf), "  \"interval_ms\": %.0f,\n",
                cur.interval_s * 1e3);
  out += buf;
  out += "  \"dir\": \"" + JsonEscape(opt.dir) + "\",\n";
  const DroppedTotals dropped = SumDropped(cur);
  std::snprintf(buf, sizeof(buf),
                "  \"dropped\": {\"entries\": %" PRIu64 ", \"hists\": %" PRIu64
                ", \"warning\": %s},\n",
                dropped.entries, dropped.hists,
                dropped.warning() ? "true" : "false");
  out += buf;

  out += "  \"processes\": [";
  bool first = true;
  for (const TelemetrySnapshot& p : cur.processes) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "    {\"pid\": %" PRIu64 ", \"name\": \"%s\", \"mode\": "
                  "\"%s\", \"publish_count\": %" PRIu64
                  ", \"metrics\": %zu, \"dropped_entries\": %" PRIu64
                  ", \"dropped_hists\": %" PRIu64 "}",
                  p.pid, JsonEscape(p.process_name).c_str(),
                  obs::ModeName(p.mode),
                  p.publish_count, p.metrics.size(), p.dropped_entries,
                  p.dropped_hists);
    out += buf;
  }
  out += "\n  ],\n";

  out += "  \"layers\": {";
  first = true;
  for (const LayerView& view : Layers(cur)) {
    const obs::LayerRow& row = view.total;
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"spans\": %" PRIu64 ", \"spans_per_sec\": "
                  "%.1f, \"self_ns\": %" PRIu64 ", \"total_ns\": %" PRIu64
                  ", \"cpu_ns\": %" PRIu64 ", \"lock_wait_ns\": %" PRIu64
                  ", \"rpc_wait_ns\": %" PRIu64 ", \"other_wait_ns\": %" PRIu64
                  ", \"wait_pct\": %.1f, \"interval\": ",
                  JsonEscape(row.layer).c_str(), row.spans,
                  PerSec(cur, view.interval.spans), row.self_ns, row.total_ns,
                  row.cpu_ns, row.lock_wait_ns, row.rpc_wait_ns,
                  row.other_wait_ns, row.WaitPct());
    out += buf;
    out += view.interval.self.ToJson();
    out += "}";
  }
  out += "\n  },\n";

  out += "  \"rpc\": {";
  first = true;
  for (const auto& [method, row] : RpcRows(cur)) {
    out += first ? "\n" : ",\n";
    first = false;
    const double rate =
        PerSec(cur, CounterOf(cur.interval, "rpc." + method + ".calls"));
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"calls\": %" PRIu64 ", \"calls_per_sec\": "
                  "%.1f, \"bytes_out\": %" PRIu64 ", \"bytes_in\": %" PRIu64
                  ", \"interval\": ",
                  JsonEscape(method).c_str(), row.calls, rate, row.bytes_out,
                  row.bytes_in);
    out += buf;
    out += row.interval.ToJson();
    out += "}";
  }
  out += "\n  },\n";

  const LockView locks = LockRows(cur);
  std::snprintf(buf, sizeof(buf),
                "  \"locks\": {\"waiters\": %" PRId64
                ", \"wait_latency_us\": ",
                locks.waiters);
  out += buf;
  out += locks.wait_latency.ToJson();
  out += ", \"revoke_latency_us\": ";
  out += locks.revoke_latency.ToJson();
  out += ", \"revoke_queue_us\": ";
  out += locks.revoke_queue.ToJson();
  out += "},\n";

  const obs::WriteAmpReport amp = obs::ComputeWriteAmp(CounterPairs(cur));
  std::snprintf(buf, sizeof(buf),
                "  \"write_amp\": {\"logical_bytes\": %" PRIu64
                ", \"physical_bytes\": %" PRIu64
                ", \"amplification\": %.3f, \"layers\": {",
                amp.logical_bytes, amp.physical_bytes, amp.amplification);
  out += buf;
  first = true;
  for (const obs::WriteAmpRow& row : amp.layers) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"physical_bytes\": %" PRIu64
                  ", \"streamed_bytes\": %" PRIu64 ", \"fences\": %" PRIu64
                  ", \"amplification\": %.3f}",
                  JsonEscape(row.layer).c_str(), row.physical_bytes,
                  row.streamed_bytes, row.fences, row.amplification);
    out += buf;
  }
  out += first ? "}}\n" : "\n  }}\n";
  out += "}\n";
  return out;
}

int Run(const Options& opt) {
  Sample prev = TakeSample(opt, nullptr);
  uint64_t done = 0;
  while (opt.iterations == 0 || done < opt.iterations) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    Sample cur = TakeSample(opt, &prev);
    if (opt.json) {
      std::fputs(RenderJson(opt, cur).c_str(), stdout);
      return 0;
    }
    RenderText(opt, cur);
    prev = std::move(cur);
    ++done;
  }
  return 0;
}

}  // namespace
}  // namespace aerie

int main(int argc, char** argv) {
  aerie::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        aerie::Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--interval") {
      opt.interval_ms = std::strtoull(next(), nullptr, 10);
      opt.interval_ms = std::max<uint64_t>(opt.interval_ms, 10);
    } else if (arg == "--iterations") {
      opt.iterations = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--json") {
      opt.json = true;
      if (opt.interval_ms == 1000) {
        opt.interval_ms = 500;  // one-shot default: quicker rate sample
      }
    } else if (arg == "--no-gc") {
      opt.gc = false;
    } else if (arg == "--no-clear") {
      opt.clear = false;
    } else if (arg == "--help" || arg == "-h") {
      aerie::Usage(argv[0]);
      return 0;
    } else {
      aerie::Usage(argv[0]);
      return 2;
    }
  }
  return aerie::Run(opt);
}
