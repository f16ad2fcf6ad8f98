#include "src/obs/obs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/obs/trace.h"

namespace aerie {
namespace obs {

namespace detail {

int InitModeFromEnv() {
  // Racing first readers both parse the same environment; the exchange is
  // idempotent.
  const char* env = std::getenv("AERIE_OBS");
  const int mode = static_cast<int>(
      env != nullptr ? ParseMode(env) : Mode::kCounters);
  g_mode.store(mode, std::memory_order_relaxed);
  // First obs touch doubles as process attach: the telemetry plane (shm
  // publisher, SIGUSR1 sigdump, sampling profiler) starts here so every
  // Aerie process exports without bench-specific wiring (telemetry.cc).
  StartProcessTelemetryOnce();
  return mode;
}

}  // namespace detail

Mode ParseMode(std::string_view text) {
  if (text == "off" || text == "0" || text == "none") {
    return Mode::kOff;
  }
  if (text == "spans" || text == "2" || text == "all") {
    return Mode::kSpans;
  }
  return Mode::kCounters;
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kCounters:
      return "counters";
    case Mode::kSpans:
      return "spans";
  }
  return "?";
}

void SetMode(Mode mode) {
  detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace detail {
thread_local constinit std::atomic<SpanFrame*> g_tls_frame{nullptr};
}  // namespace detail

void AddWaitNsToCurrentSpan(WaitKind kind, uint64_t ns) {
  if (!SpansOn()) {
    return;
  }
  SpanStat* stat = detail::CurrentSpanStat();
  if (stat != nullptr) {
    stat->AddWaitNs(kind, ns);
  }
}

ScopedWait::ScopedWait(WaitKind kind, uint64_t* total_ns) {
  const bool span_live = SpansOn() && detail::CurrentSpanStat() != nullptr;
  const bool want_total = total_ns != nullptr && CountersOn();
  if (!span_live && !want_total) {
    return;
  }
  kind_ = kind;
  total_ns_ = want_total ? total_ns : nullptr;
  start_ns_ = NowNanos();
}

ScopedWait::~ScopedWait() {
  if (start_ns_ == 0) {
    return;
  }
  const uint64_t waited = NowNanos() - start_ns_;
  if (total_ns_ != nullptr) {
    *total_ns_ += waited;
  }
  // The innermost span is re-read here, not captured at construction: by
  // destruction time any child spans opened inside the waited region have
  // closed again, so the wait lands on the span that actually blocked.
  AddWaitNsToCurrentSpan(kind_, waited);
}

Histogram LatencyHistogram::Snapshot() const {
  Histogram out;
  for (const Shard& shard : shards_) {
    shard.lock.lock();
    out.Merge(shard.hist);
    shard.lock.unlock();
  }
  return out;
}

void LatencyHistogram::Reset() {
  for (Shard& shard : shards_) {
    shard.lock.lock();
    shard.hist.Clear();
    shard.lock.unlock();
  }
}

// ---------------------------------------------------------------------------
// Registry

namespace {

struct RegistryState {
  mutable std::mutex mu;
  // Interned metrics, owned. Key is the metric name.
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> interned;
  // Caller-owned instance metrics (may repeat names across instances).
  std::vector<Metric*> instances;

  // RPC method bookkeeping.
  std::unordered_map<uint32_t, std::string> rpc_names;
  std::unordered_map<uint32_t, std::unique_ptr<RpcMethodStats>> rpc_stats;
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();  // leaked: outlives users
  return *state;
}

template <typename MetricT>
MetricT& InternAs(std::string_view name, Metric::Kind kind) {
  RegistryState& state = State();
  std::lock_guard lock(state.mu);
  auto it = state.interned.find(name);
  if (it == state.interned.end()) {
    auto metric = std::make_unique<MetricT>(std::string(name));
    MetricT& ref = *metric;
    state.interned.emplace(std::string(name), std::move(metric));
    return ref;
  }
  // Kinds share one namespace; interning the same name as a different kind
  // is a naming bug. Return a fresh unregistered metric so the caller's
  // static reference is still usable.
  if (it->second->kind() != kind) {
    static MetricT* fallback = new MetricT("obs.name_kind_clash");
    return *fallback;
  }
  return static_cast<MetricT&>(*it->second);
}

}  // namespace

Registry& Registry::Instance() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  return InternAs<Counter>(name, Metric::Kind::kCounter);
}
Gauge& Registry::GetGauge(std::string_view name) {
  return InternAs<Gauge>(name, Metric::Kind::kGauge);
}
LatencyHistogram& Registry::GetHistogram(std::string_view name) {
  return InternAs<LatencyHistogram>(name, Metric::Kind::kHistogram);
}
SpanStat& Registry::GetSpan(std::string_view name) {
  return InternAs<SpanStat>(name, Metric::Kind::kSpan);
}

void Registry::Register(Metric* metric) {
  RegistryState& state = State();
  std::lock_guard lock(state.mu);
  state.instances.push_back(metric);
}

void Registry::Unregister(Metric* metric) {
  RegistryState& state = State();
  std::lock_guard lock(state.mu);
  auto it = std::find(state.instances.begin(), state.instances.end(), metric);
  if (it != state.instances.end()) {
    state.instances.erase(it);
  }
}

size_t Registry::MetricCountForTesting() const {
  RegistryState& state = State();
  std::lock_guard lock(state.mu);
  return state.interned.size() + state.instances.size();
}

namespace {

MetricSnapshot SnapshotOf(const Metric& metric) {
  MetricSnapshot snap;
  snap.name = metric.name();
  snap.kind = metric.kind();
  switch (metric.kind()) {
    case Metric::Kind::kCounter:
      snap.counter = static_cast<const Counter&>(metric).value();
      break;
    case Metric::Kind::kGauge:
      snap.gauge = static_cast<const Gauge&>(metric).value();
      break;
    case Metric::Kind::kHistogram:
      snap.hist = static_cast<const LatencyHistogram&>(metric).Snapshot();
      break;
    case Metric::Kind::kSpan: {
      const auto& span = static_cast<const SpanStat&>(metric);
      snap.hist = span.SelfSnapshot();
      snap.span_total_ns = span.total_ns();
      snap.span_self_ns = span.self_ns();
      snap.span_cpu_ns = span.cpu_ns();
      snap.span_lock_wait_ns = span.lock_wait_ns();
      snap.span_rpc_wait_ns = span.rpc_wait_ns();
      snap.span_other_wait_ns = span.other_wait_ns();
      break;
    }
  }
  return snap;
}

}  // namespace

std::vector<MetricSnapshot> MergeByName(std::vector<MetricSnapshot> rows) {
  // Index by name rather than merging into map values, so each row (an
  // 8 KiB histogram) is copied once, into the output.
  std::map<std::string, MetricSnapshot*> first;
  for (MetricSnapshot& row : rows) {
    auto [it, inserted] = first.try_emplace(row.name, &row);
    MetricSnapshot& dst = *it->second;
    if (inserted || dst.kind != row.kind) {
      continue;  // a new name, or a kind clash: the first row's kind wins
    }
    dst.counter += row.counter;
    dst.gauge += row.gauge;
    dst.hist.Merge(row.hist);
    dst.span_total_ns += row.span_total_ns;
    dst.span_self_ns += row.span_self_ns;
    dst.span_cpu_ns += row.span_cpu_ns;
    dst.span_lock_wait_ns += row.span_lock_wait_ns;
    dst.span_rpc_wait_ns += row.span_rpc_wait_ns;
    dst.span_other_wait_ns += row.span_other_wait_ns;
  }
  std::vector<MetricSnapshot> out;
  out.reserve(first.size());
  for (auto& [name, row] : first) {
    out.push_back(std::move(*row));
  }
  return out;
}

std::vector<MetricSnapshot> Registry::Collect() const {
  RegistryState& state = State();
  std::vector<MetricSnapshot> rows;
  {
    std::lock_guard lock(state.mu);
    rows.reserve(state.interned.size() + state.instances.size());
    for (const auto& [name, metric] : state.interned) {
      rows.push_back(SnapshotOf(*metric));
    }
    for (const Metric* metric : state.instances) {
      rows.push_back(SnapshotOf(*metric));
    }
  }
  return MergeByName(std::move(rows));
}

void Registry::ResetAll() {
  RegistryState& state = State();
  std::lock_guard lock(state.mu);
  for (const auto& [name, metric] : state.interned) {
    metric->Reset();
  }
  for (Metric* metric : state.instances) {
    metric->Reset();
  }
}

void ResetAll() {
  Registry::Instance().ResetAll();
  ResetFlightRecorder();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RPC method stats

void SetRpcMethodName(uint32_t method, std::string_view name) {
  RegistryState& state = State();
  std::lock_guard lock(state.mu);
  state.rpc_names[method] = std::string(name);
}

RpcMethodStats& RpcMethodStatsFor(uint32_t method) {
  Registry& registry = Registry::Instance();
  RegistryState& state = State();
  std::string base;
  {
    std::lock_guard lock(state.mu);
    auto it = state.rpc_stats.find(method);
    if (it != state.rpc_stats.end()) {
      return *it->second;
    }
    auto nit = state.rpc_names.find(method);
    if (nit != state.rpc_names.end()) {
      base = "rpc." + nit->second;
    } else {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "rpc.m%04x", method);
      base = buf;
    }
  }
  // Intern outside the registry lock (GetCounter takes it again), then
  // publish; a racing creator wins or loses idempotently.
  auto stats = std::make_unique<RpcMethodStats>(RpcMethodStats{
      registry.GetCounter(base + ".calls"),
      registry.GetCounter(base + ".bytes_out"),
      registry.GetCounter(base + ".bytes_in"),
      registry.GetSpan(base),
  });
  std::lock_guard lock(state.mu);
  auto [it, inserted] = state.rpc_stats.emplace(method, std::move(stats));
  return *it->second;
}

// ---------------------------------------------------------------------------
// Write-amplification accounting

namespace {

constexpr std::string_view kScmLayerPrefix = "scm.layer.";
constexpr std::string_view kLogicalSuffix = ".api.logical_write_bytes";

bool SplitScmLayerCounter(std::string_view name, std::string_view* layer,
                          std::string_view* field) {
  if (name.substr(0, kScmLayerPrefix.size()) != kScmLayerPrefix) {
    return false;
  }
  const std::string_view rest = name.substr(kScmLayerPrefix.size());
  const size_t dot = rest.rfind('.');
  if (dot == std::string_view::npos || dot == 0) {
    return false;
  }
  *layer = rest.substr(0, dot);
  *field = rest.substr(dot + 1);
  return true;
}

}  // namespace

WriteAmpReport ComputeWriteAmp(
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  WriteAmpReport report;
  std::map<std::string, WriteAmpRow, std::less<>> layers;
  for (const auto& [name, value] : counters) {
    std::string_view layer;
    std::string_view field;
    if (SplitScmLayerCounter(name, &layer, &field)) {
      auto it = layers.find(layer);
      if (it == layers.end()) {
        it = layers.emplace(std::string(layer), WriteAmpRow{}).first;
        it->second.layer = std::string(layer);
      }
      WriteAmpRow& row = it->second;
      if (field == "lines_flushed") {
        row.physical_bytes += value * kWriteAmpLineBytes;
      } else if (field == "bytes_streamed") {
        row.streamed_bytes += value;
      } else if (field == "fences") {
        row.fences += value;
      }
    } else if (name.size() > kLogicalSuffix.size() &&
               std::string_view(name).substr(name.size() -
                                             kLogicalSuffix.size()) ==
                   kLogicalSuffix) {
      report.logical_bytes += value;
    }
  }
  for (auto& [name, row] : layers) {
    report.physical_bytes += row.physical_bytes;
    if (report.logical_bytes != 0) {
      row.amplification = static_cast<double>(row.physical_bytes) /
                          static_cast<double>(report.logical_bytes);
    }
    report.layers.push_back(std::move(row));
  }
  if (report.logical_bytes != 0) {
    report.amplification = static_cast<double>(report.physical_bytes) /
                           static_cast<double>(report.logical_bytes);
  }
  return report;
}

WriteAmpReport LocalWriteAmp() {
  std::vector<std::pair<std::string, uint64_t>> counters;
  for (const MetricSnapshot& snap : Registry::Instance().Collect()) {
    if (snap.kind == Metric::Kind::kCounter) {
      counters.emplace_back(snap.name, snap.counter);
    }
  }
  return ComputeWriteAmp(counters);
}

// ---------------------------------------------------------------------------
// Exporters

double LayerRow::WaitPct() const {
  const uint64_t wait_ns = lock_wait_ns + rpc_wait_ns + other_wait_ns;
  if (self_ns == 0) {
    return wait_ns != 0 ? 100.0 : 0.0;
  }
  return std::min(100.0, 100.0 * static_cast<double>(wait_ns) /
                             static_cast<double>(self_ns));
}

std::vector<LayerRow> LayerRows(const std::vector<MetricSnapshot>& snaps) {
  std::map<std::string, LayerRow> layers;
  for (const MetricSnapshot& snap : snaps) {
    if (snap.kind != Metric::Kind::kSpan || snap.hist.count() == 0) {
      continue;
    }
    const size_t dot = snap.name.find('.');
    const std::string layer =
        dot == std::string::npos ? snap.name : snap.name.substr(0, dot);
    LayerRow& row = layers[layer];
    row.layer = layer;
    row.spans += snap.hist.count();
    row.self_ns += snap.span_self_ns;
    row.total_ns += snap.span_total_ns;
    row.cpu_ns += snap.span_cpu_ns;
    row.lock_wait_ns += snap.span_lock_wait_ns;
    row.rpc_wait_ns += snap.span_rpc_wait_ns;
    row.other_wait_ns += snap.span_other_wait_ns;
    row.self.Merge(snap.hist);
  }
  std::vector<LayerRow> out;
  out.reserve(layers.size());
  for (auto& [name, row] : layers) {
    out.push_back(std::move(row));
  }
  return out;
}

std::string DumpText() {
  const auto snaps = Registry::Instance().Collect();
  std::string out = "== aerie obs (mode=";
  out += ModeName(CurrentMode());
  out += ") ==\n";
  char buf[256];
  for (const MetricSnapshot& snap : snaps) {
    switch (snap.kind) {
      case Metric::Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "counter %-40s %llu\n",
                      snap.name.c_str(),
                      static_cast<unsigned long long>(snap.counter));
        break;
      case Metric::Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "gauge   %-40s %lld\n",
                      snap.name.c_str(), static_cast<long long>(snap.gauge));
        break;
      case Metric::Kind::kHistogram:
        std::snprintf(buf, sizeof(buf), "hist    %-40s %s\n",
                      snap.name.c_str(), snap.hist.SummaryString().c_str());
        break;
      case Metric::Kind::kSpan:
        std::snprintf(
            buf, sizeof(buf),
            "span    %-40s self{%s} total=%.2fms\n", snap.name.c_str(),
            snap.hist.SummaryString().c_str(),
            static_cast<double>(snap.span_total_ns) / 1e6);
        break;
    }
    out += buf;
  }
  return out;
}

std::string DumpJson() {
  const auto snaps = Registry::Instance().Collect();
  // schema_version pins the dump layout for downstream parsers (the bench
  // harness and EXPERIMENTS tooling); bump it when sections change shape.
  std::string out = "{\"schema_version\":2,\"mode\":\"";
  out += ModeName(CurrentMode());
  out += "\"";
  char buf[384];

  const Metric::Kind kinds[] = {Metric::Kind::kCounter, Metric::Kind::kGauge,
                                Metric::Kind::kHistogram,
                                Metric::Kind::kSpan};
  const char* sections[] = {"counters", "gauges", "histograms", "spans"};
  for (int k = 0; k < 4; ++k) {
    out += ",\"";
    out += sections[k];
    out += "\":{";
    bool first = true;
    for (const MetricSnapshot& snap : snaps) {
      if (snap.kind != kinds[k]) {
        continue;
      }
      if (!first) {
        out += ",";
      }
      first = false;
      out += "\"" + JsonEscape(snap.name) + "\":";
      switch (snap.kind) {
        case Metric::Kind::kCounter:
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(snap.counter));
          out += buf;
          break;
        case Metric::Kind::kGauge:
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(snap.gauge));
          out += buf;
          break;
        case Metric::Kind::kHistogram:
          out += snap.hist.ToJson();
          break;
        case Metric::Kind::kSpan:
          std::snprintf(
              buf, sizeof(buf),
              "{\"total_ns\":%llu,\"self_ns\":%llu,\"cpu_ns\":%llu,"
              "\"lock_wait_ns\":%llu,\"rpc_wait_ns\":%llu,"
              "\"other_wait_ns\":%llu,\"self\":",
              static_cast<unsigned long long>(snap.span_total_ns),
              static_cast<unsigned long long>(snap.span_self_ns),
              static_cast<unsigned long long>(snap.span_cpu_ns),
              static_cast<unsigned long long>(snap.span_lock_wait_ns),
              static_cast<unsigned long long>(snap.span_rpc_wait_ns),
              static_cast<unsigned long long>(snap.span_other_wait_ns));
          out += buf;
          out += snap.hist.ToJson();
          out += "}";
          break;
      }
    }
    out += "}";
  }

  out += ",\"layers\":{";
  bool first = true;
  for (const LayerRow& row : LayerRows(snaps)) {
    if (!first) {
      out += ",";
    }
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"spans\":%llu,\"self_ns\":%llu,"
                  "\"total_ns\":%llu,\"cpu_ns\":%llu,"
                  "\"lock_wait_ns\":%llu,\"rpc_wait_ns\":%llu,"
                  "\"other_wait_ns\":%llu}",
                  JsonEscape(row.layer).c_str(),
                  static_cast<unsigned long long>(row.spans),
                  static_cast<unsigned long long>(row.self_ns),
                  static_cast<unsigned long long>(row.total_ns),
                  static_cast<unsigned long long>(row.cpu_ns),
                  static_cast<unsigned long long>(row.lock_wait_ns),
                  static_cast<unsigned long long>(row.rpc_wait_ns),
                  static_cast<unsigned long long>(row.other_wait_ns));
    out += buf;
  }
  out += "}";

  // Per-layer SCM media traffic vs logical API bytes (DESIGN.md §9.3).
  const WriteAmpReport amp = LocalWriteAmp();
  std::snprintf(buf, sizeof(buf),
                ",\"write_amp\":{\"logical_bytes\":%llu,"
                "\"physical_bytes\":%llu,\"amplification\":%.3f,"
                "\"layers\":{",
                static_cast<unsigned long long>(amp.logical_bytes),
                static_cast<unsigned long long>(amp.physical_bytes),
                amp.amplification);
  out += buf;
  first = true;
  for (const WriteAmpRow& row : amp.layers) {
    if (!first) {
      out += ",";
    }
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"physical_bytes\":%llu,\"streamed_bytes\":%llu,"
                  "\"fences\":%llu,\"amplification\":%.3f}",
                  JsonEscape(row.layer).c_str(),
                  static_cast<unsigned long long>(row.physical_bytes),
                  static_cast<unsigned long long>(row.streamed_bytes),
                  static_cast<unsigned long long>(row.fences),
                  row.amplification);
    out += buf;
  }
  out += "}}}";
  return out;
}

std::string LayerBreakdownText() {
  const auto snaps = Registry::Instance().Collect();
  const auto rows = LayerRows(snaps);
  std::string out;
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%-12s %12s %14s %14s %10s %10s %10s %10s %6s\n", "layer",
                "spans", "self(ms)", "incl(ms)", "self/span(us)", "cpu(ms)",
                "lockw(ms)", "rpcw(ms)", "wait%");
  out += buf;
  uint64_t total_self = 0;
  for (const LayerRow& row : rows) {
    total_self += row.self_ns;
  }
  for (const LayerRow& row : rows) {
    std::snprintf(
        buf, sizeof(buf),
        "%-12s %12llu %14.2f %14.2f %10.2f %10.2f %10.2f %10.2f %5.1f%%\n",
        row.layer.c_str(), static_cast<unsigned long long>(row.spans),
        static_cast<double>(row.self_ns) / 1e6,
        static_cast<double>(row.total_ns) / 1e6,
        row.spans > 0
            ? static_cast<double>(row.self_ns) / 1e3 /
                  static_cast<double>(row.spans)
            : 0.0,
        static_cast<double>(row.cpu_ns) / 1e6,
        static_cast<double>(row.lock_wait_ns) / 1e6,
        static_cast<double>(row.rpc_wait_ns) / 1e6, row.WaitPct());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%-12s %12s %14.2f\n", "(sum)", "",
                static_cast<double>(total_self) / 1e6);
  out += buf;

  // Revocation traffic: service-side issue count and issue-to-grant latency
  // paired with the client-side handled count, so lock churn shows up next
  // to the layer times it explains.
  uint64_t issued = 0;
  uint64_t handled = 0;
  const Histogram* latency = nullptr;
  for (const MetricSnapshot& snap : snaps) {
    if (snap.name == "lock.revoke.issued") {
      issued = snap.counter;
    } else if (snap.name == "clerk.revoke.handled") {
      handled = snap.counter;
    } else if (snap.name == "lock.revoke.latency_us" &&
               snap.kind == Metric::Kind::kHistogram) {
      latency = &snap.hist;
    }
  }
  if (issued != 0 || handled != 0) {
    std::snprintf(buf, sizeof(buf), "revocations  issued=%llu handled=%llu",
                  static_cast<unsigned long long>(issued),
                  static_cast<unsigned long long>(handled));
    out += buf;
    if (latency != nullptr && latency->count() > 0) {
      std::snprintf(buf, sizeof(buf),
                    " wait_us{p50=%llu p95=%llu max=%llu}",
                    static_cast<unsigned long long>(latency->Percentile(50)),
                    static_cast<unsigned long long>(latency->Percentile(95)),
                    static_cast<unsigned long long>(latency->max()));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace obs
}  // namespace aerie
