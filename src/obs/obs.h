// Unified observability layer: process-wide metrics registry + trace spans.
//
// The paper's headline argument (Fig. 1, Table 1, §7) attributes latency to
// layers — VFS entry vs. naming vs. locking vs. RPC vs. SCM flushes. This
// module is the measurement substrate for the same breakdown on the Aerie
// side: every runtime layer (pxfs/flatfs API, name cache, clerk, RPC
// transport, TFS, txlog, SCM primitives) reports into one registry, and the
// benches print one per-layer table from it.
//
// Primitives:
//   * Counter   — monotonically increasing u64 (relaxed atomic).
//   * Gauge     — signed instantaneous value (relaxed atomic).
//   * LatencyHistogram — aerie::Histogram sharded across threads; recording
//     takes a per-shard spinlock that is effectively uncontended (shards are
//     selected by a per-thread id), so the hot path stays allocation-free.
//   * SpanStat / ScopedSpan / AERIE_SPAN(layer, op) — scoped wall-time spans.
//     Spans nest through one thread-local chain of stack frames
//     (detail::SpanFrame): a child's wall time is subtracted from its
//     parent, so each layer's *self* time is exclusive and per-layer self
//     times sum to end-to-end wall time. The same frame carries the span's
//     trace ids (trace.h) and is what the sampling profiler (profiler.h)
//     and ScopedWait attribute to; there is no second per-thread copy.
//
// Metrics are either *interned* (Registry::GetCounter("layer.op.metric");
// live forever; the AERIE_SPAN macro interns once per call site via a
// function-local static) or *instance* metrics (owned by an object such as
// ScmStats, registered for the object's lifetime; the exporter aggregates
// same-named instances).
//
// Gating: the AERIE_OBS environment variable (off | counters | spans;
// default counters) selects the recording level. Every record path is
// guarded by a single relaxed load + branch, so `off` costs one predictable
// branch per call site. obs::SetMode() overrides the environment at runtime
// (benches enable span mode only for their breakdown pass).
//
// Naming convention: `layer.op.metric`, e.g. `scm.flush.lines`,
// `clerk.acquire.global`, `rpc.tfs.apply_batch.bytes_out`. Span names are
// `layer.op`; the exporter derives the layer table from the prefix before
// the first '.'.
#ifndef AERIE_SRC_OBS_OBS_H_
#define AERIE_SRC_OBS_OBS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace aerie {
namespace obs {

enum class Mode : int {
  kOff = 0,       // record nothing
  kCounters = 1,  // counters, gauges, histograms
  kSpans = 2,     // everything, including trace spans
};

namespace detail {
// -1 = "not yet initialized from AERIE_OBS"; constant-initialized so there
// is no static-init-order hazard. First reader parses the environment.
inline std::atomic<int> g_mode{-1};
int InitModeFromEnv();  // parses AERIE_OBS, stores and returns the mode
// Idempotent process-telemetry attach (shm publisher, SIGUSR1 sigdump and
// sampling profiler; defined in telemetry.cc, invoked from InitModeFromEnv).
void StartProcessTelemetryOnce();
}  // namespace detail

inline int ModeRaw() {
  const int m = detail::g_mode.load(std::memory_order_relaxed);
  if (m >= 0) [[likely]] {
    return m;
  }
  return detail::InitModeFromEnv();
}

inline Mode CurrentMode() { return static_cast<Mode>(ModeRaw()); }
void SetMode(Mode mode);
// Parses "off"/"counters"/"spans" (anything else -> kCounters).
Mode ParseMode(std::string_view text);
// "off", "counters" or "spans".
const char* ModeName(Mode mode);

// The single-branch gates every hot path uses.
inline bool CountersOn() {
  return ModeRaw() >= static_cast<int>(Mode::kCounters);
}
inline bool SpansOn() { return ModeRaw() >= static_cast<int>(Mode::kSpans); }

class Registry;

// Base for everything the registry can enumerate.
class Metric {
 public:
  enum class Kind { kCounter, kGauge, kHistogram, kSpan };

  virtual ~Metric() = default;
  Metric(const Metric&) = delete;
  Metric& operator=(const Metric&) = delete;

  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }
  virtual void Reset() = 0;

 protected:
  Metric(std::string name, Kind kind) : name_(std::move(name)), kind_(kind) {}

 private:
  std::string name_;
  Kind kind_;
};

class Counter final : public Metric {
 public:
  explicit Counter(std::string name)
      : Metric(std::move(name), Kind::kCounter) {}

  void Add(uint64_t n = 1) {
    if (CountersOn()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // std::atomic-compatible spelling; keeps migrated call sites (ScmStats,
  // VfsStats) reading the way they always did.
  uint64_t load() const { return value(); }
  void Reset() override { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge final : public Metric {
 public:
  explicit Gauge(std::string name) : Metric(std::move(name), Kind::kGauge) {}

  void Set(int64_t v) {
    if (CountersOn()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void Add(int64_t n) {
    if (CountersOn()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  void Sub(int64_t n) { Add(-n); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() override { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

namespace detail {

class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Small dense per-thread id used to pick a histogram shard.
inline uint32_t ThreadShardId() {
  static std::atomic<uint32_t> next{0};
  static thread_local uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

// aerie::Histogram sharded across threads. Recording locks one shard
// spinlock; threads map to shards by a dense thread id, so the lock is
// uncontended unless thread count far exceeds kShards. Tails over a recent
// interval come from differencing two snapshots (telemetry.h).
class LatencyHistogram final : public Metric {
 public:
  explicit LatencyHistogram(std::string name)
      : Metric(std::move(name), Kind::kHistogram) {}

  void Record(uint64_t value) {
    if (CountersOn()) {
      RecordAlways(value);
    }
  }

  // Merged lifetime view across shards.
  Histogram Snapshot() const;
  void Reset() override;

 private:
  friend class SpanStat;

  void RecordAlways(uint64_t value) {
    Shard& shard = shards_[detail::ThreadShardId() % kShards];
    shard.lock.lock();
    shard.hist.Record(value);
    shard.lock.unlock();
  }

  static constexpr uint32_t kShards = 8;
  struct alignas(64) Shard {
    mutable detail::SpinLock lock;
    Histogram hist;
  };
  mutable std::array<Shard, kShards> shards_;
};

// Off-CPU wait categories for span attribution (profiler plane, DESIGN.md
// §9.4). Instrumented wait sites charge their blocked wall time to the
// calling thread's innermost live span under one of these; sampled CPU time
// (src/obs/profiler.h) is the fourth bucket, so every span decomposes into
// cpu / lock_wait / rpc_wait / other_wait.
enum class WaitKind : int {
  kLock = 0,   // lock-service waiter queues, clerk local-grant waits
  kRpc = 1,    // RPC round trips (transport Call blocked on the server)
  kOther = 2,  // everything else (drain stalls, batch-ship backpressure)
};
inline constexpr int kWaitKinds = 3;

// Aggregate for one span call-site family (one `layer.op`): a histogram of
// *self* time plus exact running sums for attribution arithmetic.
class SpanStat final : public Metric {
 public:
  explicit SpanStat(std::string name)
      : Metric(std::move(name), Kind::kSpan), self_hist_(std::string()) {}

  void Record(uint64_t total_ns, uint64_t self_ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(total_ns, std::memory_order_relaxed);
    self_ns_.fetch_add(self_ns, std::memory_order_relaxed);
    self_hist_.RecordAlways(self_ns);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // Inclusive wall time (child spans included).
  uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  // Exclusive wall time (child spans subtracted).
  uint64_t self_ns() const { return self_ns_.load(std::memory_order_relaxed); }
  Histogram SelfSnapshot() const { return self_hist_.Snapshot(); }

  // CPU time attributed by the sampling profiler (period_ns per SIGPROF
  // sample landing while this span was innermost on some thread) and
  // off-CPU wait charged by instrumented wait sites. All relaxed; the
  // profiler collector is the only AddCpuNs caller, wait sites call
  // AddWaitNs from their own thread.
  void AddCpuNs(uint64_t ns) {
    cpu_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddWaitNs(WaitKind kind, uint64_t ns) {
    wait_ns_[static_cast<int>(kind)].fetch_add(ns, std::memory_order_relaxed);
  }
  uint64_t cpu_ns() const { return cpu_ns_.load(std::memory_order_relaxed); }
  uint64_t wait_ns(WaitKind kind) const {
    return wait_ns_[static_cast<int>(kind)].load(std::memory_order_relaxed);
  }
  uint64_t lock_wait_ns() const { return wait_ns(WaitKind::kLock); }
  uint64_t rpc_wait_ns() const { return wait_ns(WaitKind::kRpc); }
  uint64_t other_wait_ns() const { return wait_ns(WaitKind::kOther); }

  void Reset() override {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
    self_ns_.store(0, std::memory_order_relaxed);
    cpu_ns_.store(0, std::memory_order_relaxed);
    for (auto& w : wait_ns_) {
      w.store(0, std::memory_order_relaxed);
    }
    self_hist_.Reset();
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> self_ns_{0};
  std::atomic<uint64_t> cpu_ns_{0};
  std::array<std::atomic<uint64_t>, kWaitKinds> wait_ns_{};
  LatencyHistogram self_hist_;
};

namespace detail {

// One live frame of the thread's span chain: the only per-thread span
// state in obs. ScopedSpan pushes one per recorded span; ScopedTraceContext
// (trace.h) pushes one with no stat to adopt a remote trace context. The
// chain carries self-time (a child adds its wall time to its parent's
// child_ns; a stat-less frame's child_ns is never read), the trace context
// (CurrentTraceContext() reads the innermost frame), and the profiler's
// span attribution (the innermost frame's stat; none for a stat-less one).
struct SpanFrame {
  SpanStat* stat = nullptr;  // null: trace-context frame, counts as no span
  SpanFrame* parent = nullptr;
  uint64_t start_ns = 0;
  uint64_t child_ns = 0;  // wall time spent in nested spans
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

// The thread's innermost live frame. A frame is published (release) after
// its stat is set and unpublished before it dies, so the SIGPROF handler
// (src/obs/profiler.cc), which can interrupt this thread between any two
// instructions, only ever dereferences a live frame. Stats are interned
// SpanStat pointers, valid for the process lifetime.
extern thread_local constinit std::atomic<SpanFrame*> g_tls_frame;

inline SpanFrame* CurrentFrame() {
  return g_tls_frame.load(std::memory_order_relaxed);
}

// Stat of the innermost frame: null outside any span and directly under a
// ScopedTraceContext frame. Async-signal-safe.
inline SpanStat* CurrentSpanStat() {
  const SpanFrame* frame = g_tls_frame.load(std::memory_order_acquire);
  return frame != nullptr ? frame->stat : nullptr;
}

inline void PushFrame(SpanFrame* frame) {
  frame->parent = CurrentFrame();
  g_tls_frame.store(frame, std::memory_order_release);
}

inline void PopFrame(const SpanFrame& frame) {
  g_tls_frame.store(frame.parent, std::memory_order_release);
}

// Flight-recorder hooks for one ScopedSpan (obs/trace.cc, out of line so
// obs.h need not see the tracing internals). Begin sets the frame's trace
// ids from its parent frame, minting a trace at a root, and stamps a begin
// event; End stamps the completed span. Only called with spans on.
void TraceSpanBegin(SpanFrame* frame);
void TraceSpanEnd(const SpanFrame& frame, uint64_t end_ns);

}  // namespace detail

// RAII span. Inert (one branch) unless mode is `spans`. Safe to construct
// with a null stat (records nothing).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanStat* stat) {
    if (stat == nullptr || !SpansOn()) {
      return;
    }
    frame_.stat = stat;
    detail::PushFrame(&frame_);
    detail::TraceSpanBegin(&frame_);
    frame_.start_ns = NowNanos();
  }

  ~ScopedSpan() {
    if (frame_.stat == nullptr) {
      return;
    }
    const uint64_t end_ns = NowNanos();
    const uint64_t total = end_ns - frame_.start_ns;
    detail::PopFrame(frame_);
    if (frame_.parent != nullptr) {
      frame_.parent->child_ns += total;
    }
    frame_.stat->Record(total,
                        total >= frame_.child_ns ? total - frame_.child_ns : 0);
    detail::TraceSpanEnd(frame_, end_ns);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  detail::SpanFrame frame_;
};

// Charges `ns` of off-CPU wait of `kind` to the calling thread's innermost
// live span. No-op when spans are off or no span is live.
void AddWaitNsToCurrentSpan(WaitKind kind, uint64_t ns);

// RAII off-CPU wait measurement for an instrumented blocking site: charges
// the wall time between construction and destruction as `kind` wait to the
// calling thread's innermost live span. When `total_ns` is non-null the
// measured time is also accumulated there whenever counters are on, even
// without a live span — the lock service feeds lock.wait.latency_us from
// it in plain counters mode. Inert (one clock-free branch) otherwise.
class ScopedWait {
 public:
  explicit ScopedWait(WaitKind kind, uint64_t* total_ns = nullptr);
  ~ScopedWait();
  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  uint64_t start_ns_ = 0;  // 0 = inert
  uint64_t* total_ns_ = nullptr;
  WaitKind kind_ = WaitKind::kOther;
};

// One row of a metric snapshot: what Registry::Collect exports, what a
// telemetry segment carries, and what every text/JSON view reads.
struct MetricSnapshot {
  std::string name;
  Metric::Kind kind = Metric::Kind::kCounter;
  uint64_t counter = 0;    // kCounter
  int64_t gauge = 0;       // kGauge
  Histogram hist;          // kHistogram (values), kSpan (self time)
  uint64_t span_total_ns = 0;
  uint64_t span_self_ns = 0;
  // Profiler plane (DESIGN.md §9.4): sampled CPU + attributed off-CPU wait.
  uint64_t span_cpu_ns = 0;
  uint64_t span_lock_wait_ns = 0;
  uint64_t span_rpc_wait_ns = 0;
  uint64_t span_other_wait_ns = 0;
};

// Merges same-named rows, sorted by name: counters, gauges and span sums
// add, histograms merge; where kinds clash the first row's kind wins. The
// one merge behind Registry::Collect (instances of one name) and
// MergeTelemetry (one name across processes).
std::vector<MetricSnapshot> MergeByName(std::vector<MetricSnapshot> rows);

// Span totals for one layer: the spans whose name starts with `layer.`.
struct LayerRow {
  std::string layer;
  uint64_t spans = 0;
  uint64_t self_ns = 0;
  uint64_t total_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t rpc_wait_ns = 0;
  uint64_t other_wait_ns = 0;
  Histogram self;  // merged self-time histogram of the layer's spans

  // Share of the layer's self time spent off-CPU. Wait is charged to the
  // span that blocked (its self region), and a wait that spans child-span
  // exits can exceed self time, so the share clamps at 100; waits with no
  // self time at all read 100.
  double WaitPct() const;
};
// Layer rows of the span rows in `snaps` that saw samples, sorted by layer.
std::vector<LayerRow> LayerRows(const std::vector<MetricSnapshot>& snaps);

class Registry {
 public:
  static Registry& Instance();

  // Interned metrics: one per name, live for the process lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);
  SpanStat& GetSpan(std::string_view name);

  // Instance metrics owned by some object (per-region ScmStats, per-VFS
  // VfsStats, per-clerk counters). The object must Unregister before dying.
  void Register(Metric* metric);
  void Unregister(Metric* metric);

  // Aggregated snapshot, sorted by name; same-named metrics are merged by
  // MergeByName.
  std::vector<MetricSnapshot> Collect() const;

  // Zeroes every live metric (bench epochs).
  void ResetAll();

  size_t MetricCountForTesting() const;

 private:
  Registry() = default;
};

// Registers a set of instance metrics and unregisters them on destruction.
// Declare it AFTER the metrics it guards so unregistration runs first.
class ScopedRegistration {
 public:
  ScopedRegistration() = default;
  ~ScopedRegistration() {
    for (Metric* m : metrics_) {
      Registry::Instance().Unregister(m);
    }
  }
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

  void Add(Metric* metric) {
    Registry::Instance().Register(metric);
    metrics_.push_back(metric);
  }
  template <typename... Ms>
  void AddAll(Ms&... metrics) {
    (Add(&metrics), ...);
  }

 private:
  std::vector<Metric*> metrics_;
};

// --- Exporters (benches print these; EXPERIMENTS.md records the JSON) ---

// Human-readable dump of every metric, sorted by name.
std::string DumpText();
// One JSON object: {"schema_version":2, "mode":..., "counters":{...},
// "gauges":{...}, "histograms":{name: summary...}, "spans":{...},
// "layers":{...}, "write_amp":{...}} where "layers" holds the LayerRows.
// schema_version is bumped whenever a section changes shape.
std::string DumpJson();
// Per-layer table (layer, spans, self ms, mean self us) from span data.
std::string LayerBreakdownText();

// Zeroes all metrics (alias for Registry::Instance().ResetAll()).
void ResetAll();

// `s` as the body of a JSON string: quote, backslash and every control
// character escaped. The one escaper behind every obs JSON exporter.
std::string JsonEscape(std::string_view s);

// --- SCM write-amplification accounting -----------------------------------
// The SCM primitives attribute physical media traffic per layer
// (src/scm/pmem.h: AERIE_SCM_LAYER scopes feed scm.layer.<layer>.*
// counters) and the PXFS/FlatFS API boundary counts the logical bytes
// applications asked to write (*.api.logical_write_bytes). ComputeWriteAmp
// derives per-layer write amplification from any (name, counter value) set
// — the local registry, or a cross-process telemetry merge in aerie_top.
// Bytes per flushed cache line (mirrors aerie::kCacheLineSize without an
// obs -> scm dependency).
inline constexpr uint64_t kWriteAmpLineBytes = 64;

struct WriteAmpRow {
  std::string layer;
  uint64_t physical_bytes = 0;  // 64 * scm.layer.<layer>.lines_flushed
  uint64_t streamed_bytes = 0;  // scm.layer.<layer>.bytes_streamed
  uint64_t fences = 0;          // scm.layer.<layer>.fences
  double amplification = 0;     // physical_bytes / total logical bytes
};
struct WriteAmpReport {
  uint64_t logical_bytes = 0;   // sum of *.api.logical_write_bytes
  uint64_t physical_bytes = 0;  // sum of layer physical bytes
  double amplification = 0;     // physical / logical (0 when logical == 0)
  std::vector<WriteAmpRow> layers;  // sorted by layer name
};
WriteAmpReport ComputeWriteAmp(
    const std::vector<std::pair<std::string, uint64_t>>& counters);
// The same report computed from this process's registry.
WriteAmpReport LocalWriteAmp();

// --- RPC method instrumentation -------------------------------------------
// Transports record per-method call counts and bytes without knowing which
// subsystem owns a method id; subsystems register readable names when they
// wire their dispatcher (before the first call, or the id is rendered in
// hex). Counter names: rpc.<method>.calls / .bytes_out / .bytes_in, span
// name rpc.<method>.
struct RpcMethodStats {
  Counter& calls;
  Counter& bytes_out;
  Counter& bytes_in;
  SpanStat& span;
};
void SetRpcMethodName(uint32_t method, std::string_view name);
RpcMethodStats& RpcMethodStatsFor(uint32_t method);

}  // namespace obs
}  // namespace aerie

// Scoped trace span: AERIE_SPAN("pxfs", "open") attributes the enclosing
// scope's wall time to layer "pxfs", op "open". Both arguments must be
// string literals. Costs one branch when spans are disabled.
#define AERIE_OBS_CONCAT_(a, b) a##b
#define AERIE_OBS_CONCAT(a, b) AERIE_OBS_CONCAT_(a, b)
#define AERIE_SPAN(layer, op)                                               \
  static ::aerie::obs::SpanStat& AERIE_OBS_CONCAT(aerie_span_stat_,         \
                                                  __LINE__) =               \
      ::aerie::obs::Registry::Instance().GetSpan(layer "." op);             \
  ::aerie::obs::ScopedSpan AERIE_OBS_CONCAT(aerie_span_, __LINE__)(         \
      ::aerie::obs::SpansOn()                                               \
          ? &AERIE_OBS_CONCAT(aerie_span_stat_, __LINE__)                   \
          : nullptr)

// Interned-counter increment: AERIE_COUNT("pxfs.name_cache.hit") or
// AERIE_COUNT_N("txlog.append.bytes", n). Interns once per call site.
#define AERIE_COUNT_N(name, n)                                              \
  do {                                                                      \
    if (::aerie::obs::CountersOn()) {                                       \
      static ::aerie::obs::Counter& AERIE_OBS_CONCAT(aerie_counter_,        \
                                                     __LINE__) =            \
          ::aerie::obs::Registry::Instance().GetCounter(name);              \
      AERIE_OBS_CONCAT(aerie_counter_, __LINE__).Add(n);                    \
    }                                                                       \
  } while (0)
#define AERIE_COUNT(name) AERIE_COUNT_N(name, 1)

#endif  // AERIE_SRC_OBS_OBS_H_
