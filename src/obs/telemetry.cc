#include "src/obs/telemetry.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

namespace aerie {
namespace obs {

namespace {

static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t) &&
                  std::atomic<uint64_t>::is_always_lock_free,
              "segment words must be plain lock-free 64-bit atomics");

constexpr const char* kSegmentPrefix = "aerie.obs.";

uint64_t UnixNanos() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string DefaultProcessName() {
#if defined(__GLIBC__)
  if (program_invocation_short_name != nullptr) {
    return program_invocation_short_name;
  }
#endif
  return "aerie";
}

void PackString(uint64_t* words, int byte_capacity, const std::string& s) {
  char* bytes = reinterpret_cast<char*>(words);
  std::memset(bytes, 0, static_cast<size_t>(byte_capacity));
  // Leave at least one NUL so readers always find a terminator.
  const size_t n = std::min(s.size(), static_cast<size_t>(byte_capacity - 1));
  std::memcpy(bytes, s.data(), n);
}

std::string UnpackString(const uint64_t* words, int byte_capacity) {
  const char* bytes = reinterpret_cast<const char*>(words);
  const size_t n = ::strnlen(bytes, static_cast<size_t>(byte_capacity));
  return std::string(bytes, n);
}

// Entry word indexes, relative to the entry start (after the name bytes).
constexpr int kEntNameWords = kTelemetryNameBytes / 8;
constexpr int kEntKind = kEntNameWords + 0;
constexpr int kEntValue = kEntNameWords + 1;
constexpr int kEntSpanTotal = kEntNameWords + 2;
constexpr int kEntSpanSelf = kEntNameWords + 3;
// The profiler plane's per-span CPU/off-CPU decomposition.
constexpr int kEntSpanCpu = kEntNameWords + 4;
constexpr int kEntSpanLockWait = kEntNameWords + 5;
constexpr int kEntSpanRpcWait = kEntNameWords + 6;
constexpr int kEntSpanOtherWait = kEntNameWords + 7;
constexpr int kEntHistCount = kEntNameWords + 8;
constexpr int kEntHistSum = kEntNameWords + 9;
constexpr int kEntHistMin = kEntNameWords + 10;
constexpr int kEntHistMax = kEntNameWords + 11;
constexpr int kEntBucketSlot = kEntNameWords + 12;
static_assert(kEntBucketSlot + 1 == kTelemetryEntryWords,
              "entry layout must fill kTelemetryEntryWords exactly");

}  // namespace

std::string TelemetryDir() {
  const char* env = std::getenv("AERIE_OBS_SHM_DIR");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  return "/dev/shm";
}

std::string TelemetrySegmentPath(const std::string& dir, uint64_t pid) {
  return dir + "/" + kSegmentPrefix + std::to_string(pid);
}

// ---------------------------------------------------------------------------
// Publisher

std::unique_ptr<TelemetryPublisher> TelemetryPublisher::Create(
    const Options& options) {
  auto pub = std::unique_ptr<TelemetryPublisher>(new TelemetryPublisher());
  pub->pid_ = options.pid != 0 ? options.pid
                               : static_cast<uint64_t>(::getpid());
  pub->process_name_ = options.process_name.empty() ? DefaultProcessName()
                                                    : options.process_name;
  pub->start_unix_ns_ = UnixNanos();
  const std::string dir = options.dir.empty() ? TelemetryDir() : options.dir;
  pub->path_ = TelemetrySegmentPath(dir, pub->pid_);

  const int fd =
      ::open(pub->path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return nullptr;
  }
  if (::ftruncate(fd, static_cast<off_t>(TelemetrySegmentBytes())) != 0) {
    ::close(fd);
    ::unlink(pub->path_.c_str());
    return nullptr;
  }
  void* mem = ::mmap(nullptr, TelemetrySegmentBytes(),
                     PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    ::unlink(pub->path_.c_str());
    return nullptr;
  }
  pub->map_ = mem;
  pub->PublishNow();
  return pub;
}

TelemetryPublisher::~TelemetryPublisher() {
  if (map_ != nullptr) {
    ::munmap(map_, TelemetrySegmentBytes());
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
  }
}

void TelemetryPublisher::PublishNow() {
  const auto snaps = Registry::Instance().Collect();

  // Serialize into the staging buffer (plain memory): header, then one
  // fixed-size entry per metric, then bucket blobs for the histogram-kind
  // entries that got a slot.
  uint64_t entry_count = 0;
  uint64_t hist_count = 0;
  uint64_t dropped_entries = 0;
  uint64_t dropped_hists = 0;

  const uint64_t usable =
      std::min(static_cast<uint64_t>(snaps.size()), kTelemetryEntryCapacity);
  dropped_entries = snaps.size() - usable;
  const uint64_t bucket_base =
      kTelemetryHeaderWords + usable * kTelemetryEntryWords;

  staging_.assign(bucket_base + kTelemetryHistCapacity * kTelemetryBucketWords,
                  0);

  for (const MetricSnapshot& snap : snaps) {
    if (entry_count >= kTelemetryEntryCapacity) {
      break;
    }
    uint64_t* ent =
        staging_.data() + kTelemetryHeaderWords +
        entry_count * kTelemetryEntryWords;
    PackString(ent, kTelemetryNameBytes, snap.name);
    ent[kEntKind] = static_cast<uint64_t>(snap.kind);
    ent[kEntBucketSlot] = kTelemetryNoBucketSlot;
    switch (snap.kind) {
      case Metric::Kind::kCounter:
        ent[kEntValue] = snap.counter;
        break;
      case Metric::Kind::kGauge:
        std::memcpy(&ent[kEntValue], &snap.gauge, sizeof(uint64_t));
        break;
      case Metric::Kind::kHistogram:
      case Metric::Kind::kSpan: {
        ent[kEntSpanTotal] = snap.span_total_ns;
        ent[kEntSpanSelf] = snap.span_self_ns;
        ent[kEntSpanCpu] = snap.span_cpu_ns;
        ent[kEntSpanLockWait] = snap.span_lock_wait_ns;
        ent[kEntSpanRpcWait] = snap.span_rpc_wait_ns;
        ent[kEntSpanOtherWait] = snap.span_other_wait_ns;
        ent[kEntHistCount] = snap.hist.count();
        ent[kEntHistSum] = snap.hist.sum();
        ent[kEntHistMin] = snap.hist.min();
        ent[kEntHistMax] = snap.hist.max();
        if (hist_count < kTelemetryHistCapacity) {
          ent[kEntBucketSlot] = hist_count;
          uint64_t* blob = staging_.data() + bucket_base +
                           hist_count * kTelemetryBucketWords;
          for (int i = 0; i < Histogram::kBuckets; ++i) {
            blob[i] = snap.hist.bucket_count(i);
          }
          ++hist_count;
        } else {
          ++dropped_hists;
        }
        break;
      }
    }
    ++entry_count;
  }

  const uint64_t used_words = bucket_base + hist_count * kTelemetryBucketWords;
  ++publish_count_;

  uint64_t* hdr = staging_.data();
  hdr[kHdrMagic] = kTelemetryMagic;
  hdr[kHdrFormatVersion] = kTelemetryFormatVersion;
  hdr[kHdrPid] = pid_;
  hdr[kHdrStartUnixNs] = start_unix_ns_;
  hdr[kHdrPublishUnixNs] = UnixNanos();
  hdr[kHdrPublishMonoNs] = NowNanos();
  hdr[kHdrEntryCount] = entry_count;
  hdr[kHdrEntryCapacity] = kTelemetryEntryCapacity;
  hdr[kHdrHistCapacity] = kTelemetryHistCapacity;
  hdr[kHdrPublishCount] = publish_count_;
  hdr[kHdrDroppedEntries] = dropped_entries;
  hdr[kHdrDroppedHists] = dropped_hists;
  hdr[kHdrMode] = static_cast<uint64_t>(ModeRaw());
  PackString(&hdr[kHdrProcessName], kTelemetryProcessNameBytes,
             process_name_);
  hdr[kHdrBucketBase] = bucket_base;
  hdr[kHdrHistCount] = hist_count;

  // Seqlock write side: odd = in flight, even = stable. Payload words are
  // relaxed atomic stores between release fences, so a concurrent in-process
  // reader is race-free (TSan) and a cross-process reader on x86 sees the
  // usual seqlock ordering.
  auto* words = static_cast<std::atomic<uint64_t>*>(map_);
  const uint64_t seq = words[kHdrSeq].load(std::memory_order_relaxed);
  words[kHdrSeq].store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (uint64_t i = 0; i < used_words; ++i) {
    if (i == static_cast<uint64_t>(kHdrSeq)) {
      continue;
    }
    words[i].store(staging_[i], std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  words[kHdrSeq].store(seq + 2, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Reader

namespace {

bool ParseSnapshot(const std::vector<uint64_t>& w, TelemetrySnapshot* out) {
  out->pid = w[kHdrPid];
  out->start_unix_ns = w[kHdrStartUnixNs];
  out->publish_unix_ns = w[kHdrPublishUnixNs];
  out->publish_mono_ns = w[kHdrPublishMonoNs];
  out->publish_count = w[kHdrPublishCount];
  out->dropped_entries = w[kHdrDroppedEntries];
  out->dropped_hists = w[kHdrDroppedHists];
  out->mode = static_cast<Mode>(
      std::min<uint64_t>(w[kHdrMode], static_cast<uint64_t>(Mode::kSpans)));
  out->process_name =
      UnpackString(&w[kHdrProcessName], kTelemetryProcessNameBytes);

  const uint64_t entry_count = w[kHdrEntryCount];
  const uint64_t bucket_base = w[kHdrBucketBase];
  const uint64_t hist_count = w[kHdrHistCount];
  out->metrics.clear();
  out->metrics.reserve(entry_count);
  for (uint64_t e = 0; e < entry_count; ++e) {
    const uint64_t* ent =
        w.data() + kTelemetryHeaderWords + e * kTelemetryEntryWords;
    MetricSnapshot m;
    m.name = UnpackString(ent, kTelemetryNameBytes);
    if (m.name.empty() || ent[kEntKind] > 3) {
      return false;  // torn or corrupt entry that slipped past the seqlock
    }
    m.kind = static_cast<Metric::Kind>(ent[kEntKind]);
    switch (m.kind) {
      case Metric::Kind::kCounter:
        m.counter = ent[kEntValue];
        break;
      case Metric::Kind::kGauge:
        std::memcpy(&m.gauge, &ent[kEntValue], sizeof(int64_t));
        break;
      case Metric::Kind::kHistogram:
      case Metric::Kind::kSpan: {
        m.span_total_ns = ent[kEntSpanTotal];
        m.span_self_ns = ent[kEntSpanSelf];
        m.span_cpu_ns = ent[kEntSpanCpu];
        m.span_lock_wait_ns = ent[kEntSpanLockWait];
        m.span_rpc_wait_ns = ent[kEntSpanRpcWait];
        m.span_other_wait_ns = ent[kEntSpanOtherWait];
        // A dropped blob leaves the exact scalars with no buckets.
        const uint64_t slot = ent[kEntBucketSlot];
        const uint64_t* buckets = nullptr;
        if (slot != kTelemetryNoBucketSlot) {
          if (slot >= hist_count) {
            return false;
          }
          buckets = w.data() + bucket_base + slot * kTelemetryBucketWords;
        }
        m.hist.MergeSerialized(
            buckets, buckets != nullptr ? Histogram::kBuckets : 0,
            ent[kEntHistCount], ent[kEntHistSum], ent[kEntHistMin],
            ent[kEntHistMax]);
        break;
      }
    }
    out->metrics.push_back(std::move(m));
  }
  return true;
}

}  // namespace

bool ReadTelemetrySegment(const std::string& path, TelemetrySnapshot* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  struct stat sb{};
  if (::fstat(fd, &sb) != 0 ||
      static_cast<uint64_t>(sb.st_size) < TelemetrySegmentBytes()) {
    ::close(fd);
    return false;
  }
  void* mem =
      ::mmap(nullptr, TelemetrySegmentBytes(), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    return false;
  }
  const auto* words = static_cast<const std::atomic<uint64_t>*>(mem);
  const uint64_t total_words = TelemetrySegmentWords();

  bool ok = false;
  std::vector<uint64_t> local;
  for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
    const uint64_t s1 = words[kHdrSeq].load(std::memory_order_acquire);
    if (s1 & 1) {
      continue;  // publish in flight
    }
    uint64_t hdr[kTelemetryHeaderWords];
    for (int i = 0; i < kTelemetryHeaderWords; ++i) {
      hdr[i] = words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (words[kHdrSeq].load(std::memory_order_relaxed) != s1) {
      continue;
    }
    if (hdr[kHdrMagic] != kTelemetryMagic ||
        hdr[kHdrFormatVersion] != kTelemetryFormatVersion) {
      break;  // never published, or a foreign format: not retryable
    }
    const uint64_t entry_count = hdr[kHdrEntryCount];
    const uint64_t bucket_base = hdr[kHdrBucketBase];
    const uint64_t hist_count = hdr[kHdrHistCount];
    if (entry_count > kTelemetryEntryCapacity ||
        hist_count > kTelemetryHistCapacity ||
        bucket_base !=
            kTelemetryHeaderWords + entry_count * kTelemetryEntryWords) {
      continue;  // torn header
    }
    const uint64_t used =
        bucket_base + hist_count * kTelemetryBucketWords;
    if (used > total_words) {
      continue;
    }
    local.assign(used, 0);
    for (uint64_t i = 0; i < used; ++i) {
      local[i] = words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (words[kHdrSeq].load(std::memory_order_relaxed) != s1) {
      continue;  // overwritten mid-copy; retry
    }
    local[kHdrSeq] = s1;
    ok = ParseSnapshot(local, out);
  }
  ::munmap(mem, TelemetrySegmentBytes());
  return ok;
}

std::vector<TelemetrySnapshot> ReadTelemetryDir(const std::string& dir,
                                                bool gc_dead, int* gc_count) {
  std::vector<TelemetrySnapshot> out;
  if (gc_count != nullptr) {
    *gc_count = 0;
  }
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  const uint64_t self = static_cast<uint64_t>(::getpid());
  std::vector<std::pair<uint64_t, std::string>> segments;
  while (dirent* ent = ::readdir(d)) {
    const char* name = ent->d_name;
    if (std::strncmp(name, kSegmentPrefix, std::strlen(kSegmentPrefix)) !=
        0) {
      continue;
    }
    const char* digits = name + std::strlen(kSegmentPrefix);
    if (*digits == '\0') {
      continue;
    }
    char* end = nullptr;
    const uint64_t pid = std::strtoull(digits, &end, 10);
    if (end == nullptr || *end != '\0' || pid == 0) {
      continue;
    }
    segments.emplace_back(pid, dir + "/" + name);
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end());

  for (const auto& [pid, path] : segments) {
    if (gc_dead && pid != self &&
        ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      if (::unlink(path.c_str()) == 0 && gc_count != nullptr) {
        ++*gc_count;
      }
      continue;
    }
    TelemetrySnapshot snap;
    if (ReadTelemetrySegment(path, &snap)) {
      out.push_back(std::move(snap));
    }
  }
  return out;
}

std::vector<MetricSnapshot> MergeTelemetry(
    const std::vector<TelemetrySnapshot>& snapshots) {
  std::vector<MetricSnapshot> rows;
  for (const TelemetrySnapshot& snap : snapshots) {
    rows.insert(rows.end(), snap.metrics.begin(), snap.metrics.end());
  }
  return MergeByName(std::move(rows));
}

std::vector<MetricSnapshot> IntervalTelemetry(
    const std::vector<TelemetrySnapshot>& prev,
    const std::vector<TelemetrySnapshot>& cur) {
  std::vector<MetricSnapshot> rows;
  for (const TelemetrySnapshot& snap : cur) {
    const auto before = std::find_if(
        prev.begin(), prev.end(),
        [&](const TelemetrySnapshot& p) { return p.pid == snap.pid; });
    for (MetricSnapshot m : snap.metrics) {
      const MetricSnapshot* p = nullptr;
      if (before != prev.end()) {
        // Both metric lists are sorted by name within a process.
        const auto it = std::lower_bound(
            before->metrics.begin(), before->metrics.end(), m.name,
            [](const MetricSnapshot& a, const std::string& name) {
              return a.name < name;
            });
        if (it != before->metrics.end() && it->name == m.name &&
            it->kind == m.kind) {
          p = &*it;
        }
      }
      if (p != nullptr && m.counter >= p->counter &&
          m.hist.count() >= p->hist.count()) {
        auto minus = [](uint64_t& a, uint64_t b) { a -= std::min(a, b); };
        minus(m.counter, p->counter);
        minus(m.span_total_ns, p->span_total_ns);
        minus(m.span_self_ns, p->span_self_ns);
        minus(m.span_cpu_ns, p->span_cpu_ns);
        minus(m.span_lock_wait_ns, p->span_lock_wait_ns);
        minus(m.span_rpc_wait_ns, p->span_rpc_wait_ns);
        minus(m.span_other_wait_ns, p->span_other_wait_ns);
        m.hist.Subtract(p->hist);
      }
      rows.push_back(std::move(m));
    }
  }
  return MergeByName(std::move(rows));
}

// ---------------------------------------------------------------------------
// Process lifecycle: ticker thread, SIGUSR1 sigdump

namespace {

struct ProcessTelemetry {
  std::unique_ptr<TelemetryPublisher> publisher;
  std::thread ticker;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  uint64_t interval_ms = 250;
  uint64_t pid = 0;
};

// Leaked so the atexit hook and late metric dumps stay safe.
ProcessTelemetry* g_process = nullptr;
std::atomic<int> g_sigdump_pending{0};

void SigusrHandler(int) {
  // Async-signal-safe: just flag; the ticker thread does the dumping.
  g_sigdump_pending.store(1, std::memory_order_relaxed);
}

// The on-demand dump: registry to stderr plus the flight-recorder
// post-mortem trail — the same path a failed AERIE_CHECK takes (trace.cc).
void DoSigdump() {
  std::fprintf(stderr, "== aerie SIGUSR1 dump (pid %llu) ==\n",
               static_cast<unsigned long long>(
                   g_process != nullptr ? g_process->pid : 0));
  const std::string text = DumpText();
  std::fwrite(text.data(), 1, text.size(), stderr);
  DumpPostMortem();
}

void ProcessTelemetryTick() {
  if (g_process != nullptr && g_process->publisher != nullptr) {
    g_process->publisher->PublishNow();
  }
  if (g_sigdump_pending.exchange(0, std::memory_order_relaxed) != 0) {
    DoSigdump();
  }
}

void TickerMain() {
  ProcessTelemetry& pt = *g_process;
  std::unique_lock<std::mutex> lock(pt.mu);
  while (!pt.stop) {
    pt.cv.wait_for(lock, std::chrono::milliseconds(pt.interval_ms));
    if (pt.stop) {
      break;
    }
    lock.unlock();
    ProcessTelemetryTick();
    lock.lock();
  }
}

void ShutdownProcessTelemetry() {
  ProcessTelemetry* pt = g_process;
  if (pt == nullptr) {
    return;
  }
  if (pt->ticker.joinable()) {
    {
      std::lock_guard<std::mutex> lock(pt->mu);
      pt->stop = true;
    }
    pt->cv.notify_all();
    pt->ticker.join();
  }
  // A forked child inherits the atexit registration but must not unlink the
  // parent's segment (the path embeds the creator's pid).
  if (pt->publisher != nullptr &&
      static_cast<uint64_t>(::getpid()) == pt->pid) {
    pt->publisher.reset();
  }
}

uint64_t EnvU64(const char* name, uint64_t fallback, uint64_t lo,
                uint64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return fallback;
  }
  const uint64_t v = std::strtoull(env, nullptr, 10);
  return std::clamp(v, lo, hi);
}

bool EnvDisabled(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && (std::strcmp(env, "0") == 0 ||
                            std::strcmp(env, "off") == 0);
}

}  // namespace

namespace detail {

void StartProcessTelemetryOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto* pt = new ProcessTelemetry();  // leaked: outlives atexit hooks
    pt->pid = static_cast<uint64_t>(::getpid());
    pt->interval_ms =
        EnvU64("AERIE_OBS_SHM_INTERVAL_MS", 250, 10, 60000);
    g_process = pt;

    const bool obs_on = CurrentMode() != Mode::kOff;
    const bool shm_on = obs_on && !EnvDisabled("AERIE_OBS_SHM");
    const char* sigdump_env = std::getenv("AERIE_OBS_SIGDUMP");
    const bool sigdump_on =
        sigdump_env != nullptr && std::strcmp(sigdump_env, "1") == 0;

    if (sigdump_on) {
      struct sigaction sa{};
      sa.sa_handler = &SigusrHandler;
      ::sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESTART;
      ::sigaction(SIGUSR1, &sa, nullptr);
    }
    if (shm_on) {
      // Reclaim segments from dead processes before adding our own.
      int gc = 0;
      ReadTelemetryDir(TelemetryDir(), /*gc_dead=*/true, &gc);
      (void)gc;
      pt->publisher = TelemetryPublisher::Create(TelemetryPublisher::Options{});
    }
    if (pt->publisher != nullptr || sigdump_on) {
      std::atexit(&ShutdownProcessTelemetry);
      pt->ticker = std::thread(&TickerMain);
    }
    // The sampling profiler rides the same attach point: any process with
    // AERIE_PROF set starts sampling here and writes its folded/JSON
    // artifacts from its own atexit hook (src/obs/profiler.cc).
    prof::MaybeStartFromEnv();
  });
}

}  // namespace detail

TelemetryPublisher* ProcessTelemetryPublisher() {
  return g_process != nullptr ? g_process->publisher.get() : nullptr;
}

void ProcessTelemetryTickForTesting() { ProcessTelemetryTick(); }

}  // namespace obs
}  // namespace aerie
