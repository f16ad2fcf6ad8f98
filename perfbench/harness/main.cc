// aerie_perfbench: builds one workload's system and fileset (timed as
// setup), runs the closed-loop window(s), checks correctness, and writes raw
// results for perfbench/run.py to derive metrics from:
//
//   <out>/result.json     settings, host, setup time, registry snapshots
//                         around each window, check results
//   <out>/window<i>.spans every recorded call of window i (harness.h Span)
//
// Usage: aerie_perfbench --workload W --seed N --seconds S --trace 0|1
//                        --out DIR [--scale F]
// With --trace 1 the window is split: the first half runs as configured
// (timed), the second half with obs spans on (traced), so one process
// reports both the layer deltas and the tracing overhead.
#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "perfbench/harness/harness.h"
#include "src/obs/obs.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  double scale = 1.0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--scale") {
      a->scale = std::stod(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->out.empty() && a->seconds > 0;
}

std::string Quote(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char b[8];
      std::snprintf(b, sizeof(b), "\\u%04x", ch);
      o += b;
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

std::string Num(double v) {
  char b[64];
  std::snprintf(b, sizeof(b), "%.17g", v);
  return b;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

// CPUID.(EAX=7,ECX=0):EBX bit 23 = CLFLUSHOPT, bit 24 = CLWB.
std::string CpuFlushSupport() {
  unsigned int a = 0, b = 0, c = 0, d = 0;
  std::string out = "clflush";
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    if (b & (1u << 23)) {
      out += ",clflushopt";
    }
    if (b & (1u << 24)) {
      out += ",clwb";
    }
  }
  return out;
}

// Registry snapshot keyed by name.
using Snapshot = std::map<std::string, aerie::obs::MetricSnapshot>;
Snapshot Collect() {
  Snapshot s;
  for (auto& m : aerie::obs::Registry::Instance().Collect()) {
    std::string name = m.name;
    s.emplace(std::move(name), std::move(m));
  }
  return s;
}

// Flat name -> value view of a snapshot: counters under their own name,
// span sums as "span:<name>:<field>". run.py takes the deltas.
std::string FlatJson(const Snapshot& snap) {
  using Kind = aerie::obs::Metric::Kind;
  std::ostringstream o;
  bool first = true;
  auto put = [&](const std::string& k, uint64_t v) {
    o << (first ? "" : ",") << Quote(k) << ":" << v;
    first = false;
  };
  for (const auto& [name, m] : snap) {
    if (m.kind == Kind::kCounter) {
      put(name, m.counter);
    } else if (m.kind == Kind::kSpan) {
      const std::string p = "span:" + name + ":";
      put(p + "count", m.hist.count());
      put(p + "self_ns", m.span_self_ns);
      put(p + "lock_wait_ns", m.span_lock_wait_ns);
      put(p + "rpc_wait_ns", m.span_rpc_wait_ns);
    }
  }
  return "{" + o.str() + "}";
}

// Registry histograms over the window: count, sum and percentiles of the
// bucket-count difference (the registry keeps no raw samples).
std::string HistDeltaJson(const Snapshot& before, const Snapshot& after) {
  std::ostringstream o;
  bool first = true;
  for (const auto& [name, a] : after) {
    if (a.kind != aerie::obs::Metric::Kind::kHistogram) {
      continue;
    }
    auto it = before.find(name);
    std::vector<uint64_t> buckets(aerie::Histogram::kBuckets);
    uint64_t count = a.hist.count();
    uint64_t sum = a.hist.sum();
    for (int i = 0; i < aerie::Histogram::kBuckets; ++i) {
      buckets[i] = a.hist.bucket_count(i);
      if (it != before.end()) {
        buckets[i] -= it->second.hist.bucket_count(i);
      }
    }
    if (it != before.end()) {
      count -= it->second.hist.count();
      sum -= it->second.hist.sum();
    }
    aerie::Histogram d;
    d.MergeSerialized(buckets.data(), aerie::Histogram::kBuckets, count, sum,
                      a.hist.min(), a.hist.max());
    o << (first ? "" : ",") << Quote(name) << ":{\"count\":" << count
      << ",\"sum\":" << sum << ",\"p50\":" << d.Percentile(50)
      << ",\"p99\":" << d.Percentile(99) << "}";
    first = false;
  }
  return "{" + o.str() + "}";
}

struct WindowResult {
  bool traced = false;
  double seconds = 0;
  uint64_t bytes_read = 0;
  uint64_t sample_bytes = 0;
  uint64_t used_bytes_before = 0;  // allocated SCM space around the window
  uint64_t used_bytes_after = 0;
  std::string before, after, hists;
  std::string spans_file;
};

// One closed-loop window: every client runs whole iterations back to back
// until the deadline. `last`: the final window, after which the bench
// crashes at once (Bench::Crash).
WindowResult RunWindow(Bench* bench, double seconds, bool traced, bool last,
                       const std::string& spans_path) {
  WindowResult w;
  w.traced = traced;
  const aerie::obs::Mode mode = aerie::obs::CurrentMode();
  if (traced) {
    aerie::obs::SetMode(aerie::obs::Mode::kSpans);
  }
  aerie::BuddyAllocator* alloc = bench->system()->volume()->allocator();
  auto used = [alloc] {
    return (alloc->pages_total() - alloc->pages_free()) * aerie::kScmPageSize;
  };
  w.used_bytes_before = used();
  const Snapshot before = Collect();
  std::atomic<bool> stop{false};
  const uint64_t origin = aerie::NowNanos();
  std::vector<std::thread> threads;
  for (int c = 0; c < bench->clients(); ++c) {
    bench->recorder(c).Start(origin);
    threads.emplace_back([bench, c, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        bench->Iterate(c);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  w.seconds = static_cast<double>(aerie::NowNanos() - origin) / 1e9;
  const Snapshot after = Collect();
  w.used_bytes_after = used();
  if (last) {
    bench->Crash();
  }
  if (traced) {
    aerie::obs::SetMode(mode);
  }
  w.before = FlatJson(before);
  w.after = FlatJson(after);
  w.hists = HistDeltaJson(before, after);
  std::ofstream spans(spans_path, std::ios::binary);
  for (int c = 0; c < bench->clients(); ++c) {
    Recorder& r = bench->recorder(c);
    r.Stop();
    w.bytes_read += r.bytes_read();
    w.sample_bytes += r.sample_bytes();
    spans.write(reinterpret_cast<const char*>(r.spans().data()),
                static_cast<std::streamsize>(r.spans().size() * sizeof(Span)));
  }
  w.spans_file = spans_path;
  return w;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aerie_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR [--scale F]\n");
    return 2;
  }
  Settings s;
  if (!SettingsFor(args.workload, args.scale, &s)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Pool pool(args.seed);

  const uint64_t t0 = aerie::NowNanos();
  auto built = Bench::Create(s, &pool, args.seed, args.out);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Bench> bench = std::move(*built);
  const double setup_s = static_cast<double>(aerie::NowNanos() - t0) / 1e9;
  const uint64_t fileset_bytes = bench->fileset_bytes();
  const uint64_t fileset_files = bench->fileset_files();

  std::vector<WindowResult> windows;
  if (args.trace) {
    windows.push_back(RunWindow(bench.get(), args.seconds / 2, false, false,
                                args.out + "/window0.spans"));
    windows.push_back(RunWindow(bench.get(), args.seconds / 2, true, true,
                                args.out + "/window1.spans"));
  } else {
    windows.push_back(RunWindow(bench.get(), args.seconds, false, true,
                                args.out + "/window0.spans"));
  }
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const uint64_t peak_rss = static_cast<uint64_t>(ru.ru_maxrss) * 1024;
  std::vector<std::string> errors;
  for (int c = 0; c < bench->clients(); ++c) {
    for (const std::string& e : bench->recorder(c).errors()) {
      if (errors.size() < 16) {
        errors.push_back(e);
      }
    }
  }

  const CheckReport check = bench->Check(args.seed);
  bench.reset();

  std::ostringstream o;
  o << std::boolalpha << "{\"workload\":" << Quote(s.workload) << ",\"seed\":" << args.seed
    << ",\"seconds\":" << Num(args.seconds) << ",\"trace\":" << args.trace
    << ",\"scale\":" << Num(args.scale);
  o << ",\"settings\":{\"region_bytes\":" << s.region_bytes
    << ",\"nfiles_per_client\":" << s.nfiles
    << ",\"mean_file_size\":" << s.mean_file_size
    << ",\"dir_width\":" << s.dir_width
    << ",\"append_size\":" << s.append_size << ",\"io_size\":" << s.io_size
    << ",\"log_rotate_bytes\":" << s.log_rotate_bytes
    << ",\"pxfs_clients\":" << s.pxfs_clients
    << ",\"flat_clients\":" << s.flat_clients
    << ",\"flat_keys\":" << s.flat_keys
    << ",\"flat_mean_size\":" << s.flat_mean_size
    << ",\"warm_iterations\":" << s.warm_iterations
    << ",\"rpc_delay_ns\":" << s.rpc_delay_ns
    << ",\"scm_write_ns\":" << s.scm_write_ns
    << ",\"obs_mode\":" << static_cast<int>(aerie::obs::CurrentMode())
    << ",\"direct_enabled\":" << aerie::LibFs::DirectEnabled() << "}";
  o << ",\"host\":{\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"cpu_model\":" << Quote(CpuModel())
    << ",\"cpu_flush_support\":" << Quote(CpuFlushSupport()) << "}";
  o << ",\"setup_s\":" << Num(setup_s);
  o << ",\"fileset_bytes\":" << fileset_bytes
    << ",\"fileset_files\":" << fileset_files
    << ",\"peak_rss_bytes\":" << peak_rss;
  o << ",\"windows\":[";
  for (size_t i = 0; i < windows.size(); ++i) {
    const WindowResult& w = windows[i];
    o << (i ? "," : "") << "{\"traced\":" << w.traced
      << ",\"seconds\":" << Num(w.seconds) << ",\"bytes_read\":" << w.bytes_read
      << ",\"sample_bytes\":" << w.sample_bytes
      << ",\"used_bytes_before\":" << w.used_bytes_before
      << ",\"used_bytes_after\":" << w.used_bytes_after
      << ",\"spans_file\":" << Quote(w.spans_file) << ",\"before\":" << w.before
      << ",\"after\":" << w.after << ",\"histograms\":" << w.hists << "}";
  }
  o << "],\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    o << (i ? "," : "") << Quote(errors[i]);
  }
  o << "],\"check\":{\"ok\":" << check.ok() << ",\"sampled\":" << check.sampled
    << ",\"mismatches\":" << check.mismatches
    << ",\"size_mismatches\":" << check.size_mismatches
    << ",\"sync_failures\":" << check.sync_failures
    << ",\"fsck_ok\":" << check.fsck_ok
    << ",\"fsck_summary\":" << Quote(check.fsck_summary)
    << ",\"recovery_run\":" << check.recovery_run
    << ",\"recovery_ok\":" << check.recovery_ok
    << ",\"recovery_checked\":" << check.recovery_checked
    << ",\"recovery_missing\":" << check.recovery_missing
    << ",\"recovery_mismatches\":" << check.recovery_mismatches
    << ",\"problems\":[";
  for (size_t i = 0; i < check.problems.size(); ++i) {
    o << (i ? "," : "") << Quote(check.problems[i]);
  }
  o << "]}}\n";
  std::ofstream(args.out + "/result.json") << o.str();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
