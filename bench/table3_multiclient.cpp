// Table 3: throughput of a multiprogrammed workload with increasing client
// processes (paper §7.2.3).
//
//   (1) N single-threaded Fileserver instances (PXFS)
//   (2) Fileserver + Webproxy mix, all on PXFS
//   (3) Fileserver (PXFS) + Webproxy (FlatFS)
//
// Each "client" is an independent libFS instance (own clerk, cache, batch,
// session) driven by its own thread, operating in its own directory to
// avoid lock contention between clients — exactly the paper's setup modulo
// the process/thread substitution (DESIGN.md §4).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/trace.h"

namespace {

using namespace aerie;
using namespace aerie::bench;

struct ClientTask {
  std::unique_ptr<FilebenchRunner> runner;
  std::unique_ptr<FlatWebproxyRunner> flat_runner;
};

double RunClients(SystemUnderTest* sut, int nclients, bool mix_webproxy,
                  bool webproxy_on_flatfs, double scale, double seconds) {
  std::vector<ClientTask> tasks;
  const uint64_t seed = Seed() + 50;
  for (int c = 0; c < nclients; ++c) {
    ClientTask task;
    const bool is_webproxy = mix_webproxy && (c % 2 == 1);
    if (is_webproxy && webproxy_on_flatfs) {
      auto flat = sut->NewClientFlat();
      BENCH_CHECK_OK(flat);
      task.flat_runner = std::make_unique<FlatWebproxyRunner>(
          *flat,
          FilebenchProfile::Paper(FilebenchKind::kWebproxy, scale),
          "c" + std::to_string(c) + "_", seed + static_cast<uint64_t>(c));
      BENCH_CHECK_STATUS(task.flat_runner->Prepare());
    } else {
      auto fs = sut->NewClientFs();
      BENCH_CHECK_OK(fs);
      const FilebenchKind kind = is_webproxy ? FilebenchKind::kWebproxy
                                             : FilebenchKind::kFileserver;
      task.runner = std::make_unique<FilebenchRunner>(
          *fs, FilebenchProfile::Paper(kind, scale),
          "/client" + std::to_string(c), seed + static_cast<uint64_t>(c));
      BENCH_CHECK_STATUS(task.runner->Prepare());
    }
    tasks.push_back(std::move(task));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> iterations{0};
  std::vector<std::thread> workers;
  int worker_index = 0;
  for (auto& task : tasks) {
    workers.emplace_back([&stop, &iterations, &task,
                          idx = worker_index++] {
      if (obs::SpansOn()) {
        obs::SetThreadTraceName("client" + std::to_string(idx));
      }
      Histogram ops;
      while (!stop.load(std::memory_order_relaxed)) {
        Status st = task.runner ? task.runner->RunIteration(&ops)
                                : task.flat_runner->RunIteration(&ops);
        if (st.ok()) {
          iterations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Stopwatch sw;
  while (sw.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  return static_cast<double>(iterations.load()) / sw.ElapsedSeconds();
}

}  // namespace

int main() {
  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Table 3: multiprogrammed throughput (iterations/s) vs "
              "clients\n");
  std::printf("# scale=%.3f, %gs per point, %s\n\n", scale, seconds,
              HostBanner().c_str());
  std::printf("# paper (ops/s): FS alone 59k@1 -> 214k@6; FS+WP 273k@2 -> "
              "599k@6; FS+WP(FlatFS) 349k@2 -> 922k@6\n\n");

  const int client_counts[] = {1, 2, 4, 6};
  std::printf("%-22s |", "Benchmark");
  for (int n : client_counts) {
    std::printf(" %8dC", n);
  }
  std::printf("\n");

  // Row 1: Fileserver x N.
  std::printf("%-22s |", "Fileserver (FS)");
  std::fflush(stdout);
  for (int n : client_counts) {
    auto sut = SystemUnderTest::Create(SutKind::kPxfs, DefaultSutOptions());
    BENCH_CHECK_OK(sut);
    const double tput =
        RunClients(sut->get(), n, false, false, scale, seconds);
    std::printf(" %9.0f", tput);
    std::fflush(stdout);
  }
  std::printf("\n");

  // Row 2: FS + Webproxy, both PXFS (paper starts at 2 clients).
  std::printf("%-22s |", "FS+Webproxy (WP)");
  std::fflush(stdout);
  for (int n : client_counts) {
    if (n < 2) {
      std::printf(" %9s", "N/A");
      continue;
    }
    auto sut = SystemUnderTest::Create(SutKind::kPxfs, DefaultSutOptions());
    BENCH_CHECK_OK(sut);
    const double tput =
        RunClients(sut->get(), n, true, false, scale, seconds);
    std::printf(" %9.0f", tput);
    std::fflush(stdout);
  }
  std::printf("\n");

  // Row 3: FS (PXFS) + WP (FlatFS).
  std::printf("%-22s |", "FS+WP (FlatFS)");
  std::fflush(stdout);
  for (int n : client_counts) {
    if (n < 2) {
      std::printf(" %9s", "N/A");
      continue;
    }
    auto sut =
        SystemUnderTest::Create(SutKind::kFlatFs, DefaultSutOptions());
    BENCH_CHECK_OK(sut);
    const double tput =
        RunClients(sut->get(), n, true, true, scale, seconds);
    std::printf(" %9.0f", tput);
    std::fflush(stdout);
  }
  std::printf("\n");
  // AERIE_OBS=spans AERIE_TRACE_FILE=trace.json turns the last configuration
  // into a loadable Perfetto timeline (client tracks + clerk/TFS activity).
  const std::string trace_path = obs::WriteTraceFileIfConfigured();
  if (!trace_path.empty()) {
    std::printf("TRACE_FILE %s\n", trace_path.c_str());
  }

  PrintProfileTop();
  return 0;
}
