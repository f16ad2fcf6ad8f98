// Figure 5: throughput (workload operations per second) as client threads
// increase, for Fileserver / Webserver / Webproxy on PXFS, PXFS-NNC, RamFS,
// ext3, ext4 — plus FlatFS on Webproxy (paper §7.2.3, §7.3.2).
//
// Threads live in one client process (one libFS instance); each thread runs
// its own workload instance over the *shared* directory tree, so Webproxy's
// single-directory lock contention shows up exactly as in the paper.
//
// NOTE: this host has a single CPU core, so absolute scaling flattens; the
// *relative* per-system ordering and the FlatFS-vs-PXFS contention gap are
// the reproducible shapes (EXPERIMENTS.md discusses this).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aerie;
using namespace aerie::bench;

// Runs `threads` workload instances concurrently; returns total iterations/s.
double RunThreads(SystemUnderTest* sut, FilebenchKind kind, double scale,
                  double seconds, int threads, bool flat) {
  std::vector<std::unique_ptr<FilebenchRunner>> runners;
  std::vector<std::unique_ptr<FlatWebproxyRunner>> flat_runners;
  FilebenchProfile profile = FilebenchProfile::Paper(kind, scale);
  const uint64_t seed = Seed() + 100;

  for (int t = 0; t < threads; ++t) {
    if (flat) {
      auto runner = std::make_unique<FlatWebproxyRunner>(
          sut->flat(), profile, "wp" + std::to_string(t) + "_",
          seed + static_cast<uint64_t>(t));
      BENCH_CHECK_STATUS(runner->Prepare());
      flat_runners.push_back(std::move(runner));
    } else {
      auto runner = std::make_unique<FilebenchRunner>(
          sut->fs(), profile, "/bench", seed + static_cast<uint64_t>(t),
          static_cast<uint64_t>(t));
      BENCH_CHECK_STATUS(runner->Prepare());
      runners.push_back(std::move(runner));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> iterations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Histogram ops;
      while (!stop.load(std::memory_order_relaxed)) {
        Status st = flat ? flat_runners[static_cast<size_t>(t)]
                               ->RunIteration(&ops)
                         : runners[static_cast<size_t>(t)]
                               ->RunIteration(&ops);
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
  const int max_threads = MaxThreads();

  std::printf("# Figure 5: throughput (workload iterations/s) vs threads\n");
  std::printf("# scale=%.3f, %gs per point, %s (see EXPERIMENTS.md)\n\n",
              scale, seconds, HostBanner().c_str());

  const FilebenchKind profiles[] = {FilebenchKind::kFileserver,
                                    FilebenchKind::kWebserver,
                                    FilebenchKind::kWebproxy};
  const SutKind kinds[] = {SutKind::kPxfs, SutKind::kPxfsNnc,
                           SutKind::kRamFs, SutKind::kExt3, SutKind::kExt4};

  for (FilebenchKind profile : profiles) {
    std::printf("## %s\n", std::string(FilebenchKindName(profile)).c_str());
    std::printf("%-9s |", "system");
    for (int t = 1; t <= max_threads; ++t) {
      std::printf(" %9dT", t);
    }
    std::printf("\n");
    for (SutKind kind : kinds) {
      std::printf("%-9s |", std::string(SutKindName(kind)).c_str());
      std::fflush(stdout);
      for (int t = 1; t <= max_threads; ++t) {
        auto sut = SystemUnderTest::Create(kind, DefaultSutOptions());
        BENCH_CHECK_OK(sut);
        const double tput =
            RunThreads(sut->get(), profile, scale, seconds, t, false);
        std::printf(" %10.0f", tput);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
    if (profile == FilebenchKind::kWebproxy) {
      std::printf("%-9s |", "FlatFS");
      std::fflush(stdout);
      for (int t = 1; t <= max_threads; ++t) {
        auto sut =
            SystemUnderTest::Create(SutKind::kFlatFs, DefaultSutOptions());
        BENCH_CHECK_OK(sut);
        const double tput =
            RunThreads(sut->get(), profile, scale, seconds, t, true);
        std::printf(" %10.0f", tput);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  PrintProfileTop();
  return 0;
}
