// Shared plumbing for the per-table/per-figure benchmark binaries.
//
// Environment knobs (all optional):
//   AERIE_BENCH_SCALE    — fileset scale relative to the paper's (default
//                          0.05; 1.0 reproduces the paper's sizes)
//   AERIE_BENCH_SECONDS  — measurement window per data point (default 2)
//   AERIE_BENCH_THREADS  — max threads for scaling sweeps (default 4)
//   AERIE_BENCH_SEED     — base RNG seed; every runner derives its seed
//                          from this so a sweep is reproducible (default 42)
//
// Every binary prints a Markdown-ish table mirroring the paper's artifact,
// plus the paper's numbers alongside where useful. tools/run_experiments.py
// runs all of them and copies each table into EXPERIMENTS.md. Performance
// gating is perfbench's job (tools/bench_pair.py), not these binaries'.
#ifndef AERIE_BENCH_BENCH_UTIL_H_
#define AERIE_BENCH_BENCH_UTIL_H_

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/common/histogram.h"
#include "src/obs/obs.h"
#include "src/obs/profiler.h"
#include "src/scm/pmem.h"
#include "src/workload/filebench.h"
#include "src/workload/sut.h"

namespace aerie {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

inline double Scale() { return EnvDouble("AERIE_BENCH_SCALE", 0.05); }
inline double Seconds() { return EnvDouble("AERIE_BENCH_SECONDS", 2.0); }
inline int MaxThreads() {
  return static_cast<int>(EnvDouble("AERIE_BENCH_THREADS", 4));
}
// Base seed every bench derives its per-runner seeds from (seed + fixed
// offset), so one AERIE_BENCH_SEED value pins the whole sweep.
inline uint64_t Seed() {
  return static_cast<uint64_t>(EnvDouble("AERIE_BENCH_SEED", 42));
}

// CPUs this process may run on (what `nproc` prints).
inline int HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Host facts for bench banners, e.g. "4-CPU host, clwb write-back".
inline std::string HostBanner() {
  return std::to_string(HostCpus()) + "-CPU host, " +
         ScmRegion::flush_instruction() + " write-back";
}

inline SystemUnderTest::Options DefaultSutOptions() {
  SystemUnderTest::Options options;
  options.region_bytes = 2ull << 30;
  options.disk_blocks = 512ull << 10;
  return options;
}

// Fails fast with a readable message: a benchmark that cannot set up its
// system has nothing meaningful to print.
#define BENCH_CHECK_OK(expr)                                          \
  do {                                                                \
    const auto& _st = (expr);                                         \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,   \
                   _st.status().ToString().c_str());                  \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

#define BENCH_CHECK_STATUS(expr)                                      \
  do {                                                                \
    ::aerie::Status _st = (expr);                                     \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,   \
                   _st.ToString().c_str());                           \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

inline double MeanUs(const Histogram& hist) { return hist.Mean() / 1e3; }
inline double P95Us(const Histogram& hist) {
  return static_cast<double>(hist.Percentile(95)) / 1e3;
}

// Under AERIE_PROF, prints the top self-CPU frames so a bench run doubles
// as a profile run. The profiler's own exit hook writes the folded-stack /
// profile-JSON artifacts ($AERIE_PROF_FOLDED / $AERIE_PROF_JSON).
inline void PrintProfileTop() {
  if (obs::prof::IsRunning()) {
    obs::prof::DrainNow();
    std::fputs(obs::prof::TopText(10).c_str(), stdout);
  }
}

}  // namespace bench
}  // namespace aerie

#endif  // AERIE_BENCH_BENCH_UTIL_H_
