// Table 2: average (and 95th-percentile) latency per workload operation for
// the FileBench profiles on PXFS, PXFS-NNC, RamFS, ext3, ext4 (paper
// §7.2.2).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

struct PaperRow {
  const char* workload;
  double pxfs, pxfs_nnc, ramfs, ext3, ext4;
};
constexpr PaperRow kPaper[] = {
    {"Fileserver", 16.8, 24.3, 13.1, 30.3, 18.7},
    {"Webserver", 3.0, 5.5, 3.2, 3.3, 3.3},
    {"Webproxy", 3.5, 4.0, 3.1, 4.9, 4.5},
};

}  // namespace

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Table 2: average latency per workload operation (us)\n");
  std::printf("# scale=%.3f of paper filesets, %gs per cell; (p95) in "
              "parens\n\n",
              scale, seconds);

  const uint64_t seed = Seed();

  const SutKind kinds[] = {SutKind::kPxfs, SutKind::kPxfsNnc,
                           SutKind::kRamFs, SutKind::kExt3, SutKind::kExt4};
  const FilebenchKind profiles[] = {FilebenchKind::kFileserver,
                                    FilebenchKind::kWebserver,
                                    FilebenchKind::kWebproxy};

  std::printf("%-11s |", "Workload");
  for (SutKind kind : kinds) {
    std::printf(" %16s", std::string(SutKindName(kind)).c_str());
  }
  std::printf(" | paper PXFS/NNC/RamFS/ext3/ext4\n");

  for (int p = 0; p < 3; ++p) {
    std::printf("%-11s |", std::string(FilebenchKindName(profiles[p])).c_str());
    std::fflush(stdout);
    for (SutKind kind : kinds) {
      auto sut = SystemUnderTest::Create(kind, DefaultSutOptions());
      BENCH_CHECK_OK(sut);
      FilebenchProfile profile = FilebenchProfile::Paper(profiles[p], scale);
      FilebenchRunner runner((*sut)->fs(), profile, "/bench", seed);
      BENCH_CHECK_STATUS(runner.Prepare());
      Histogram warmup;
      for (int i = 0; i < 5; ++i) {
        BENCH_CHECK_STATUS(runner.RunIteration(&warmup));
      }
      Histogram ops;
      BENCH_CHECK_OK(runner.RunForSeconds(seconds, &ops));
      std::printf(" %7.2f (%6.2f)", MeanUs(ops), P95Us(ops));
      std::fflush(stdout);
    }
    std::printf(" | %.1f / %.1f / %.1f / %.1f / %.1f\n", kPaper[p].pxfs,
                kPaper[p].pxfs_nnc, kPaper[p].ramfs, kPaper[p].ext3,
                kPaper[p].ext4);
  }

  PrintProfileTop();
  return 0;
}
