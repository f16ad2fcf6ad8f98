// Ablation: metadata-update batch size (paper §7.2.2: "We found the average
// optimum batch size for our workloads to be 8MB of metadata"; batching is
// "a large benefit for PXFS ... not possible in ext3/ext4").
//
// Sweeps the libFS batch threshold from per-op shipping (no batching) to
// effectively unbounded, running Fileserver on PXFS.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Ablation: batch size vs Fileserver performance (PXFS)\n");
  std::printf("# scale=%.3f, %gs per point; paper optimum ~8MB\n\n", scale,
              seconds);
  std::printf("%12s %14s %14s %14s\n", "batch", "iter/s", "mean-op(us)",
              "rpc-batches");

  struct Point {
    const char* label;
    uint64_t bytes;
    bool eager;
  };
  const Point points[] = {
      {"per-op", 0, true},          {"64KB", 64 << 10, false},
      {"1MB", 1 << 20, false},      {"8MB", 8 << 20, false},
      {"64MB", 64ull << 20, false},
  };

  for (const Point& point : points) {
    SystemUnderTest::Options sut_options = DefaultSutOptions();
    auto sut = SystemUnderTest::Create(SutKind::kPxfs, sut_options);
    BENCH_CHECK_OK(sut);
    // Build a dedicated client with the batch threshold under test.
    LibFs::Options libfs_options;
    libfs_options.eager_ship = point.eager;
    if (!point.eager) {
      libfs_options.batch_max_bytes = point.bytes;
    }
    auto client = (*sut)->aerie()->NewClient(libfs_options);
    BENCH_CHECK_OK(client);
    Pxfs pxfs((*client)->fs());
    PxfsAdapter adapter(&pxfs);

    FilebenchRunner runner(
        &adapter,
        FilebenchProfile::Paper(FilebenchKind::kFileserver, scale),
        "/bench", Seed() + 21);
    BENCH_CHECK_STATUS(runner.Prepare());
    const uint64_t batches_before = (*client)->fs()->batches_shipped();
    Histogram ops;
    auto tput = runner.RunForSeconds(seconds, &ops);
    BENCH_CHECK_OK(tput);
    std::printf("%12s %14.1f %14.2f %14llu\n", point.label, *tput,
                MeanUs(ops),
                static_cast<unsigned long long>(
                    (*client)->fs()->batches_shipped() - batches_before));
  }

  PrintProfileTop();
  return 0;
}
