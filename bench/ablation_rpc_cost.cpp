// Ablation: sensitivity to RPC round-trip cost (paper §5.1: "Batching of
// metadata operations at a client helps take RPC off the critical path for
// most operations").
//
// Sweeps the modeled loopback round trip from free to 50us, with batching
// on (8MB) and off (per-op shipping). With batching, throughput should be
// almost flat — the design goal; without it, RPC cost dominates.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  const double scale = Scale();
  const double seconds = Seconds();
  std::printf("# Ablation: RPC round-trip cost vs Fileserver throughput "
              "(PXFS)\n");
  std::printf("# scale=%.3f, %gs per point\n\n", scale, seconds);
  std::printf("%12s %16s %16s\n", "rpc-delay", "batched it/s",
              "per-op it/s");

  for (uint64_t delay_ns : {0ull, 5000ull, 10000ull, 20000ull, 50000ull}) {
    double tput[2] = {0, 0};
    for (int batched = 1; batched >= 0; --batched) {
      SystemUnderTest::Options options = DefaultSutOptions();
      options.rpc_delay_ns = delay_ns;
      auto sut = SystemUnderTest::Create(SutKind::kPxfs, options);
      BENCH_CHECK_OK(sut);
      LibFs::Options libfs_options;
      libfs_options.eager_ship = batched == 0;
      auto client = (*sut)->aerie()->NewClient(libfs_options);
      BENCH_CHECK_OK(client);
      Pxfs pxfs((*client)->fs());
      PxfsAdapter adapter(&pxfs);
      FilebenchRunner runner(
          &adapter,
          FilebenchProfile::Paper(FilebenchKind::kFileserver, scale),
          "/bench", Seed() + 13);
      BENCH_CHECK_STATUS(runner.Prepare());
      Histogram ops;
      auto result = runner.RunForSeconds(seconds, &ops);
      BENCH_CHECK_OK(result);
      tput[batched] = *result;
    }
    std::printf("%10lluus %16.1f %16.1f\n",
                static_cast<unsigned long long>(delay_ns / 1000), tput[1],
                tput[0]);
  }

  PrintProfileTop();
  return 0;
}
