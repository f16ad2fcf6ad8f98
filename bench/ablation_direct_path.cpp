// Ablation: zero-RPC direct data path (DESIGN.md §10).
//
// A/B of the SplitFS-style lease-guarded fast path: warmed sequential 4KB
// reads, aligned in-place 4KB overwrites (PXFS), and cached-value gets
// (FlatFS), each with the direct path enabled and disabled via the interface
// options (the AERIE_DIRECT environment variable gates the same code in
// stock binaries — the CI A/B lane uses it on fig1/table1).
//
// With the path on, warmed reads and overwrites are a userspace memcpy
// guarded by the clerk's direct-access epoch: no lock RPC, no clerk mutex,
// no service involvement — so the span attribution pass should show the
// rpc layer's self-time collapse to noise.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/flatfs/flatfs.h"
#include "src/pxfs/pxfs.h"

namespace {

using namespace aerie;
using namespace aerie::bench;

constexpr uint64_t kPage = 4096;

struct PxfsRates {
  double read_ops = 0;
  double write_ops = 0;
  uint64_t direct_read_bytes = 0;
  uint64_t direct_write_bytes = 0;
};

PxfsRates MeasurePxfs(bool direct, int pages, double seconds) {
  auto sut = SystemUnderTest::Create(SutKind::kPxfs, DefaultSutOptions());
  BENCH_CHECK_OK(sut);
  auto client = (*sut)->aerie()->NewClient(LibFs::Options{});
  BENCH_CHECK_OK(client);
  Pxfs::Options options;
  options.direct_data = direct;
  Pxfs fs((*client)->fs(), options);

  BENCH_CHECK_STATUS(fs.Mkdir("/direct"));
  auto fd = fs.Open("/direct/data", kOpenCreate | kOpenRead | kOpenWrite);
  BENCH_CHECK_OK(fd);
  const std::string page(kPage, 'x');
  for (int p = 0; p < pages; ++p) {
    BENCH_CHECK_OK(
        fs.Pwrite(*fd, p * kPage, {page.data(), page.size()}));
  }
  BENCH_CHECK_STATUS(fs.SyncAll());

  PxfsRates rates;
  std::string buf(kPage, '\0');
  // Warm-up pass populates the extent-map cache (first read runs locked).
  for (int p = 0; p < pages; ++p) {
    BENCH_CHECK_OK(fs.Pread(*fd, p * kPage, {buf.data(), buf.size()}));
  }
  {
    Stopwatch sw;
    uint64_t ops = 0;
    while (sw.ElapsedSeconds() < seconds) {
      const uint64_t off = (ops % pages) * kPage;
      BENCH_CHECK_OK(fs.Pread(*fd, off, {buf.data(), buf.size()}));
      ops++;
    }
    rates.read_ops = static_cast<double>(ops) / sw.ElapsedSeconds();
  }
  {
    Stopwatch sw;
    uint64_t ops = 0;
    while (sw.ElapsedSeconds() < seconds) {
      // Stride the pages so consecutive overwrites don't share lines.
      const uint64_t off = ((ops * 7) % pages) * kPage;
      BENCH_CHECK_OK(fs.Pwrite(*fd, off, {page.data(), page.size()}));
      ops++;
    }
    rates.write_ops = static_cast<double>(ops) / sw.ElapsedSeconds();
  }
  rates.direct_read_bytes = (*client)->fs()->direct_read_bytes();
  rates.direct_write_bytes = (*client)->fs()->direct_write_bytes();
  BENCH_CHECK_STATUS(fs.Close(*fd));
  return rates;
}

double MeasureFlatGet(bool direct, int values, double seconds) {
  auto sut = SystemUnderTest::Create(SutKind::kFlatFs, DefaultSutOptions());
  BENCH_CHECK_OK(sut);
  auto client = (*sut)->aerie()->NewClient(LibFs::Options{});
  BENCH_CHECK_OK(client);
  FlatFs::Options options;
  options.direct_data = direct;
  FlatFs flat((*client)->fs(), options);

  const std::string value(kPage, 'v');
  for (int i = 0; i < values; ++i) {
    BENCH_CHECK_STATUS(
        flat.Put("obj" + std::to_string(i), {value.data(), value.size()}));
  }
  std::string buf(kPage, '\0');
  // Warm the value-location cache.
  for (int i = 0; i < values; ++i) {
    BENCH_CHECK_OK(
        flat.Get("obj" + std::to_string(i), {buf.data(), buf.size()}));
  }
  Stopwatch sw;
  uint64_t ops = 0;
  while (sw.ElapsedSeconds() < seconds) {
    BENCH_CHECK_OK(flat.Get("obj" + std::to_string(ops % values),
                            {buf.data(), buf.size()}));
    ops++;
  }
  return static_cast<double>(ops) / sw.ElapsedSeconds();
}

}  // namespace

int main() {
  const double scale = Scale();
  const double seconds = Seconds();
  const int pages = std::max(8, static_cast<int>(256 * scale));
  const int values = std::max(16, static_cast<int>(1024 * scale));

  std::printf("# Ablation: zero-RPC direct data path (4KB ops)\n");
  std::printf("# scale=%.3f, %gs per point, file=%d pages, %d flat values\n\n",
              scale, seconds, pages, values);
  std::printf("%-22s %14s %14s\n", "op", "direct off", "direct on");

  PxfsRates off = MeasurePxfs(false, pages, seconds);
  PxfsRates on = MeasurePxfs(true, pages, seconds);
  std::printf("%-22s %14.1f %14.1f\n", "seq_read ops/s", off.read_ops,
              on.read_ops);
  std::printf("%-22s %14.1f %14.1f\n", "aligned_overwrite ops/s",
              off.write_ops, on.write_ops);
  std::printf("%-22s %14llu %14llu\n", "direct bytes read",
              static_cast<unsigned long long>(off.direct_read_bytes),
              static_cast<unsigned long long>(on.direct_read_bytes));
  std::printf("%-22s %14llu %14llu\n", "direct bytes written",
              static_cast<unsigned long long>(off.direct_write_bytes),
              static_cast<unsigned long long>(on.direct_write_bytes));

  const double flat_off = MeasureFlatGet(false, values, seconds);
  const double flat_on = MeasureFlatGet(true, values, seconds);
  std::printf("%-22s %14.1f %14.1f\n", "flat_get ops/s", flat_off, flat_on);

  PrintProfileTop();
  return 0;
}
