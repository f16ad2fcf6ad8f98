// google-benchmark microbenchmarks for Aerie's substrate primitives:
// collection insert/lookup, mFile read/write paths, lock clerk fast paths,
// PXFS path resolution, persistence primitives, OID encoding. These
// calibrate the building blocks the table/figure harnesses compose.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/hash.h"
#include "src/libfs/system.h"
#include "src/lock/clerk.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"
#include "src/osd/volume.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

struct VolumeFixture {
  VolumeFixture() {
    auto r = ScmRegion::CreateAnonymous(512ull << 20);
    region = std::move(*r);
    auto v = Volume::Format(region.get(), 0, region->size());
    volume = std::move(*v);
  }
  std::unique_ptr<ScmRegion> region;
  std::unique_ptr<Volume> volume;
};

VolumeFixture* Fixture() {
  static VolumeFixture* fixture = new VolumeFixture();
  return fixture;
}

void BM_PersistU64(benchmark::State& state) {
  auto* fx = Fixture();
  auto* slot = reinterpret_cast<uint64_t*>(
      fx->region->PtrAt(fx->region->size() - kScmPageSize));
  uint64_t v = 0;
  for (auto _ : state) {
    fx->region->PersistU64(slot, ++v);
  }
}
BENCHMARK(BM_PersistU64);

// WlFlush + Fence of state.range(0) dirty cache lines: /1 is one line, /64
// a 4 KB page. The cost follows ScmRegion::flush_instruction().
void BM_WlFlushFence(benchmark::State& state) {
  auto* fx = Fixture();
  char* dst = fx->region->PtrAt(fx->region->size() - 3 * kScmPageSize);
  const size_t len = static_cast<size_t>(state.range(0)) * kCacheLineSize;
  char v = 0;
  for (auto _ : state) {
    for (size_t off = 0; off < len; off += kCacheLineSize) {
      dst[off] = ++v;  // dirty every line so each write-back has work
    }
    fx->region->WlFlush(dst, len);
    fx->region->Fence();
  }
  state.SetLabel(ScmRegion::flush_instruction());
}
BENCHMARK(BM_WlFlushFence)->Arg(1)->Arg(64);

void BM_StreamWriteBFlush4K(benchmark::State& state) {
  auto* fx = Fixture();
  char* dst = fx->region->PtrAt(fx->region->size() - 2 * kScmPageSize);
  std::string src(4096, 'x');
  for (auto _ : state) {
    fx->region->StreamWrite(dst, src.data(), src.size());
    fx->region->BFlush();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StreamWriteBFlush4K);

void BM_CollectionInsert(benchmark::State& state) {
  auto* fx = Fixture();
  auto coll = Collection::Create(fx->volume->context(), 0);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t key = i++;
    benchmark::DoNotOptimize(
        coll->Insert("key" + std::to_string(key), key).ok());
  }
}
BENCHMARK(BM_CollectionInsert);

void BM_CollectionLookup(benchmark::State& state) {
  auto* fx = Fixture();
  auto coll = Collection::Create(fx->volume->context(), 0);
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    (void)coll->Insert("key" + std::to_string(i), static_cast<uint64_t>(i));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll->Lookup("key" + std::to_string(i++ % static_cast<uint64_t>(n))));
  }
}
BENCHMARK(BM_CollectionLookup)->Arg(100)->Arg(10000);

void BM_MFileRead4K(benchmark::State& state) {
  auto* fx = Fixture();
  OsdContext ctx = fx->volume->context();
  auto file = MFile::Create(ctx, 0);
  std::vector<uint64_t> extents;
  for (uint64_t p = 0; p < 64; ++p) {
    extents.push_back(*ctx.alloc->Alloc(0));
  }
  (void)file->AttachExtents(0, extents);
  (void)file->SetSize(64 * kScmPageSize);
  std::string buf(4096, '\0');
  uint64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        file->Read((p++ % 64) * kScmPageSize,
                   std::span<char>(buf.data(), buf.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MFileRead4K);

void BM_OidEncodeDecode(benchmark::State& state) {
  uint64_t offset = 64;
  for (auto _ : state) {
    const Oid oid = Oid::Make(ObjType::kMFile, offset);
    benchmark::DoNotOptimize(oid.offset() + static_cast<uint64_t>(oid.type()));
    offset += 64;
  }
}
BENCHMARK(BM_OidEncodeDecode);

void BM_HashPathComponent(benchmark::State& state) {
  std::string name = "some_file_name_component.txt";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashString(name));
  }
}
BENCHMARK(BM_HashPathComponent);

// Lock clerk: cached reacquisition (the PXFS hot path after warm-up).
class DirectLockClient : public LockServiceClient {
 public:
  DirectLockClient(LockService* service, uint64_t id)
      : service_(service), id_(id) {}
  Status Acquire(LockId id, LockMode mode, bool wait) override {
    return service_->Acquire(id_, id, mode, wait);
  }
  Status Release(LockId id) override { return service_->Release(id_, id); }
  Status Downgrade(LockId id, LockMode to) override {
    return service_->Downgrade(id_, id, to);
  }
  Status Renew() override { return service_->Renew(id_); }

 private:
  LockService* service_;
  uint64_t id_;
};

void BM_ClerkCachedAcquireRelease(benchmark::State& state) {
  LockService service;
  DirectLockClient stub(&service, 1);
  LockClerk clerk(&stub);
  service.RegisterClient(1, &clerk);
  (void)clerk.Acquire(42, LockMode::kShared);
  clerk.Release(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clerk.Acquire(42, LockMode::kShared).ok());
    clerk.Release(42);
  }
}
BENCHMARK(BM_ClerkCachedAcquireRelease);

void BM_ClerkHierarchicalLocalGrant(benchmark::State& state) {
  LockService service;
  DirectLockClient stub(&service, 1);
  LockClerk clerk(&stub);
  service.RegisterClient(1, &clerk);
  (void)clerk.Acquire(10, LockMode::kExclusiveHier);
  clerk.Release(10);
  const LockId ancestors[] = {10};
  uint64_t child = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clerk.Acquire(child, LockMode::kExclusive, ancestors).ok());
    clerk.Release(child);
    child = 1000 + (child - 999) % 64;
  }
}
BENCHMARK(BM_ClerkHierarchicalLocalGrant);

// PXFS path resolution at depth 5 (/a/b/c/d/<leaf>), through Stat:
//   hit                a cached file (resolve, then the file's read lock);
//   miss_cached_parent a missing leaf under a cached directory: one lookup;
//   cold               the same leaf with the name cache flushed first: a
//                      walk of five directories that refills four prefixes.
enum ResolveCase { kResolveHit, kResolveMissCachedParent, kResolveCold };

void BM_PxfsResolve(benchmark::State& state, ResolveCase which) {
  AerieSystem::Options options;
  options.region_bytes = 64ull << 20;
  auto sys = AerieSystem::Create(options);
  auto client = (*sys)->NewClient();
  Pxfs fs((*client)->fs());
  std::string dir;
  for (const char* name : {"/a", "/b", "/c", "/d"}) {
    dir += name;
    (void)fs.Mkdir(dir);
  }
  (void)fs.Create(dir + "/f");
  (void)fs.SyncAll();
  const std::string path = dir + (which == kResolveHit ? "/f" : "/missing");
  (void)fs.Stat(dir + "/f");  // warms the cache and the clerk's locks
  for (auto _ : state) {
    if (which == kResolveCold) {
      fs.FlushNameCache();
    }
    benchmark::DoNotOptimize(fs.Stat(path).ok());
  }
}
BENCHMARK_CAPTURE(BM_PxfsResolve, hit, kResolveHit);
BENCHMARK_CAPTURE(BM_PxfsResolve, miss_cached_parent,
                  kResolveMissCachedParent);
BENCHMARK_CAPTURE(BM_PxfsResolve, cold, kResolveCold);

}  // namespace
}  // namespace aerie

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  aerie::bench::PrintProfileTop();
  return 0;
}
