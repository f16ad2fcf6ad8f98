// Cache-line crash-state enumeration tests (ISSUE: persistence-ordering
// crash checker). Four layers:
//
//  * CrashSimTest.CleanSweep*: the full system runs a create/write workload
//    under the simulator; every enumerated crash image must reboot, recover,
//    pass fsck, and contain every acknowledged op (prefix semantics).
//  * CrashSimTest.RunAttach*: a 5-page append + Fsync, one page-run attach;
//    every image must hold the run whole or not at all, leak no pooled
//    extent, and keep the acknowledged append.
//  * CrashSimTest.FoldedAppends*: four 2-page appends buffered by libFS and
//    folded into one run and one kSetSize, then one Fsync; the same oracle,
//    so an image with an intermediate size fails it.
//  * CrashSimTest.RedoLog*: the redo log alone under the simulator, covering
//    the torn-truncate window, Rollback after a partial append, and the
//    kOutOfSpace apply+truncate boundary.
//  * CrashMutationTest.*: suppress one registered flush site (txlog commit
//    path, page-run attach) and require the checker to report corruption —
//    mutation testing of the checker itself (a checker that cannot see
//    injected bugs proves nothing by passing).
//
// The sweep honors AERIE_CRASH_SAMPLES / AERIE_CRASH_SEED (nightly CI knobs)
// via CrashSimOptions::FromEnv. A failure prints (seed, point, draw); replay
// it with CrashSimOptions::replay_point / replay_draw (see README).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/libfs/system.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"
#include "src/pxfs/pxfs.h"
#include "src/scm/crash_sim.h"
#include "src/tfs/fsck.h"
#include "src/txlog/redo_log.h"

namespace aerie {
namespace {

// --- Full-system harness --------------------------------------------------

constexpr uint64_t kRegionBytes = 8ull << 20;

AerieSystem::Options SmallSystemOptions() {
  AerieSystem::Options options;
  options.region_bytes = kRegionBytes;
  options.volume.log_bytes = 1ull << 20;
  return options;
}

LibFs::Options EagerClientOptions() {
  LibFs::Options options;
  options.eager_ship = true;      // every op round-trips before returning
  options.flush_interval_ms = 0;  // no background flusher thread
  options.pool_low_water = 4;
  options.pool_refill = 64;
  return options;
}

// Ops wait in the batch until a sync ships them, so appends fold.
LibFs::Options BufferedClientOptions() {
  LibFs::Options options = EagerClientOptions();
  options.eager_ship = false;
  return options;
}

// Paths with varying name lengths so record sizes differ batch to batch —
// a stale commit pointer then lands mid-record instead of on a boundary.
std::vector<std::string> MakePaths(int n) {
  std::vector<std::string> paths;
  for (int i = 0; i < n; ++i) {
    std::string name(1 + (i * 7) % 23, static_cast<char>('a' + i % 26));
    paths.push_back("/w/" + std::to_string(i) + "_" + name);
  }
  return paths;
}

std::string PayloadFor(const std::string& path) { return "payload " + path; }

// Reboots an independent AerieSystem on the crash image, requires recovery +
// fsck to succeed and every acknowledged op to be present and intact.
// `durable` is captured by pointer: the workload appends each path after its
// ops are acknowledged, and the single eager-ship client is blocked inside
// the shipping RPC whenever the simulator (and thus this checker) runs.
CrashSimulator::Checker SystemChecker(const std::vector<std::string>* durable) {
  return [durable](const std::string& image_path) -> Status {
    AerieSystem::Options options = SmallSystemOptions();
    options.region_path = image_path;
    options.fresh = false;
    auto sys = AerieSystem::Create(options);
    if (!sys.ok()) {
      return Status(ErrorCode::kCorrupted,
                    "reboot/recovery failed: " + sys.status().ToString());
    }
    auto report = RunFsck((*sys)->volume());
    if (!report.ok()) {
      return report.status();
    }
    if (!report->ok()) {
      return Status(ErrorCode::kCorrupted, "fsck: " + report->Summary());
    }
    auto client = (*sys)->NewClient();
    if (!client.ok()) {
      return client.status();
    }
    Pxfs fs((*client)->fs());
    for (const auto& path : *durable) {
      auto st = fs.Stat(path);
      if (!st.ok()) {
        return Status(ErrorCode::kCorrupted,
                      "acknowledged path missing: " + path);
      }
      if (st->is_dir) {
        continue;
      }
      const std::string want = PayloadFor(path);
      auto fd = fs.Open(path, kOpenRead);
      if (!fd.ok()) {
        return fd.status();
      }
      char buf[128] = {};
      auto n = fs.Read(*fd, std::span<char>(buf, sizeof(buf)));
      Status close = fs.Close(*fd);
      if (!n.ok()) {
        return n.status();
      }
      if (!close.ok()) {
        return close;
      }
      if (std::string_view(buf, *n) != want) {
        return Status(ErrorCode::kCorrupted,
                      "acknowledged content damaged: " + path);
      }
    }
    return OkStatus();
  };
}

struct SystemUnderTest {
  std::unique_ptr<AerieSystem> sys;
  std::unique_ptr<AerieSystem::Client> client;
  std::unique_ptr<Pxfs> fs;
  std::vector<std::string> durable;
};

// Boots a fresh system and primes it (client pools granted, /w created and
// shipped) so a simulator attached afterwards spends its image budget on
// the create/write protocol rather than on connection bootstrap.
SystemUnderTest BootPrimedSystem(
    const LibFs::Options& client_options = EagerClientOptions()) {
  SystemUnderTest t;
  auto sys = AerieSystem::Create(SmallSystemOptions());
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  t.sys = std::move(*sys);
  auto client = t.sys->NewClient(client_options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  t.client = std::move(*client);
  t.fs = std::make_unique<Pxfs>(t.client->fs());
  EXPECT_TRUE(t.fs->Mkdir("/w").ok());
  t.durable.push_back("/w");
  // Trigger the initial pool refill before the simulator attaches.
  EXPECT_TRUE(t.fs->Create("/w/prime").ok());
  const std::string data = PayloadFor("/w/prime");
  auto fd = t.fs->Open("/w/prime", kOpenWrite);
  EXPECT_TRUE(fd.ok());
  EXPECT_TRUE(t.fs->Write(*fd, std::span<const char>(data.data(),
                                                     data.size()))
                  .ok());
  EXPECT_TRUE(t.fs->Close(*fd).ok());
  EXPECT_TRUE(t.fs->SyncAll().ok());
  t.durable.push_back("/w/prime");
  return t;
}

// Create + write + close each path, recording it as durable once all its
// ops have been acknowledged by the TFS.
void RunWorkload(SystemUnderTest* t, const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    auto fd = t->fs->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
    const std::string data = PayloadFor(path);
    ASSERT_TRUE(
        t->fs->Write(*fd, std::span<const char>(data.data(), data.size()))
            .ok())
        << path;
    ASSERT_TRUE(t->fs->Close(*fd).ok()) << path;
    t->durable.push_back(path);
  }
}

std::string UniqueImagePath(const char* tag) {
  return ::testing::TempDir() + "/aerie_crash_" + tag + ".img";
}

// --- Registry -------------------------------------------------------------

TEST(CrashSimTest, PersistSiteRegistryAssignsStableIds) {
  auto& reg = PersistSiteRegistry::Instance();
  const int a = reg.Register("test.site.alpha");
  const int b = reg.Register("test.site.beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.Register("test.site.alpha"));  // idempotent by name
  EXPECT_EQ(a, reg.Find("test.site.alpha"));
  EXPECT_EQ(reg.Name(a), "test.site.alpha");
  EXPECT_EQ(reg.Find("test.site.never.registered"), -1);
  EXPECT_EQ(reg.Name(-1), "");
}

// --- Clean sweep ----------------------------------------------------------

// The acceptance sweep: 500 crash images over the create/write protocol,
// every one of which must recover to a consistent, prefix-correct volume.
TEST(CrashSimTest, CleanSweepRecoversEveryEnumeratedState) {
  SystemUnderTest t = BootPrimedSystem();

  CrashSimOptions options;
  options.seed = 20260807;
  options.max_images = 500;
  options.random_draws_per_point = 2;
  options.stop_on_failure = false;  // report every inconsistent state
  options.image_path = UniqueImagePath("sweep");
  options = CrashSimOptions::FromEnv(options);

  {
    CrashSimulator sim(t.sys->scm_region(), options,
                       SystemChecker(&t.durable));
    RunWorkload(&t, MakePaths(10));
    EXPECT_TRUE(sim.ok()) << sim.Report();
    // The workload yields ~125 interest points; a reduced AERIE_CRASH_SAMPLES
    // budget caps the image count instead.
    EXPECT_GE(sim.images_checked(),
              std::min<uint64_t>(50, static_cast<uint64_t>(options.max_images)))
        << sim.Report();
    std::fprintf(stderr, "%s\n", sim.Report().c_str());
  }
  // The primary system never saw a crash; it must still be healthy.
  ASSERT_TRUE(t.fs->SyncAll().ok());
  auto report = RunFsck(t.sys->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  ::unlink(options.image_path.c_str());
}

// --- Determinism / replay -------------------------------------------------

// Image hashes keyed by enumeration order; used to prove (seed, point, draw)
// replays the exact image bytes.
CrashSimulator::Checker HashingChecker(std::vector<uint64_t>* hashes) {
  return [hashes](const std::string& image_path) -> Status {
    FILE* f = std::fopen(image_path.c_str(), "rb");
    if (f == nullptr) {
      return Status(ErrorCode::kIoError, "image open failed");
    }
    std::string bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
    hashes->push_back(HashBytes(bytes.data(), bytes.size()));
    return OkStatus();
  };
}

// A small deterministic redo-log workload used by the determinism and
// edge-case tests: records with type-derived payloads on a tiny region.
std::string RecordPayload(uint32_t type) {
  return std::string(1 + type % 29, static_cast<char>('A' + type % 26));
}

TEST(CrashSimTest, SeedPointDrawReplaysTheExactImage) {
  const std::string image = UniqueImagePath("replay");
  CrashSimOptions base;
  base.seed = 77;
  base.random_draws_per_point = 3;
  base.max_images = 200;
  base.image_path = image;

  auto run = [&](const CrashSimOptions& options,
                 std::vector<uint64_t>* hashes) {
    auto region = ScmRegion::CreateAnonymous(64 << 10);
    ASSERT_TRUE(region.ok());
    auto log = RedoLog::Format(region->get(), 0, 4096);
    ASSERT_TRUE(log.ok());
    CrashSimulator sim(region->get(), options, HashingChecker(hashes));
    for (uint32_t type = 0; type < 6; ++type) {
      const std::string payload = RecordPayload(type);
      ASSERT_TRUE(log->Append(type, {payload.data(), payload.size()}).ok());
      ASSERT_TRUE(log->Commit().ok());
    }
    log->Truncate();
    EXPECT_TRUE(sim.ok()) << sim.Report();
  };

  std::vector<uint64_t> first, second;
  run(base, &first);
  run(base, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed, same workload, different images";

  // Replay one (point, draw) pair; with stride 1 and an ample budget the
  // enumeration order is point * draws_per_point + draw.
  const int draws_per_point = 2 + base.random_draws_per_point;
  const int64_t point = static_cast<int64_t>(first.size()) /
                        draws_per_point / 2;  // some mid-workload point
  const int draw = draws_per_point - 1;       // a seeded random draw
  CrashSimOptions replay = base;
  replay.replay_point = point;
  replay.replay_draw = draw;
  std::vector<uint64_t> replayed;
  run(replay, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], first[static_cast<size_t>(point) * draws_per_point +
                               draw]);
  ::unlink(image.c_str());
}

// --- Redo-log edge cases under the simulator ------------------------------

// Shared oracle: reopen the image, replay, and require every record to be
// intact (payload matches its type) with strictly increasing types and none
// drawn from `forbidden` (rolled-back appends must never replay).
CrashSimulator::Checker RedoLogChecker(std::vector<uint32_t> forbidden) {
  return [forbidden](const std::string& image_path) -> Status {
    auto region = ScmRegion::OpenFileBacked(image_path, 64 << 10);
    if (!region.ok()) {
      return region.status();
    }
    auto log = RedoLog::Open(region->get(), 0);
    if (!log.ok()) {
      return log.status();
    }
    int64_t last_type = -1;
    return log->Replay([&](uint32_t type,
                           std::span<const char> payload) -> Status {
      for (uint32_t bad : forbidden) {
        if (type == bad) {
          return Status(ErrorCode::kCorrupted,
                        "rolled-back record replayed: type " +
                            std::to_string(type));
        }
      }
      if (static_cast<int64_t>(type) <= last_type) {
        return Status(ErrorCode::kCorrupted, "record order corrupted");
      }
      last_type = type;
      const std::string want = RecordPayload(type);
      if (std::string_view(payload.data(), payload.size()) != want) {
        return Status(ErrorCode::kCorrupted,
                      "record payload corrupted: type " +
                          std::to_string(type));
      }
      return OkStatus();
    });
  };
}

struct RawLogFixture {
  std::unique_ptr<ScmRegion> region;
  std::optional<RedoLog> log;
};

RawLogFixture MakeRawLog(uint64_t log_bytes = 4096) {
  RawLogFixture f;
  auto region = ScmRegion::CreateAnonymous(64 << 10);
  EXPECT_TRUE(region.ok());
  f.region = std::move(*region);
  auto log = RedoLog::Format(f.region.get(), 0, log_bytes);
  EXPECT_TRUE(log.ok());
  f.log.emplace(std::move(*log));
  return f;
}

// Truncate publishes head=0 while stale record bytes still follow; the next
// batch then streams fresh bytes over them. No enumerated state may replay
// a mix of the two generations.
TEST(CrashSimTest, RedoLogTornTruncateWindowIsSafe) {
  RawLogFixture f = MakeRawLog();
  CrashSimOptions options;
  options.seed = 31;
  options.random_draws_per_point = 3;
  options.max_images = 400;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("torn_truncate");
  CrashSimulator sim(f.region.get(), options, RedoLogChecker({}));

  uint32_t type = 0;
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 2; ++i, ++type) {
      const std::string payload = RecordPayload(type);
      ASSERT_TRUE(
          f.log->Append(type, {payload.data(), payload.size()}).ok());
    }
    ASSERT_TRUE(f.log->Commit().ok());
    f.log->Truncate();
  }
  EXPECT_TRUE(sim.ok()) << sim.Report();
  EXPECT_GT(sim.images_checked(), 0u);
  ::unlink(options.image_path.c_str());
}

// A record appended but rolled back (failed batch) must never replay, even
// though its bytes may linger in the record area across any crash state.
TEST(CrashSimTest, RedoLogRollbackAfterPartialAppendNeverReplays) {
  RawLogFixture f = MakeRawLog();
  constexpr uint32_t kAbandoned = 7;
  CrashSimOptions options;
  options.seed = 32;
  options.random_draws_per_point = 3;
  options.max_images = 400;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("rollback");
  CrashSimulator sim(f.region.get(), options, RedoLogChecker({kAbandoned}));

  std::string payload = RecordPayload(3);
  ASSERT_TRUE(f.log->Append(3, {payload.data(), payload.size()}).ok());
  ASSERT_TRUE(f.log->Commit().ok());
  // A batch that fails mid-append: its record is abandoned via Rollback.
  payload = RecordPayload(kAbandoned);
  ASSERT_TRUE(
      f.log->Append(kAbandoned, {payload.data(), payload.size()}).ok());
  f.log->Rollback();
  // The retry appends different (shorter) records over the abandoned bytes.
  payload = RecordPayload(8);
  ASSERT_TRUE(f.log->Append(8, {payload.data(), payload.size()}).ok());
  ASSERT_TRUE(f.log->Commit().ok());
  EXPECT_TRUE(sim.ok()) << sim.Report();
  ::unlink(options.image_path.c_str());
}

// The service's kOutOfSpace path: Rollback the failed append, checkpoint
// (Truncate), and retry. Every crash state across the boundary must replay
// cleanly.
TEST(CrashSimTest, RedoLogOutOfSpaceTruncateBoundaryIsSafe) {
  RawLogFixture f = MakeRawLog(/*log_bytes=*/512);
  CrashSimOptions options;
  options.seed = 33;
  options.random_draws_per_point = 3;
  options.max_images = 500;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("oos");
  CrashSimulator sim(f.region.get(), options, RedoLogChecker({}));

  int truncations = 0;
  for (uint32_t type = 0; type < 72; ++type) {
    const std::string payload = RecordPayload(type);
    Status st = f.log->Append(type, {payload.data(), payload.size()});
    if (st.code() == ErrorCode::kOutOfSpace) {
      // Mirror TrustedFsService::ApplyBatch: drop the partial append,
      // checkpoint the applied records, retry once.
      f.log->Rollback();
      f.log->Truncate();
      truncations++;
      st = f.log->Append(type, {payload.data(), payload.size()});
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(f.log->Commit().ok());
  }
  ASSERT_GT(truncations, 2) << "log too large to exercise the boundary";
  EXPECT_TRUE(sim.ok()) << sim.Report();
  ::unlink(options.image_path.c_str());
}

// --- Page-run attach ------------------------------------------------------

// Appends to a new, empty file at `path`: `pieces` equal writes of `pages`
// pages in all, then one Fsync. A 5-page append is one kAttachExtent run
// (plus kSetSize); so are back-to-back appends that libFS folds. Whatever
// fence the crash lands on, recovery must see the run whole or not at all,
// the old size or the final one, no pooled extent leaked and the
// acknowledged appends intact.
struct AppendRun {
  const char* path;
  uint64_t pages;
  uint64_t pieces;

  std::string Payload() const {
    std::string data(pages * kScmPageSize, '\0');
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<char>('a' + (i / kScmPageSize) * 3 + i % 3);
    }
    return data;
  }
};

constexpr AppendRun kOneRun{"/w/run", 5, 1};
constexpr AppendRun kFoldedRun{"/w/folded", 8, 4};

// Extents in the client's persistent pool table: the candidates the run
// takes its extents from.
std::vector<uint64_t> PooledExtents(AerieSystem* sys, uint64_t client_id) {
  std::vector<uint64_t> out;
  const OsdContext ctx = sys->volume()->context();
  auto system = Collection::Open(ctx, sys->volume()->root_oid());
  EXPECT_TRUE(system.ok());
  auto pools = Collection::Open(ctx, Oid(*system->Lookup("pools")));
  EXPECT_TRUE(pools.ok());
  const std::string key(reinterpret_cast<const char*>(&client_id),
                        sizeof(client_id));
  auto table = Collection::Open(ctx, Oid(*pools->Lookup(key)));
  EXPECT_TRUE(table.ok());
  (void)table->Scan([&](std::string_view, uint64_t raw) {
    if (Oid(raw).type() == ObjType::kExtent) {
      out.push_back(Oid(raw).offset());
    }
    return true;
  });
  return out;
}

CrashSimulator::Checker RunAttachChecker(const AppendRun& run,
                                         const std::vector<uint64_t>* pooled,
                                         const bool* acked) {
  return [run, pooled, acked](const std::string& image_path) -> Status {
    auto corrupted = [](const std::string& msg) {
      return Status(ErrorCode::kCorrupted, msg);
    };
    AerieSystem::Options options = SmallSystemOptions();
    options.region_path = image_path;
    options.fresh = false;
    auto sys = AerieSystem::Create(options);
    if (!sys.ok()) {
      return corrupted("reboot/recovery failed: " + sys.status().ToString());
    }
    auto report = RunFsck((*sys)->volume());
    if (!report.ok()) {
      return report.status();
    }
    if (!report->ok()) {
      return corrupted("fsck: " + report->Summary());
    }
    auto client = (*sys)->NewClient();
    if (!client.ok()) {
      return client.status();
    }
    Pxfs fs((*client)->fs());
    auto st = fs.Stat(run.path);
    if (!st.ok()) {
      return corrupted("file created before the append is missing");
    }
    const OsdContext ctx = (*sys)->volume()->context();
    auto file = MFile::Open(ctx, st->oid);
    if (!file.ok()) {
      return file.status();
    }
    std::set<uint64_t> mapped;
    (void)file->ForEachExtent([&](uint64_t, uint64_t extent) {
      mapped.insert(extent);
      return true;
    });
    if (!mapped.empty() && mapped.size() != run.pages) {
      return corrupted("run partially attached: " +
                       std::to_string(mapped.size()) + " pages");
    }
    // Prefix oracle: kSetSize follows the run, and Fsync acknowledged both.
    const std::string want = run.Payload();
    if (st->size != 0 && st->size != want.size()) {
      return corrupted("torn size " + std::to_string(st->size));
    }
    if (st->size == want.size() && mapped.size() != run.pages) {
      return corrupted("size covers pages the run never attached");
    }
    if (*acked && st->size != want.size()) {
      return corrupted("acknowledged append lost");
    }
    if (st->size == want.size()) {
      auto fd = fs.Open(run.path, kOpenRead);
      if (!fd.ok()) {
        return fd.status();
      }
      std::string got(want.size(), '\0');
      auto n = fs.Read(*fd, std::span<char>(got.data(), got.size()));
      (void)fs.Close(*fd);
      if (!n.ok() || got != want) {
        return corrupted("appended content damaged");
      }
    }
    // No leak: recovery frees what is still pooled, so every pooled extent
    // is either mapped by the run or free again.
    const std::set<uint64_t> candidates(pooled->begin(), pooled->end());
    for (uint64_t extent : mapped) {
      if (candidates.count(extent) == 0) {
        return corrupted("run mapped an extent it never pooled");
      }
    }
    for (uint64_t extent : candidates) {
      if ((mapped.count(extent) != 0) != ctx.alloc->IsAllocated(extent)) {
        return corrupted(mapped.count(extent) != 0
                             ? "mapped extent is free"
                             : "pooled extent leaked");
      }
    }
    return OkStatus();
  };
}

struct SimOutcome {
  bool ok = false;
  uint64_t images = 0;
  uint64_t budget = 0;  // max_images
  std::string report;
};

// Enumerates crash images at every fence of `run`'s appends + Fsync, with
// the persist site `suppress` (null: none) made to never happen.
SimOutcome RunAttachUnderSim(SystemUnderTest* t, const AppendRun& run,
                             const char* tag, const char* suppress) {
  auto fd = t->fs->Open(run.path, kOpenCreate | kOpenWrite);
  EXPECT_TRUE(fd.ok());
  EXPECT_TRUE(t->fs->SyncAll().ok());  // the create ships before the sim
  const std::vector<uint64_t> pooled =
      PooledExtents(t->sys.get(), t->client->id());
  EXPECT_GE(pooled.size(), run.pages);
  bool acked = false;

  CrashSimOptions options;
  options.seed = 5150;
  options.max_images = 600;
  options.random_draws_per_point = 3;
  options.stop_on_failure = suppress != nullptr;
  options.image_path = UniqueImagePath(tag);
  if (suppress == nullptr) {
    options = CrashSimOptions::FromEnv(options);  // nightly seed and budget
  }
  SimOutcome outcome;
  {
    CrashSimulator sim(t->sys->scm_region(), options,
                       RunAttachChecker(run, &pooled, &acked));
    if (suppress != nullptr) {
      sim.SuppressSite(RegisterPersistSite(suppress));
    }
    const std::string data = run.Payload();
    const uint64_t piece = data.size() / run.pieces;
    for (uint64_t off = 0; off < data.size(); off += piece) {
      EXPECT_TRUE(
          t->fs->Write(*fd, std::span<const char>(data.data() + off, piece))
              .ok());
    }
    EXPECT_TRUE(t->fs->Fsync(*fd).ok());
    acked = true;
    outcome = {sim.ok(), sim.images_checked(),
               static_cast<uint64_t>(options.max_images), sim.Report()};
  }
  EXPECT_TRUE(t->fs->Close(*fd).ok());
  ::unlink(options.image_path.c_str());
  return outcome;
}

TEST(CrashSimTest, RunAttachIsAllOrNothingAtEveryFence) {
  SystemUnderTest t = BootPrimedSystem();
  const SimOutcome sim = RunAttachUnderSim(&t, kOneRun, "run_attach", nullptr);
  EXPECT_TRUE(sim.ok) << sim.report;
  // About 20 fences, 5 images each; a smaller budget caps the count.
  EXPECT_GE(sim.images, std::min<uint64_t>(50, sim.budget)) << sim.report;
  std::fprintf(stderr, "%s\n", sim.report.c_str());
}

// Four appends wait in the batch and ship on one Fsync. Unfolded they are
// eight ops, four commits of which publish an intermediate size; folded
// they are one run and one kSetSize, so every image holds the old size or
// the final one.
TEST(CrashSimTest, FoldedAppendsAreAllOrNothingAtEveryFence) {
  SystemUnderTest t = BootPrimedSystem(BufferedClientOptions());
  const SimOutcome sim =
      RunAttachUnderSim(&t, kFoldedRun, "folded_appends", nullptr);
  EXPECT_TRUE(sim.ok) << sim.report;
  EXPECT_GE(sim.images, std::min<uint64_t>(50, sim.budget)) << sim.report;
  std::fprintf(stderr, "%s\n", sim.report.c_str());
}

// --- Mutation mode --------------------------------------------------------

// Suppresses one registered persistence site in the txlog commit path and
// requires the checker to catch the resulting ordering bug.
void RunMutation(const char* site_name, const char* tag, int files) {
  SystemUnderTest t = BootPrimedSystem();
  // Registering here is idempotent with the call-site registration (the
  // registry dedups by name), so the id is available even before the first
  // commit executes.
  const int site = RegisterPersistSite(site_name);
  ASSERT_GE(site, 0);

  CrashSimOptions options;
  options.seed = 4242;
  options.max_images = 600;
  options.random_draws_per_point = 3;
  options.stop_on_failure = true;  // first corrupt image proves detection
  options.image_path = UniqueImagePath(tag);

  CrashSimulator sim(t.sys->scm_region(), options, SystemChecker(&t.durable));
  sim.SuppressSite(site);
  RunWorkload(&t, MakePaths(files));
  EXPECT_FALSE(sim.ok())
      << "suppressing " << site_name
      << " was not detected by any of the enumerated crash states\n"
      << sim.Report();
  std::fprintf(stderr, "detected %s:\n%s\n", site_name,
               sim.Report().c_str());
  ::unlink(options.image_path.c_str());
}

// Without the pre-publish BFlush the commit pointer can cover record bytes
// that never left the WC buffers.
TEST(CrashMutationTest, DetectsSuppressedCommitBFlush) {
  RunMutation("txlog.commit.bflush", "mut_bflush", 4);
}

// Without the commit-pointer flush a crash mid-apply has no committed
// record to replay: the in-place apply is torn with no redo.
TEST(CrashMutationTest, DetectsSuppressedCommitPublishFlush) {
  RunMutation("txlog.commit.publish.flush", "mut_publish", 4);
}

// Without the run's leaf-slot flush the slots are never durable: once the
// log is checkpointed a crash unmaps acknowledged pages and leaks their
// extents.
TEST(CrashMutationTest, DetectsSuppressedAttachRunFlush) {
  SystemUnderTest t = BootPrimedSystem();
  const SimOutcome sim =
      RunAttachUnderSim(&t, kOneRun, "mut_attach", "mfile.attach.flush");
  EXPECT_FALSE(sim.ok) << "suppressing mfile.attach.flush was not detected\n"
                       << sim.report;
  std::fprintf(stderr, "detected mfile.attach.flush:\n%s\n",
               sim.report.c_str());
}

// Without the truncate flush the stale (larger) head survives a checkpoint
// and covers a mix of fresh and stale record bytes on the next batch.
TEST(CrashMutationTest, DetectsSuppressedTruncatePublishFlush) {
  RunMutation("txlog.truncate.publish.flush", "mut_truncate", 8);
}

}  // namespace
}  // namespace aerie
