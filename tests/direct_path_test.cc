// The direct-access epoch and the locked data path (DESIGN.md §10). Three
// layers:
//
//  * DirectPathTest.*: FlatFS gets served from the value cache stay
//    coherent, a second client's put of the same key bumps the direct epoch
//    and forces the locked path, and a concurrent get never observes a
//    torn value; a PXFS reader never observes a torn page while another
//    client overwrites it (the locked path's revoke/drain).
//  * DirectPathCrashTest.CleanSweep*: the crash simulator enumerates states
//    across an acknowledged PXFS in-place overwrite and across a
//    revoke-triggered batch ship on a shared directory; every image must
//    recover consistently.
//  * DirectPathCrashTest.Detects*: mutation mode — suppressing the PXFS
//    write's registered BFlush site must be caught by a page-bytes oracle
//    (acknowledged overwrites whose bytes never left the WC buffers).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/open_flags.h"
#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/osd/mfile.h"
#include "src/pxfs/pxfs.h"
#include "src/scm/crash_sim.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

constexpr uint64_t kPage = 4096;

LibFs::Options EagerClientOptions() {
  LibFs::Options options;
  options.eager_ship = true;
  options.flush_interval_ms = 0;
  options.pool_low_water = 4;
  options.pool_refill = 64;
  return options;
}

std::span<const char> Bytes(const std::string& s) {
  return std::span<const char>(s.data(), s.size());
}

// --- Functional -----------------------------------------------------------

class DirectPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 64ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    sys_ = std::move(*sys);
    auto client = sys_->NewClient(EagerClientOptions());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
    fs_ = std::make_unique<Pxfs>(client_->fs());
    ASSERT_TRUE(fs_->Mkdir("/d").ok());
  }

  // Creates `path` with `pages` pages of `fill` through the locked path.
  void MakeFile(const std::string& path, int pages, char fill) {
    auto fd = fs_->Open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    const std::string data(pages * kPage, fill);
    auto n = fs_->Write(*fd, Bytes(data));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, data.size());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }

  LibFs* libfs() { return client_->fs(); }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<Pxfs> fs_;
};

TEST_F(DirectPathTest, OptionsCanDisableTheDirectPath) {
  FlatFs::Options options;
  options.direct_data = false;
  FlatFs flat(client_->fs(), options);
  const std::string value(1024, 'z');
  ASSERT_TRUE(flat.Put("off", Bytes(value)).ok());
  const uint64_t reads = libfs()->direct_read_bytes();
  for (int i = 0; i < 2; ++i) {
    auto got = flat.Get("off");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
  EXPECT_EQ(libfs()->direct_read_bytes(), reads);
}

TEST_F(DirectPathTest, RevocationBumpsEpochAndForcesLockedPath) {
  FlatFs flat(client_->fs());
  const std::string v1(kPage, 'A');
  ASSERT_TRUE(flat.Put("k", Bytes(v1)).ok());
  // The put cached the value location: the get is direct.
  const uint64_t before = libfs()->direct_read_bytes();
  auto got = flat.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v1);
  ASSERT_EQ(libfs()->direct_read_bytes(), before + kPage);

  LockClerk* clerk = client_->fs()->clerk();
  const uint64_t epoch = clerk->direct_epoch();

  // A second client puts the same key: our cached bucket lock is revoked,
  // which must bump the direct epoch before the grant moves.
  auto client2 = sys_->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  FlatFs flat2((*client2)->fs());
  const std::string v2(kPage, 'B');
  ASSERT_TRUE(flat2.Put("k", Bytes(v2)).ok());

  EXPECT_GT(clerk->direct_epoch(), epoch);
  // A pin attempt against the pre-revoke epoch must be refused and counted.
  const uint64_t fallbacks = clerk->direct_fallbacks();
  EXPECT_FALSE(clerk->TryEnterDirect(epoch));
  EXPECT_EQ(clerk->direct_fallbacks(), fallbacks + 1);

  // Our next get re-acquires through the locked path and must see the other
  // client's value.
  const uint64_t locked = libfs()->direct_read_bytes();
  got = flat.Get("k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, v2);
  EXPECT_EQ(libfs()->direct_read_bytes(), locked);
  // ... and the value location re-warms under the new epoch.
  got = flat.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
  EXPECT_EQ(libfs()->direct_read_bytes(), locked + kPage);
}

// Runs `read` on a thread from before `write` starts until it is done;
// `read` returns false on a torn or failed read. Returns how many reads were
// torn (0 or 1).
template <typename Read, typename Write>
int TornReadsDuring(Read read, Write write) {
  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    do {
      if (!read()) {
        torn.fetch_add(1);
        break;
      }
      started.store(true);
    } while (!stop.load());
    started.store(true);
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  write();
  stop.store(true);
  reader.join();
  return torn.load();
}

// True if `buf` holds `size` bytes of one fill, 'A' or 'B'.
bool Uniform(const std::string& buf, uint64_t size) {
  const char c = buf[0];
  return (c == 'A' || c == 'B') &&
         std::string_view(buf.data(), size) == std::string(size, c);
}

// A reader hammering a page while another client overwrites it must never
// observe a torn page: each read holds the file's shared lock, and the
// writer's exclusive grant waits for the reader's revoke and drain before
// the first byte moves.
TEST_F(DirectPathTest, ConcurrentWriterNeverTearsPxfsReads) {
  MakeFile("/d/t", 1, 'A');
  auto fd = fs_->Open("/d/t", kOpenRead);
  ASSERT_TRUE(fd.ok());
  std::string buf(kPage, '\0');
  auto client2 = sys_->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  Pxfs fs2((*client2)->fs());
  auto fd2 = fs2.Open("/d/t", kOpenWrite);
  ASSERT_TRUE(fd2.ok());

  const int torn = TornReadsDuring(
      [&] {
        auto n = fs_->Pread(*fd, 0, std::span<char>(buf.data(), kPage));
        return n.ok() && *n == kPage && Uniform(buf, kPage);
      },
      [&] {
        for (int i = 0; i < 60; ++i) {
          const std::string page(kPage, (i % 2) ? 'A' : 'B');
          ASSERT_TRUE(fs2.Pwrite(*fd2, 0, Bytes(page)).ok());
        }
      });
  EXPECT_EQ(torn, 0);
  ASSERT_TRUE(fs2.Close(*fd2).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// The same for FlatFS gets served from the value cache while a second
// client keeps replacing the value: a direct get is epoch-pinned, and the
// put's grant cannot complete until in-flight pins retire, so a get never
// copies from storage the replacement recycled.
TEST_F(DirectPathTest, ConcurrentPutsNeverTearFlatFsGets) {
  FlatFs flat(client_->fs());
  ASSERT_TRUE(flat.Put("t", Bytes(std::string(kPage, 'A'))).ok());
  std::string buf(kPage, '\0');
  auto client2 = sys_->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  FlatFs flat2((*client2)->fs());

  const uint64_t direct = libfs()->direct_read_bytes();
  const int torn = TornReadsDuring(
      [&] {
        auto n = flat.Get("t", std::span<char>(buf.data(), kPage));
        return n.ok() && *n == kPage && Uniform(buf, kPage);
      },
      [&] {
        for (int i = 0; i < 60; ++i) {
          const std::string value(kPage, (i % 2) ? 'A' : 'B');
          ASSERT_TRUE(flat2.Put("t", Bytes(value)).ok());
        }
      });
  EXPECT_EQ(torn, 0);
  EXPECT_GT(libfs()->direct_read_bytes(), direct)
      << "no get took the direct path; the race was not exercised";
}

TEST_F(DirectPathTest, FlatFsGetsGoDirectAndStayCoherent) {
  FlatFs flat(client_->fs());
  const std::string v1(1024, 'p');
  ASSERT_TRUE(flat.Put("k", Bytes(v1)).ok());

  // Put caches the value location eagerly: the very first get is direct.
  const uint64_t before = libfs()->direct_read_bytes();
  auto got = flat.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v1);
  EXPECT_EQ(libfs()->direct_read_bytes(), before + v1.size());

  // Replacement points the key at a new file; the stale location must not
  // be served.
  const std::string v2(2048, 'q');
  ASSERT_TRUE(flat.Put("k", Bytes(v2)).ok());
  got = flat.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);

  ASSERT_TRUE(flat.Erase("k").ok());
  EXPECT_EQ(flat.Get("k").status().code(), ErrorCode::kNotFound);
}

// --- Crash simulation -----------------------------------------------------

constexpr uint64_t kCrashRegionBytes = 8ull << 20;

AerieSystem::Options SmallSystemOptions() {
  AerieSystem::Options options;
  options.region_bytes = kCrashRegionBytes;
  options.volume.log_bytes = 1ull << 20;
  // Enumerating hundreds of crash images makes every fence wall-clock slow:
  // a revoke-forced drain that ships a batch under the simulator can take
  // longer than the default 2s lease/wait budgets, so a loaded machine
  // either lapses the draining client's lease ("lease expired") or times
  // out the conflicting acquire ("lock wait timed out") — timing accidents,
  // not crash-consistency facts. Lease-lapse behaviour has its own
  // deterministic suite (lease_renewal_test); here both budgets outlive
  // any plausible sweep.
  options.lock.lease_ms = 10 * 60 * 1000;
  options.lock.wait_timeout_ms = 10 * 60 * 1000;
  return options;
}

std::string UniqueImagePath(const char* tag) {
  return ::testing::TempDir() + "/aerie_direct_crash_" + tag + ".img";
}

std::string PayloadFor(const std::string& path) { return "payload " + path; }

struct CrashRig {
  std::unique_ptr<AerieSystem> sys;
  std::unique_ptr<AerieSystem::Client> client;
  std::unique_ptr<Pxfs> fs;
  std::vector<std::string> durable;
};

CrashRig BootPrimedRig(const LibFs::Options& copts) {
  CrashRig t;
  auto sys = AerieSystem::Create(SmallSystemOptions());
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  t.sys = std::move(*sys);
  auto client = t.sys->NewClient(copts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  t.client = std::move(*client);
  t.fs = std::make_unique<Pxfs>(t.client->fs());
  EXPECT_TRUE(t.fs->Mkdir("/w").ok());
  t.durable.push_back("/w");
  return t;
}

// Reboot + recovery + fsck + acknowledged paths present with intact payload
// (same oracle as crash_sim_test's SystemChecker).
CrashSimulator::Checker RebootChecker(const std::vector<std::string>* durable) {
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

// Shared flow for the overwrite sweeps: prime a one-page file (its extent
// attach ships at once), attach the simulator (optionally suppressing a
// site), run an acknowledged in-place Pwrite overwrite through the locked
// path, and enumerate at an explicit post-ack point. The oracle reads the
// page bytes straight out of the crash image at the extent's region offset:
// once the overwrite has been acknowledged, an image whose page is not
// entirely the new fill proves the flush protocol lost acknowledged bytes.
void RunOverwriteSweep(const char* tag, const char* suppress_site,
                       bool expect_detect) {
  CrashRig t = BootPrimedRig(EagerClientOptions());
  ASSERT_TRUE(t.fs->Create("/w/f").ok());
  auto fd = t.fs->Open("/w/f", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string base(kPage, 'A');
  ASSERT_TRUE(t.fs->Pwrite(*fd, 0, Bytes(base)).ok());

  // Locate the page in the region so the oracle can read it raw.
  auto st = t.fs->Stat("/w/f");
  ASSERT_TRUE(st.ok());
  auto mfile = MFile::Open(t.client->fs()->read_context(), st->oid);
  ASSERT_TRUE(mfile.ok());
  auto extent = mfile->ExtentForPage(0);
  ASSERT_TRUE(extent.ok());
  const uint64_t page_off = *extent;

  auto acked = std::make_shared<std::atomic<bool>>(false);
  auto checker = [acked, page_off](const std::string& image_path) -> Status {
    if (!acked->load()) {
      return OkStatus();  // pre-ack tearing is legal: the app has no claim
    }
    std::ifstream in(image_path, std::ios::binary);
    if (!in) {
      return Status(ErrorCode::kIoError, "cannot open crash image");
    }
    in.seekg(static_cast<std::streamoff>(page_off));
    std::string page(kPage, '\0');
    in.read(page.data(), static_cast<std::streamsize>(kPage));
    if (!in) {
      return Status(ErrorCode::kIoError, "short read from crash image");
    }
    if (page != std::string(kPage, 'B')) {
      return Status(ErrorCode::kCorrupted, "acknowledged overwrite lost");
    }
    return OkStatus();
  };

  CrashSimOptions options;
  options.seed = 777;
  options.max_images = 300;
  options.random_draws_per_point = 3;
  options.stop_on_failure = expect_detect;
  options.image_path = UniqueImagePath(tag);
  options = CrashSimOptions::FromEnv(options);

  CrashSimulator sim(t.sys->scm_region(), options, checker);
  if (suppress_site != nullptr) {
    const int site = RegisterPersistSite(suppress_site);
    ASSERT_GE(site, 0);
    sim.SuppressSite(site);
  }

  auto n = t.fs->Pwrite(*fd, 0, Bytes(std::string(kPage, 'B')));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kPage);
  // The overwrite is acknowledged; from here on the page must be all-'B' in
  // every enumerated image.
  acked->store(true);
  t.sys->scm_region()->CrashPoint("test.overwrite.acked");
  // It was in place: the page still maps the extent the oracle reads.
  auto after = mfile->ExtentForPage(0);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(*after, page_off);

  if (expect_detect) {
    EXPECT_FALSE(sim.ok())
        << "suppressing " << suppress_site
        << " was not detected by any enumerated crash state\n"
        << sim.Report();
    std::fprintf(stderr, "detected %s:\n%s\n", suppress_site,
                 sim.Report().c_str());
  } else {
    EXPECT_TRUE(sim.ok()) << sim.Report();
    EXPECT_GT(sim.images_checked(), 0u);
  }
  ASSERT_TRUE(t.fs->Close(*fd).ok());
  ::unlink(options.image_path.c_str());
}

// With the BFlush in place, every enumerated state post-ack carries the
// acknowledged bytes.
TEST(DirectPathCrashTest, CleanSweepOverwriteIsDurableOnAck) {
  RunOverwriteSweep("clean", nullptr, /*expect_detect=*/false);
}

// Without it, the streamed page can sit in WC buffers while the app treats
// the write as done — the oracle must catch at least one such image.
TEST(DirectPathCrashTest, DetectsSuppressedPxfsWriteBFlush) {
  RunOverwriteSweep("mut_bflush", "pxfs.write.bflush",
                    /*expect_detect=*/true);
}

// Crash states enumerated while a revoke forces a lazy client to ship its
// batch (the drain path the direct epoch piggybacks on) must all recover:
// the ship itself is the txlog protocol, and acknowledged paths appear in
// `durable` only after the forced apply completes.
TEST(DirectPathCrashTest, CleanSweepCrashDuringRevokeShip) {
  LibFs::Options lazy;
  lazy.flush_interval_ms = 0;  // buffer until shipped by revoke or sync
  lazy.pool_low_water = 4;
  lazy.pool_refill = 64;
  CrashRig t = BootPrimedRig(lazy);
  // Ship the priming ops (the /w mkdir) so the simulator's budget is spent
  // on the revoke-forced drain, and so /w is applied before `durable`
  // promises it.
  ASSERT_TRUE(t.fs->SyncAll().ok());

  // Buffered (acknowledged-to-app but unshipped) creates under /w.
  ASSERT_TRUE(t.fs->Create("/w/s").ok());
  auto fd = t.fs->Open("/w/s", kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const std::string payload = PayloadFor("/w/s");
  ASSERT_TRUE(t.fs->Write(*fd, Bytes(payload)).ok());
  ASSERT_TRUE(t.fs->Close(*fd).ok());

  CrashSimOptions options;
  options.seed = 778;
  options.max_images = 300;
  options.random_draws_per_point = 3;
  options.stop_on_failure = false;
  options.image_path = UniqueImagePath("revoke");
  options = CrashSimOptions::FromEnv(options);
  CrashSimulator sim(t.sys->scm_region(), options, RebootChecker(&t.durable));

  // A second client creating in /w revokes the first client's directory
  // lock mid-enumeration: the drain ships the buffered batch (txlog commit
  // crash points), then the second client's own eager create applies.
  auto client2 = t.sys->NewClient(EagerClientOptions());
  ASSERT_TRUE(client2.ok());
  Pxfs fs2((*client2)->fs());
  auto fd2 = fs2.Open("/w/b", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
  const std::string payload2 = PayloadFor("/w/b");
  ASSERT_TRUE(fs2.Write(*fd2, Bytes(payload2)).ok());
  ASSERT_TRUE(fs2.Close(*fd2).ok());
  // Both clients' ops are applied now; later images must contain them.
  t.durable.push_back("/w/s");
  t.durable.push_back("/w/b");
  t.sys->scm_region()->CrashPoint("test.revoke_ship.acked");

  // The first client reads back through the post-revoke path.
  auto fd3 = t.fs->Open("/w/b", kOpenRead);
  ASSERT_TRUE(fd3.ok()) << fd3.status().ToString();
  char buf[128] = {};
  auto n = t.fs->Read(*fd3, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf, *n), payload2);
  ASSERT_TRUE(t.fs->Close(*fd3).ok());

  EXPECT_TRUE(sim.ok()) << sim.Report();
  EXPECT_GT(sim.images_checked(), 0u);
  ::unlink(options.image_path.c_str());
}

}  // namespace
}  // namespace aerie
