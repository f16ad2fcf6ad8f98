// Tests for the libFS client runtime: batching thresholds, the append fold,
// pools, sync, release-hook shipping, RPC accounting.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

class LibFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 128ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
  }

  std::unique_ptr<AerieSystem> sys_;
};

MetaOp CreateFileOp(LibFs* fs, const std::string& name, Oid obj) {
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = fs->pxfs_root().lock_id();
  op.dir = fs->pxfs_root();
  op.name = name;
  op.obj = obj;
  return op;
}

TEST_F(LibFsTest, MountLearnsRoots) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->fs()->pxfs_root(), sys_->tfs()->GetRoots().pxfs_root);
  EXPECT_EQ((*client)->fs()->flat_root(), sys_->tfs()->GetRoots().flat_root);
}

TEST_F(LibFsTest, OpsBufferUntilSync) {
  LibFs::Options no_flusher;
  no_flusher.flush_interval_ms = 0;  // deterministic buffering for asserts
  auto client = sys_->NewClient(no_flusher);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  auto pooled = fs->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(fs->LogOp(CreateFileOp(fs, "buffered", *pooled)).ok());
  EXPECT_EQ(fs->pending_ops(), 1u);
  EXPECT_EQ(fs->batches_shipped(), 0u);

  // Not yet visible in SCM.
  auto dir = Collection::Open(fs->read_context(), fs->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->Lookup("buffered").code(), ErrorCode::kNotFound);

  ASSERT_TRUE(fs->Sync().ok());
  EXPECT_EQ(fs->pending_ops(), 0u);
  EXPECT_EQ(fs->batches_shipped(), 1u);
  EXPECT_TRUE(dir->Lookup("buffered").ok());
}

TEST_F(LibFsTest, EagerShipOptionShipsEveryOp) {
  LibFs::Options options;
  options.eager_ship = true;
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  for (int i = 0; i < 3; ++i) {
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(
        fs->LogOp(CreateFileOp(fs, "eager" + std::to_string(i), *pooled))
            .ok());
  }
  EXPECT_EQ(fs->batches_shipped(), 3u);
  EXPECT_EQ(fs->pending_ops(), 0u);
}

TEST_F(LibFsTest, BatchShipsWhenThresholdCrossed) {
  LibFs::Options options;
  options.batch_max_bytes = 1024;  // tiny threshold
  options.flush_interval_ms = 0;   // synchronous threshold shipping
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  for (int i = 0; i < 20; ++i) {
    auto pooled = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(
        fs->LogOp(CreateFileOp(fs, "thresh" + std::to_string(i), *pooled))
            .ok());
  }
  EXPECT_GT(fs->batches_shipped(), 0u);
}

// --- Append fold ----------------------------------------------------------

LibFs::Options NoFlusher() {
  LibFs::Options options;
  options.flush_interval_ms = 0;  // deterministic buffering for asserts
  return options;
}

// `pages` pages of bytes that differ per page and per call.
std::string PageBytes(uint64_t pages, char salt) {
  std::string data(pages * kScmPageSize, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(salt + (i / kScmPageSize) * 7 + i % 5);
  }
  return data;
}

// Creates `path` and ships the create, so the batch starts empty.
int CreateShipped(Pxfs* fs, const std::string& path) {
  auto fd = fs->Open(path, kOpenCreate | kOpenWrite);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_TRUE(fs->SyncAll().ok());
  EXPECT_EQ(fs->libfs()->pending_ops(), 0u);
  return *fd;
}

std::string ReadAll(Pxfs* fs, const std::string& path) {
  auto fd = fs->Open(path, kOpenRead);
  EXPECT_TRUE(fd.ok()) << path;
  auto st = fs->Fstat(*fd);
  EXPECT_TRUE(st.ok());
  std::string out(st->size, '\0');
  auto n = fs->Read(*fd, std::span<char>(out.data(), out.size()));
  EXPECT_TRUE(n.ok());
  out.resize(*n);
  EXPECT_TRUE(fs->Close(*fd).ok());
  return out;
}

uint64_t MappedPages(LibFs* fs, Oid file) {
  auto mfile = MFile::Open(fs->read_context(), file);
  EXPECT_TRUE(mfile.ok());
  uint64_t pages = 0;
  (void)mfile->ForEachExtent([&](uint64_t, uint64_t) {
    ++pages;
    return true;
  });
  return pages;
}

TEST_F(LibFsTest, AppendsToOneFileFoldIntoOneRunAndOneSetSize) {
  auto client = sys_->NewClient(NoFlusher());
  ASSERT_TRUE(client.ok());
  LibFs* lfs = (*client)->fs();
  Pxfs fs(lfs);
  const int fd = CreateShipped(&fs, "/log");
  constexpr int kAppends = 8;
  constexpr uint64_t kPagesEach = 2;
  const uint64_t seq_before = lfs->logged_seq();
  const uint64_t logged_before = lfs->ops_logged();
  std::string want;
  for (int i = 0; i < kAppends; ++i) {
    const std::string data = PageBytes(kPagesEach, static_cast<char>('a' + i));
    ASSERT_TRUE(fs.Write(fd, std::span<const char>(data.data(), data.size()))
                    .ok());
    want += data;
  }
  // 16 logical ops (an attach and a SetSize per append) ship as two.
  EXPECT_EQ(lfs->pending_ops(), 2u);
  EXPECT_EQ(lfs->logged_seq() - seq_before, 2u * kAppends);
  EXPECT_EQ(lfs->ops_logged() - logged_before, 2u * kAppends);

  const uint64_t applied_before = sys_->tfs()->ops_applied();
  ASSERT_TRUE(fs.Fsync(fd).ok());
  EXPECT_EQ(sys_->tfs()->ops_applied() - applied_before, 2u);
  EXPECT_EQ(lfs->shipped_seq(), lfs->logged_seq());
  auto st = fs.Stat("/log");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, want.size());
  EXPECT_EQ(MappedPages(lfs, st->oid), kAppends * kPagesEach);
  EXPECT_EQ(ReadAll(&fs, "/log"), want);
  ASSERT_TRUE(fs.Close(fd).ok());
}

TEST_F(LibFsTest, AppendsToAnotherFileInBetweenDoNotFold) {
  auto client = sys_->NewClient(NoFlusher());
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());
  const int a = CreateShipped(&fs, "/a");
  const int b = CreateShipped(&fs, "/b");
  const std::string data = PageBytes(1, 'x');
  const std::span<const char> page(data.data(), data.size());
  ASSERT_TRUE(fs.Write(a, page).ok());
  ASSERT_TRUE(fs.Write(b, page).ok());
  ASSERT_TRUE(fs.Write(a, page).ok());
  EXPECT_EQ(fs.libfs()->pending_ops(), 6u);
  ASSERT_TRUE(fs.SyncAll().ok());
  EXPECT_EQ(ReadAll(&fs, "/a"), data + data);
  EXPECT_EQ(ReadAll(&fs, "/b"), data);
  ASSERT_TRUE(fs.Close(a).ok());
  ASSERT_TRUE(fs.Close(b).ok());
}

TEST_F(LibFsTest, NonContiguousPwriteDoesNotFold) {
  auto client = sys_->NewClient(NoFlusher());
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());
  const int fd = CreateShipped(&fs, "/sparse");
  const std::string data = PageBytes(1, 'p');
  const std::span<const char> page(data.data(), data.size());
  ASSERT_TRUE(fs.Pwrite(fd, 0, page).ok());
  ASSERT_TRUE(fs.Pwrite(fd, 3 * kScmPageSize, page).ok());  // pages 1-2 holes
  EXPECT_EQ(fs.libfs()->pending_ops(), 4u);
  // Filling the hole's second page cannot join either run: page 2 starts
  // where neither ends (page 1 is still a hole), and the file's size does
  // not move, so no SetSize is logged.
  ASSERT_TRUE(fs.Pwrite(fd, 2 * kScmPageSize, page).ok());
  EXPECT_EQ(fs.libfs()->pending_ops(), 5u);
  ASSERT_TRUE(fs.SyncAll().ok());
  const std::string hole(kScmPageSize, '\0');
  EXPECT_EQ(ReadAll(&fs, "/sparse"), data + hole + data + data);
  ASSERT_TRUE(fs.Close(fd).ok());
}

TEST_F(LibFsTest, DifferentAuthorityDoesNotFold) {
  auto client = sys_->NewClient(NoFlusher());
  ASSERT_TRUE(client.ok());
  LibFs* lfs = (*client)->fs();
  Pxfs fs(lfs);
  ASSERT_TRUE(fs.Close(CreateShipped(&fs, "/auth")).ok());
  auto st = fs.Stat("/auth");
  ASSERT_TRUE(st.ok());
  auto attach = [&](uint64_t page, uint64_t authority) {
    auto extent = lfs->TakePooled(ObjType::kExtent);
    EXPECT_TRUE(extent.ok());
    MetaOp op;
    op.type = MetaOpType::kAttachExtent;
    op.authority = authority;
    op.obj = st->oid;
    op.a = page;
    op.extents = {extent->offset()};
    return op;
  };
  auto set_size = [&](uint64_t size, uint64_t authority) {
    MetaOp op;
    op.type = MetaOpType::kSetSize;
    op.authority = authority;
    op.obj = st->oid;
    op.a = size;
    return op;
  };
  const uint64_t root = lfs->pxfs_root().lock_id();
  const uint64_t own = st->oid.lock_id();
  ASSERT_TRUE(lfs->LogOp(attach(0, root)).ok());
  ASSERT_TRUE(lfs->LogOp(attach(1, own)).ok());
  EXPECT_EQ(lfs->pending_ops(), 2u);
  ASSERT_TRUE(lfs->LogOp(set_size(kScmPageSize, own)).ok());
  ASSERT_TRUE(lfs->LogOp(set_size(2 * kScmPageSize, root)).ok());
  EXPECT_EQ(lfs->pending_ops(), 4u);
  // Same authority again: the run and the SetSize both fold.
  ASSERT_TRUE(lfs->LogOp(attach(2, own)).ok());
  ASSERT_TRUE(lfs->LogOp(set_size(3 * kScmPageSize, root)).ok());
  EXPECT_EQ(lfs->pending_ops(), 4u);
  // The crafted ops never reach the TFS.
  (*client)->AbandonForCrashTest();
}

TEST_F(LibFsTest, ShippedBatchIsNeverFoldedInto) {
  auto client = sys_->NewClient(NoFlusher());
  ASSERT_TRUE(client.ok());
  LibFs* lfs = (*client)->fs();
  Pxfs fs(lfs);
  const int fd = CreateShipped(&fs, "/shipped");
  const std::string data = PageBytes(2, 's');
  const std::span<const char> run(data.data(), data.size());
  ASSERT_TRUE(fs.Write(fd, run).ok());
  ASSERT_TRUE(lfs->Sync().ok());
  EXPECT_EQ(lfs->pending_ops(), 0u);
  ASSERT_TRUE(fs.Write(fd, run).ok());
  EXPECT_EQ(lfs->pending_ops(), 2u);
  const uint64_t applied_before = sys_->tfs()->ops_applied();
  ASSERT_TRUE(fs.Fsync(fd).ok());
  EXPECT_EQ(sys_->tfs()->ops_applied() - applied_before, 2u);
  EXPECT_EQ(ReadAll(&fs, "/shipped"), data + data);
  ASSERT_TRUE(fs.Close(fd).ok());
}

TEST_F(LibFsTest, FoldedRunStopsAtTheCap) {
  auto client = sys_->NewClient(NoFlusher());
  ASSERT_TRUE(client.ok());
  LibFs* lfs = (*client)->fs();
  Pxfs fs(lfs);
  const int fd = CreateShipped(&fs, "/capped");
  const uint64_t appends = LibFs::kMaxFoldedRunPages + 1;
  std::string want;
  for (uint64_t i = 0; i < appends; ++i) {
    const std::string data = PageBytes(1, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(fs.Write(fd, std::span<const char>(data.data(), data.size()))
                    .ok());
    want += data;
  }
  // A full run and its SetSize, then a one-page run and the final SetSize.
  EXPECT_EQ(lfs->pending_ops(), 4u);
  const uint64_t applied_before = sys_->tfs()->ops_applied();
  ASSERT_TRUE(fs.Fsync(fd).ok());
  EXPECT_EQ(sys_->tfs()->ops_applied() - applied_before, 4u);
  auto st = fs.Stat("/capped");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, want.size());
  EXPECT_EQ(MappedPages(lfs, st->oid), appends);
  EXPECT_EQ(ReadAll(&fs, "/capped"), want);
  ASSERT_TRUE(fs.Close(fd).ok());
}

TEST(LibFsRemountTest, FoldedAppendsSurviveSyncAndRemount) {
  const std::string path = ::testing::TempDir() + "/aerie_libfs_fold.img";
  ::unlink(path.c_str());
  AerieSystem::Options options;
  options.region_bytes = 64ull << 20;
  options.region_path = path;
  std::string want;
  {
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    auto client = (*sys)->NewClient(NoFlusher());
    ASSERT_TRUE(client.ok());
    Pxfs fs((*client)->fs());
    const int fd = CreateShipped(&fs, "/log");
    for (int i = 0; i < 12; ++i) {
      // Page-unaligned appends: each one's first page is partly filled by
      // the one before, so runs join across a shared tail page.
      const std::string data =
          PageBytes(1, static_cast<char>('A' + i)).substr(0, 3000 + 97 * i);
      ASSERT_TRUE(
          fs.Write(fd, std::span<const char>(data.data(), data.size())).ok());
      want += data;
    }
    EXPECT_EQ(fs.libfs()->pending_ops(), 2u);
    ASSERT_TRUE(fs.Fsync(fd).ok());
    ASSERT_TRUE(fs.Close(fd).ok());
  }
  options.fresh = false;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto client = (*sys)->NewClient();
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());
  auto st = fs.Stat("/log");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, want.size());
  EXPECT_EQ(ReadAll(&fs, "/log"), want);
  ::unlink(path.c_str());
}

TEST_F(LibFsTest, ReleaseHookShipsBatchBeforeLockLeaves) {
  LibFs::Options no_flusher;
  no_flusher.flush_interval_ms = 0;
  auto c1 = sys_->NewClient(no_flusher);
  auto c2 = sys_->NewClient(no_flusher);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  LibFs* fs1 = (*c1)->fs();
  LibFs* fs2 = (*c2)->fs();

  ASSERT_TRUE(fs1->clerk()
                  ->Acquire(fs1->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs1->clerk()->Release(fs1->pxfs_root().lock_id());
  auto pooled = fs1->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(fs1->LogOp(CreateFileOp(fs1, "handoff", *pooled)).ok());
  fs1->clerk()->Release(fs1->pxfs_root().lock_id());
  EXPECT_EQ(fs1->pending_ops(), 1u);  // still cached, nothing shipped

  // Client 2 takes the lock: revocation forces client 1 to ship first.
  ASSERT_TRUE(fs2->clerk()
                  ->Acquire(fs2->pxfs_root().lock_id(), LockMode::kShared)
                  .ok());
  EXPECT_EQ(fs1->pending_ops(), 0u);
  auto dir = Collection::Open(fs2->read_context(), fs2->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->Lookup("handoff").ok());
  fs2->clerk()->Release(fs2->pxfs_root().lock_id());
}

TEST_F(LibFsTest, PoolRefillKeepsRpcRare) {
  LibFs::Options options;
  options.pool_refill = 100;
  auto client = sys_->NewClient(options);
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  const uint64_t calls_before = (*client)->transport()->calls_made();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs->TakePooled(ObjType::kExtent).ok());
  }
  // 100 takes should have cost exactly one RPC.
  EXPECT_EQ((*client)->transport()->calls_made(), calls_before + 1);
}

TEST_F(LibFsTest, PooledObjectsAreDistinct) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  std::set<uint64_t> seen;
  for (int i = 0; i < 50; ++i) {
    auto oid = fs->TakePooled(ObjType::kMFile);
    ASSERT_TRUE(oid.ok());
    EXPECT_TRUE(seen.insert(oid->raw()).second);
    EXPECT_EQ(oid->type(), ObjType::kMFile);
  }
}

TEST_F(LibFsTest, SingleExtentPoolRespectsCapacity) {
  auto client = sys_->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  auto oid = fs->TakePooled(ObjType::kMFile, 32 << 10);
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(fs->read_context(), *oid);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->single_extent());
  EXPECT_GE(file->capacity(), 32u << 10);
}

TEST_F(LibFsTest, UdsTransportWorksEndToEnd) {
  AerieSystem::Options options;
  options.region_bytes = 128ull << 20;
  options.uds_path = ::testing::TempDir() + "/aerie_libfs_uds.sock";
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  auto client = (*sys)->NewUdsClient(LibFs::Options{});
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  auto pooled = fs->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(fs->LogOp(CreateFileOp(fs, "over-uds", *pooled)).ok());
  ASSERT_TRUE(fs->Sync().ok());
  auto dir = Collection::Open(fs->read_context(), fs->pxfs_root());
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->Lookup("over-uds").ok());
}

}  // namespace
}  // namespace aerie
