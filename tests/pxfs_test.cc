// PXFS functional tests: open/read/write/close, directories, resolution,
// fds, name cache behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

class PxfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AerieSystem::Options options;
    options.region_bytes = 256ull << 20;
    auto sys = AerieSystem::Create(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
    auto client = sys_->NewClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    pxfs_ = std::make_unique<Pxfs>(client_->fs());
  }

  void TearDown() override {
    pxfs_.reset();
    client_.reset();
    sys_.reset();
  }

  std::string ReadAll(const std::string& path) {
    auto fd = pxfs_->Open(path, kOpenRead);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string buf(1 << 20, '\0');
    auto n = pxfs_->Read(*fd, std::span<char>(buf.data(), buf.size()));
    EXPECT_TRUE(n.ok());
    buf.resize(*n);
    EXPECT_TRUE(pxfs_->Close(*fd).ok());
    return buf;
  }

  void WriteFile(const std::string& path, const std::string& data) {
    auto fd = pxfs_->Open(path, kOpenCreate | kOpenWrite | kOpenTrunc);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto n =
        pxfs_->Write(*fd, std::span<const char>(data.data(), data.size()));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, data.size());
    ASSERT_TRUE(pxfs_->Close(*fd).ok());
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<Pxfs> pxfs_;
};

TEST_F(PxfsTest, CreateWriteReadRoundTrip) {
  WriteFile("/hello.txt", "hello aerie");
  EXPECT_EQ(ReadAll("/hello.txt"), "hello aerie");
}

TEST_F(PxfsTest, AppendLogsOneAttachPerRunOfHolePages) {
  auto fd = pxfs_->Open("/run", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  LibFs* fs = client_->fs();
  const std::string data(64 << 10, 'r');
  uint64_t before = fs->ops_logged();
  ASSERT_TRUE(
      pxfs_->Write(*fd, std::span<const char>(data.data(), data.size())).ok());
  // 16 hole pages: one run attach + kSetSize, not 16 attaches + kSetSize.
  EXPECT_EQ(fs->ops_logged() - before, 2u);

  // Mapped pages split runs: pages 16 and 18 are written first, so a write
  // over pages 15..19 attaches the runs {17} and {19} and sets the size.
  const std::string page(kScmPageSize, 'p');
  for (uint64_t p : {16, 18}) {
    ASSERT_TRUE(pxfs_
                    ->Pwrite(*fd, p * kScmPageSize,
                             std::span<const char>(page.data(), page.size()))
                    .ok());
  }
  const std::string span5(5 * kScmPageSize, 's');
  before = fs->ops_logged();
  ASSERT_TRUE(pxfs_
                  ->Pwrite(*fd, 15 * kScmPageSize,
                           std::span<const char>(span5.data(), span5.size()))
                  .ok());
  EXPECT_EQ(fs->ops_logged() - before, 3u);
  ASSERT_TRUE(pxfs_->Fsync(*fd).ok());
  ASSERT_TRUE(pxfs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/run"),
            data.substr(0, 15 * kScmPageSize) + span5);
}

TEST_F(PxfsTest, OpenMissingFileFails) {
  EXPECT_EQ(pxfs_->Open("/missing", kOpenRead).code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, OpenFlagsValidated) {
  EXPECT_EQ(pxfs_->Open("/x", 0).code(), ErrorCode::kInvalidArgument);
  // Relative paths resolve from the cwd (the root by default).
  EXPECT_EQ(pxfs_->Open("missing/path", kOpenRead).code(),
            ErrorCode::kNotFound);
}

TEST_F(PxfsTest, RelativePathsResolveFromCwd) {
  ASSERT_TRUE(pxfs_->Mkdir("/rel").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/rel/sub").ok());
  WriteFile("/rel/sub/file.txt", "relative data");
  ASSERT_TRUE(pxfs_->SetCwd("/rel").ok());
  EXPECT_EQ(pxfs_->cwd(), "/rel");
  EXPECT_EQ(ReadAll("sub/file.txt"), "relative data");
  // Relative resolution bypasses the name cache (paper §6.1).
  const uint64_t hits = pxfs_->name_cache_hits();
  const uint64_t misses = pxfs_->name_cache_misses();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pxfs_->Stat("sub/file.txt").ok());
  }
  EXPECT_EQ(pxfs_->name_cache_hits(), hits);
  EXPECT_EQ(pxfs_->name_cache_misses(), misses);
  // Creating through a relative path lands under the cwd.
  ASSERT_TRUE(pxfs_->Create("created_here").ok());
  EXPECT_TRUE(pxfs_->Stat("/rel/created_here").ok());
  // cwd must be a directory.
  EXPECT_EQ(pxfs_->SetCwd("/rel/sub/file.txt").code(),
            ErrorCode::kNotDirectory);
  EXPECT_EQ(pxfs_->SetCwd("/nope").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, WriteRequiresWriteFlag) {
  WriteFile("/ro.txt", "data");
  auto fd = pxfs_->Open("/ro.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  const char more[] = "more";
  EXPECT_EQ(pxfs_->Write(*fd, std::span<const char>(more, 4)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, MkdirAndNestedCreate) {
  ASSERT_TRUE(pxfs_->Mkdir("/a").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b/c").ok());
  WriteFile("/a/b/c/deep.txt", "nested");
  EXPECT_EQ(ReadAll("/a/b/c/deep.txt"), "nested");
  EXPECT_EQ(pxfs_->Mkdir("/a").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(pxfs_->Mkdir("/no/such/parent").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, StatReportsSizeAndType) {
  ASSERT_TRUE(pxfs_->Mkdir("/dir").ok());
  WriteFile("/dir/file", std::string(5000, 'z'));
  auto fst = pxfs_->Stat("/dir/file");
  ASSERT_TRUE(fst.ok());
  EXPECT_FALSE(fst->is_dir);
  EXPECT_EQ(fst->size, 5000u);
  EXPECT_EQ(fst->link_count, 1u);
  auto dst = pxfs_->Stat("/dir");
  ASSERT_TRUE(dst.ok());
  EXPECT_TRUE(dst->is_dir);
  auto rst = pxfs_->Stat("/");
  ASSERT_TRUE(rst.ok());
  EXPECT_TRUE(rst->is_dir);
}

TEST_F(PxfsTest, ReadDirMergesPendingAndApplied) {
  ASSERT_TRUE(pxfs_->Mkdir("/list").ok());
  WriteFile("/list/applied", "x");
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  ASSERT_TRUE(pxfs_->Create("/list/pending").ok());  // batched, unshipped
  auto entries = pxfs_->ReadDir("/list");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (const auto& e : *entries) {
    names.insert(e.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"applied", "pending"}));
}

TEST_F(PxfsTest, UnlinkRemovesFile) {
  WriteFile("/gone.txt", "bye");
  ASSERT_TRUE(pxfs_->Unlink("/gone.txt").ok());
  EXPECT_EQ(pxfs_->Stat("/gone.txt").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Open("/gone.txt", kOpenRead).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Unlink("/gone.txt").code(), ErrorCode::kNotFound);
  // Name is reusable immediately.
  WriteFile("/gone.txt", "back");
  EXPECT_EQ(ReadAll("/gone.txt"), "back");
}

TEST_F(PxfsTest, UnlinkedOpenFileStaysReadable) {
  WriteFile("/zombie.txt", "still here");
  auto fd = pxfs_->Open("/zombie.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Unlink("/zombie.txt").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Stat("/zombie.txt").code(), ErrorCode::kNotFound);
  // POSIX: data remains accessible through the open descriptor (§6.1).
  char buf[32] = {};
  auto n = pxfs_->Read(*fd, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf, *n), "still here");
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(pxfs_->Mkdir("/d").ok());
  WriteFile("/d/f", "x");
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(pxfs_->Unlink("/d/f").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_TRUE(pxfs_->Rmdir("/d").ok());
  EXPECT_EQ(pxfs_->Stat("/d").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, RenameFileSameDirectory) {
  WriteFile("/old", "content");
  ASSERT_TRUE(pxfs_->Rename("/old", "/new").ok());
  EXPECT_EQ(pxfs_->Stat("/old").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/new"), "content");
}

TEST_F(PxfsTest, RenameAcrossDirectoriesWithOverwrite) {
  ASSERT_TRUE(pxfs_->Mkdir("/src").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/dst").ok());
  WriteFile("/src/f", "moving");
  WriteFile("/dst/f", "victim");
  ASSERT_TRUE(pxfs_->Rename("/src/f", "/dst/f").ok());
  ASSERT_TRUE(pxfs_->SyncAll().ok());
  EXPECT_EQ(pxfs_->Stat("/src/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/dst/f"), "moving");
}

TEST_F(PxfsTest, RenameDirectoryMovesSubtree) {
  ASSERT_TRUE(pxfs_->Mkdir("/top").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/top/sub").ok());
  WriteFile("/top/sub/leaf", "subtree data");
  ASSERT_TRUE(pxfs_->Rename("/top", "/moved").ok());
  EXPECT_EQ(ReadAll("/moved/sub/leaf"), "subtree data");
  EXPECT_EQ(pxfs_->Stat("/top").code(), ErrorCode::kNotFound);
}

TEST_F(PxfsTest, SeekAndPartialReads) {
  WriteFile("/seek.txt", "0123456789");
  auto fd = pxfs_->Open("/seek.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Seek(*fd, 4).ok());
  char buf[4] = {};
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "456");
  // Sequential position advanced.
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "789");
  // EOF.
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 0u);
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, PreadPwriteDoNotMoveOffset) {
  WriteFile("/pp.txt", "aaaaaaaaaa");
  auto fd = pxfs_->Open("/pp.txt", kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const char patch[] = "XY";
  EXPECT_EQ(*pxfs_->Pwrite(*fd, 3, std::span<const char>(patch, 2)), 2u);
  char buf[16] = {};
  EXPECT_EQ(*pxfs_->Pread(*fd, 0, std::span<char>(buf, 10)), 10u);
  EXPECT_EQ(std::string_view(buf, 10), "aaaXYaaaaa");
  // Sequential offset still at zero.
  EXPECT_EQ(*pxfs_->Read(*fd, std::span<char>(buf, 3)), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "aaa");
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
}

TEST_F(PxfsTest, AppendModeWritesAtEnd) {
  WriteFile("/log.txt", "line1\n");
  auto fd = pxfs_->Open("/log.txt", kOpenWrite | kOpenAppend);
  ASSERT_TRUE(fd.ok());
  const char line[] = "line2\n";
  EXPECT_TRUE(pxfs_->Write(*fd, std::span<const char>(line, 6)).ok());
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/log.txt"), "line1\nline2\n");
}

TEST_F(PxfsTest, TruncateShrinksAndZeroExtends) {
  WriteFile("/t.txt", std::string(10000, 'q'));
  ASSERT_TRUE(pxfs_->Truncate("/t.txt", 100).ok());
  EXPECT_EQ(pxfs_->Stat("/t.txt")->size, 100u);
  EXPECT_EQ(ReadAll("/t.txt"), std::string(100, 'q'));
  ASSERT_TRUE(pxfs_->Truncate("/t.txt", 200).ok());
  const std::string grown = ReadAll("/t.txt");
  ASSERT_EQ(grown.size(), 200u);
  EXPECT_EQ(grown.substr(0, 100), std::string(100, 'q'));
}

TEST_F(PxfsTest, LargeMultiPageFile) {
  std::string big(300 << 10, '\0');  // 300KB: spans many extents
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  WriteFile("/big.bin", big);
  EXPECT_EQ(ReadAll("/big.bin"), big);
  EXPECT_EQ(pxfs_->Stat("/big.bin")->size, big.size());
}

TEST_F(PxfsTest, SparseFileReadsZeros) {
  auto fd = pxfs_->Open("/sparse", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  const char tail[] = "end";
  EXPECT_TRUE(pxfs_->Pwrite(*fd, 100000, std::span<const char>(tail, 3)).ok());
  EXPECT_TRUE(pxfs_->Close(*fd).ok());
  const std::string content = ReadAll("/sparse");
  ASSERT_EQ(content.size(), 100003u);
  EXPECT_EQ(content[0], '\0');
  EXPECT_EQ(content.substr(100000), "end");
}

TEST_F(PxfsTest, NameCacheHitsOnRepeatedResolution) {
  ASSERT_TRUE(pxfs_->Mkdir("/c1").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/c1/c2").ok());
  WriteFile("/c1/c2/f", "x");
  (void)pxfs_->Stat("/c1/c2/f");
  const uint64_t hits_before = pxfs_->name_cache_hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pxfs_->Stat("/c1/c2/f").ok());
  }
  EXPECT_GE(pxfs_->name_cache_hits(), hits_before + 10);
}

TEST_F(PxfsTest, NameCacheDisabledNeverHits) {
  Pxfs::Options options;
  options.name_cache = false;
  Pxfs nnc(client_->fs(), options);
  ASSERT_TRUE(nnc.Mkdir("/nnc").ok());
  ASSERT_TRUE(nnc.Create("/nnc/f").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(nnc.Stat("/nnc/f").ok());
  }
  EXPECT_EQ(nnc.name_cache_hits(), 0u);
}

TEST_F(PxfsTest, BadFdRejected) {
  char buf[4];
  EXPECT_EQ(pxfs_->Read(99, std::span<char>(buf, 4)).code(),
            ErrorCode::kBadHandle);
  EXPECT_EQ(pxfs_->Close(99).code(), ErrorCode::kBadHandle);
  EXPECT_EQ(pxfs_->Close(-1).code(), ErrorCode::kBadHandle);
  auto fd = pxfs_->Open("/fdtest", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(pxfs_->Close(*fd).ok());
  EXPECT_EQ(pxfs_->Close(*fd).code(), ErrorCode::kBadHandle);  // double close
}

TEST_F(PxfsTest, FdsAreRecycled) {
  auto fd1 = pxfs_->Open("/r1", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(pxfs_->Close(*fd1).ok());
  auto fd2 = pxfs_->Open("/r2", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(*fd2, *fd1);
  ASSERT_TRUE(pxfs_->Close(*fd2).ok());
}

TEST_F(PxfsTest, OpenDirectoryAsFileFails) {
  ASSERT_TRUE(pxfs_->Mkdir("/adir").ok());
  EXPECT_EQ(pxfs_->Open("/adir", kOpenRead).code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(pxfs_->Unlink("/adir").code(), ErrorCode::kIsDirectory);
  WriteFile("/afile", "x");
  EXPECT_EQ(pxfs_->Rmdir("/afile").code(), ErrorCode::kNotDirectory);
  EXPECT_EQ(pxfs_->ReadDir("/afile").code(), ErrorCode::kNotDirectory);
}

TEST_F(PxfsTest, PathThroughFileFails) {
  WriteFile("/file", "x");
  EXPECT_EQ(pxfs_->Stat("/file/below").code(), ErrorCode::kNotDirectory);
}

TEST_F(PxfsTest, ChmodUpdatesAcl) {
  WriteFile("/perm", "x");
  ASSERT_TRUE(pxfs_->Chmod("/perm", MakeAcl(42, kAclRightRead)).ok());
  auto st = pxfs_->Stat("/perm");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->acl, MakeAcl(42, kAclRightRead));
}


TEST_F(PxfsTest, RecycledPooledOidStartsEmpty) {
  // Small pools make the TFS hand a freed mFile's oid straight back out.
  LibFs::Options small_pools;
  small_pools.pool_refill = 4;
  small_pools.pool_low_water = 1;
  auto client = sys_->NewClient(small_pools);
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());

  const std::string data(5000, 'z');
  auto fd = fs.Open("/a", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      fs.Write(*fd, std::span<const char>(data.data(), data.size())).ok());
  auto old = fs.Fstat(*fd);
  ASSERT_TRUE(old.ok());
  ASSERT_TRUE(fs.Close(*fd).ok());
  ASSERT_TRUE(fs.Unlink("/a").ok());
  ASSERT_TRUE(fs.SyncAll().ok());

  bool recycled = false;
  for (int i = 0; i < 64 && !recycled; ++i) {
    const std::string path = "/n" + std::to_string(i);
    auto nfd = fs.Open(path, kOpenCreate | kOpenWrite | kOpenRead);
    ASSERT_TRUE(nfd.ok());
    auto st = fs.Fstat(*nfd);
    ASSERT_TRUE(st.ok());
    if (st->oid == old->oid) {
      recycled = true;
      EXPECT_EQ(st->size, 0u);
      std::string buf(8192, '\0');
      auto n = fs.Pread(*nfd, 0, std::span<char>(buf.data(), buf.size()));
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, 0u);
    }
    ASSERT_TRUE(fs.Close(*nfd).ok());
    if (recycled) {
      auto afd = fs.Open(path, kOpenWrite | kOpenAppend);
      ASSERT_TRUE(afd.ok());
      const std::string tail(100, 't');
      ASSERT_TRUE(
          fs.Write(*afd, std::span<const char>(tail.data(), tail.size())).ok());
      auto after = fs.Fstat(*afd);
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(after->size, 100u);
      ASSERT_TRUE(fs.Close(*afd).ok());
    }
  }
  EXPECT_TRUE(recycled) << "the freed oid never came back from the pool";
}

TEST_F(PxfsTest, UnlinkAndRenameDropCanonicalNameCacheEntries) {
  ASSERT_TRUE(pxfs_->Mkdir("/d").ok());

  // A non-canonical absolute path names the cached "/d/f1".
  WriteFile("/d/f1", "x");
  ASSERT_TRUE(pxfs_->Stat("/d/f1").ok());
  ASSERT_TRUE(pxfs_->Unlink("/d//f1").ok());
  EXPECT_EQ(pxfs_->Stat("/d/f1").code(), ErrorCode::kNotFound);

  // So does a path relative to the cwd.
  WriteFile("/d/f2", "x");
  ASSERT_TRUE(pxfs_->Stat("/d/f2").ok());
  ASSERT_TRUE(pxfs_->SetCwd("/d").ok());
  ASSERT_TRUE(pxfs_->Unlink("f2").ok());
  EXPECT_EQ(pxfs_->Stat("/d/f2").code(), ErrorCode::kNotFound);

  // Rename's source entry.
  WriteFile("/d/g", "x");
  ASSERT_TRUE(pxfs_->Stat("/d/g").ok());
  ASSERT_TRUE(pxfs_->Rename("/d//g", "/d/h").ok());
  EXPECT_EQ(pxfs_->Stat("/d/g").code(), ErrorCode::kNotFound);
  EXPECT_TRUE(pxfs_->Stat("/d/h").ok());
}

TEST_F(PxfsTest, NameCacheStaysBoundedAndKeepsHitting) {
  Pxfs::Options options;
  options.name_cache_max = 64;
  Pxfs fs(client_->fs(), options);
  ASSERT_TRUE(fs.Mkdir("/w").ok());
  auto path = [](int i) { return "/w/f" + std::to_string(i); };
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs.Create(path(i)).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs.Stat(path(i)).ok());
    ASSERT_LE(fs.name_cache_size(), 64u);
  }
  // Ten hot files among a stream of cold ones: once warm, every hot lookup
  // hits even though each round evicts (a clear-at-cap cache would drop
  // the hot entries whenever it filled).
  for (int round = 0; round < 40; ++round) {
    const uint64_t hits = fs.name_cache_hits();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(fs.Stat(path(i)).ok());
    }
    if (round > 0) {
      EXPECT_EQ(fs.name_cache_hits(), hits + 10) << "round " << round;
    }
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(fs.Stat(path(10 + (round * 5 + k) % 90)).ok());
      ASSERT_LE(fs.name_cache_size(), 64u);
    }
  }
}

TEST_F(PxfsTest, ColdLeafUnderCachedDirectoryTakesOneGrant) {
  ASSERT_TRUE(pxfs_->Mkdir("/a").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b/c").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b/c/d").ok());
  WriteFile("/a/b/c/d/x", "x");
  WriteFile("/a/b/c/d/y", "y");
  ASSERT_TRUE(pxfs_->Stat("/a/b/c/d/x").ok());  // caches /a .. /a/b/c/d
  LockClerk* clerk = client_->fs()->clerk();
  auto grants = [clerk] {
    return clerk->local_grants() + clerk->global_acquires();
  };
  const uint64_t ancestor_hits = pxfs_->name_cache_ancestor_hits();

  // A missing leaf: one read lock on /a/b/c/d, none on the four above it.
  uint64_t before = grants();
  EXPECT_EQ(pxfs_->Stat("/a/b/c/d/none").code(), ErrorCode::kNotFound);
  EXPECT_EQ(grants() - before, 1u);

  // An uncached leaf: the directory's read lock plus the file's own.
  before = grants();
  ASSERT_TRUE(pxfs_->Stat("/a/b/c/d/y").ok());
  EXPECT_EQ(grants() - before, 2u);
  EXPECT_EQ(pxfs_->name_cache_ancestor_hits(), ancestor_hits + 2);
}

TEST_F(PxfsTest, CachedAncestorNeverOutlivesRenameOrRmdir) {
  ASSERT_TRUE(pxfs_->Mkdir("/a").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/a/b").ok());
  WriteFile("/a/b/f", "f");
  ASSERT_TRUE(pxfs_->Stat("/a/b/f").ok());  // caches /a, /a/b, /a/b/f
  ASSERT_TRUE(pxfs_->Rename("/a", "/c").ok());
  EXPECT_EQ(pxfs_->Stat("/a/b/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->Stat("/a/b/g").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ReadAll("/c/b/f"), "f");

  // rmdir + mkdir of the same name: lookups below it use the new directory.
  ASSERT_TRUE(pxfs_->Mkdir("/r").ok());
  WriteFile("/r/f", "old");
  ASSERT_TRUE(pxfs_->Stat("/r/f").ok());  // caches /r
  auto old_dir = pxfs_->Stat("/r");
  ASSERT_TRUE(old_dir.ok());
  ASSERT_TRUE(pxfs_->Unlink("/r/f").ok());
  ASSERT_TRUE(pxfs_->Rmdir("/r").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/r").ok());
  auto new_dir = pxfs_->Stat("/r");
  ASSERT_TRUE(new_dir.ok());
  EXPECT_NE(new_dir->oid, old_dir->oid);
  EXPECT_EQ(pxfs_->Stat("/r/f").code(), ErrorCode::kNotFound);
  WriteFile("/r/g", "new");
  auto entries = pxfs_->ReadDir("/r");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "g");
  EXPECT_EQ(ReadAll("/r/g"), "new");
}

TEST_F(PxfsTest, CachedFileAsAncestorIsNotADirectory) {
  ASSERT_TRUE(pxfs_->Mkdir("/nd").ok());
  WriteFile("/nd/file", "x");
  ASSERT_TRUE(pxfs_->Stat("/nd/file").ok());  // cached
  const uint64_t ancestor_hits = pxfs_->name_cache_ancestor_hits();
  EXPECT_EQ(pxfs_->Stat("/nd/file/below").code(), ErrorCode::kNotDirectory);
  EXPECT_EQ(pxfs_->Open("/nd/file/x/y", kOpenRead).code(),
            ErrorCode::kNotDirectory);
  EXPECT_EQ(pxfs_->name_cache_ancestor_hits(), ancestor_hits + 2);
}

TEST_F(PxfsTest, RelativePathsSkipTheAncestorProbe) {
  ASSERT_TRUE(pxfs_->Mkdir("/rp").ok());
  ASSERT_TRUE(pxfs_->Mkdir("/rp/sub").ok());
  WriteFile("/rp/sub/f", "x");
  ASSERT_TRUE(pxfs_->Stat("/rp/sub/f").ok());  // caches /rp and /rp/sub
  ASSERT_TRUE(pxfs_->SetCwd("/rp").ok());
  const uint64_t hits = pxfs_->name_cache_hits();
  const uint64_t misses = pxfs_->name_cache_misses();
  const uint64_t ancestor_hits = pxfs_->name_cache_ancestor_hits();
  ASSERT_TRUE(pxfs_->Stat("sub/f").ok());
  EXPECT_EQ(pxfs_->Stat("sub/missing").code(), ErrorCode::kNotFound);
  EXPECT_EQ(pxfs_->name_cache_hits(), hits);
  EXPECT_EQ(pxfs_->name_cache_misses(), misses);
  EXPECT_EQ(pxfs_->name_cache_ancestor_hits(), ancestor_hits);
}

TEST_F(PxfsTest, ShippedRemovalsLeaveTheOverlay) {
  // No background flusher: batches ship only at SyncAll.
  LibFs::Options sync_only;
  sync_only.flush_interval_ms = 0;
  auto client = sys_->NewClient(sync_only);
  ASSERT_TRUE(client.ok());
  Pxfs fs((*client)->fs());
  ASSERT_TRUE(fs.Mkdir("/churn").ok());
  size_t peak = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string path = "/churn/m" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.Unlink(path).ok());
    // An unshipped removal still reads as not-found.
    EXPECT_EQ(fs.Stat(path).code(), ErrorCode::kNotFound);
    if (i % 50 == 49) {
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    peak = std::max(peak, fs.overlay_removals());
  }
  // At most the removals since the last ship (2000 without pruning).
  EXPECT_EQ(peak, 50u);
  auto entries = fs.ReadDir("/churn");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
  EXPECT_EQ(fs.Stat("/churn/m0").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.Stat("/churn/m1999").code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace aerie
