// Tests for the mFile object: radix tree growth, sparse reads, in-place
// writes, truncation, single-extent mode, destroy, property sweep.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/osd/mfile.h"
#include "src/osd/volume.h"

namespace aerie {
namespace {

// Attaches a single page: a run of one.
Status AttachOne(MFile& file, uint64_t page, uint64_t extent) {
  return file.AttachExtents(page, {&extent, 1});
}

class MFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto region = ScmRegion::CreateAnonymous(128 << 20);
    ASSERT_TRUE(region.ok());
    region_ = std::move(*region);
    auto volume = Volume::Format(region_.get(), 0, region_->size(),
                                 Volume::Options{.log_bytes = 1 << 20});
    ASSERT_TRUE(volume.ok());
    volume_ = std::move(*volume);
    ctx_ = volume_->context();
  }

  uint64_t NewExtent() {
    auto offset = ctx_.alloc->Alloc(0);
    EXPECT_TRUE(offset.ok());
    std::memset(ctx_.region->PtrAt(*offset), 0, kScmPageSize);
    return *offset;
  }

  std::unique_ptr<ScmRegion> region_;
  std::unique_ptr<Volume> volume_;
  OsdContext ctx_;
};

TEST_F(MFileTest, CreateOpenEmpty) {
  auto file = MFile::Create(ctx_, 7);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 0u);
  EXPECT_EQ(file->acl(), 7u);
  EXPECT_FALSE(file->single_extent());
  EXPECT_EQ(file->ExtentForPage(0).code(), ErrorCode::kNotFound);
  auto reopened = MFile::Open(ctx_, file->oid());
  ASSERT_TRUE(reopened.ok());
}

TEST_F(MFileTest, AttachAndReadBack) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t extent = NewExtent();
  std::memcpy(ctx_.region->PtrAt(extent), "page zero data", 14);
  ASSERT_TRUE(AttachOne(*file, 0, extent).ok());
  ASSERT_TRUE(file->SetSize(14).ok());

  char buf[32] = {};
  auto n = file->Read(0, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 14u);
  EXPECT_EQ(std::string_view(buf, 14), "page zero data");
  EXPECT_EQ(*file->ExtentForPage(0), extent);
}

TEST_F(MFileTest, DoubleAttachRejected) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(AttachOne(*file, 0, NewExtent()).ok());
  EXPECT_EQ(AttachOne(*file, 0, NewExtent()).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(MFileTest, RunAttachPersistsOneLeafRunWithOneFence) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(AttachOne(*file, 0, NewExtent()).ok());  // root leaf exists
  std::vector<uint64_t> extents;
  for (int i = 0; i < 5; ++i) {
    extents.push_back(NewExtent());
  }
  const uint64_t fences = region_->stats().fences.value();
  const uint64_t lines = region_->stats().lines_flushed.value();
  ASSERT_TRUE(file->AttachExtents(1, extents).ok());
  // Slots 1..5 share one cache line of the leaf: one flush, one fence.
  EXPECT_EQ(region_->stats().fences.value() - fences, 1u);
  EXPECT_EQ(region_->stats().lines_flushed.value() - lines, 1u);
  for (uint64_t i = 0; i < extents.size(); ++i) {
    EXPECT_EQ(*file->ExtentForPage(1 + i), extents[i]);
  }
}

TEST_F(MFileTest, RunAttachSpansLeavesAndIsIdempotent) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  // Pages 500..1039 cross two leaf boundaries and grow the tree to height 2.
  std::vector<uint64_t> extents;
  for (int i = 0; i < 540; ++i) {
    extents.push_back(NewExtent());
  }
  ASSERT_TRUE(file->AttachExtents(500, extents).ok());
  for (uint64_t i = 0; i < extents.size(); ++i) {
    ASSERT_EQ(*file->ExtentForPage(500 + i), extents[i]) << i;
  }
  EXPECT_EQ(file->ExtentForPage(499).code(), ErrorCode::kNotFound);
  EXPECT_EQ(file->ExtentForPage(1040).code(), ErrorCode::kNotFound);
  // Re-applying the same run (a replayed log record) keeps every page.
  ASSERT_TRUE(file->AttachExtents(500, extents).ok());
  EXPECT_EQ(*file->ExtentForPage(777), extents[277]);
  EXPECT_TRUE(file->Validate().ok());
}

TEST_F(MFileTest, RunAttachIsAllOrNothing) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t taken = NewExtent();
  ASSERT_TRUE(AttachOne(*file, 3, taken).ok());
  std::vector<uint64_t> extents;
  for (int i = 0; i < 5; ++i) {
    extents.push_back(NewExtent());
  }
  // Page 3 of the run 0..4 maps a different extent: nothing is stored.
  EXPECT_EQ(file->AttachExtents(0, extents).code(),
            ErrorCode::kAlreadyExists);
  for (uint64_t p : {0, 1, 2, 4}) {
    EXPECT_EQ(file->ExtentForPage(p).code(), ErrorCode::kNotFound) << p;
  }
  EXPECT_EQ(*file->ExtentForPage(3), taken);
  // Empty and out-of-range (including wrapping) runs are refused.
  EXPECT_EQ(file->AttachExtents(0, {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(file->AttachExtents(MFile::kMaxPages - 2, extents).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(file->AttachExtents(~0ull - 1, extents).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(MFileTest, TreeGrowsAcrossLevels) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  // Page indexes forcing height 1, 2 and 3 (512 pointers per block).
  const uint64_t pages[] = {0, 511, 512, 262143, 262144, 1000000};
  std::map<uint64_t, uint64_t> attached;
  for (uint64_t p : pages) {
    const uint64_t extent = NewExtent();
    ASSERT_TRUE(AttachOne(*file, p, extent).ok()) << p;
    attached[p] = extent;
  }
  for (const auto& [page, extent] : attached) {
    auto found = file->ExtentForPage(page);
    ASSERT_TRUE(found.ok()) << page;
    EXPECT_EQ(*found, extent);
  }
  // Holes in between are still holes.
  EXPECT_EQ(file->ExtentForPage(100).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(file->Validate().ok());
}

TEST_F(MFileTest, SparseReadsReturnZeros) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t extent = NewExtent();
  std::memset(ctx_.region->PtrAt(extent), 0xee, kScmPageSize);
  ASSERT_TRUE(AttachOne(*file, 2, extent).ok());
  ASSERT_TRUE(file->SetSize(3 * kScmPageSize).ok());

  std::string buf(3 * kScmPageSize, 'x');
  auto n = file->Read(0, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3 * kScmPageSize);
  EXPECT_EQ(buf[0], '\0');
  EXPECT_EQ(buf[2 * kScmPageSize - 1], '\0');
  EXPECT_EQ(static_cast<unsigned char>(buf[2 * kScmPageSize]), 0xee);
}

TEST_F(MFileTest, WriteInPlaceRequiresExtents) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const char data[] = "hello";
  EXPECT_EQ(file->WriteInPlace(0, std::span<const char>(data, 5)).code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(AttachOne(*file, 0, NewExtent()).ok());
  EXPECT_TRUE(file->WriteInPlace(0, std::span<const char>(data, 5)).ok());
  ctx_.region->BFlush();
  ASSERT_TRUE(file->SetSize(5).ok());
  char buf[8] = {};
  EXPECT_EQ(*file->Read(0, std::span<char>(buf, 8)), 5u);
  EXPECT_EQ(std::string_view(buf, 5), "hello");
}

TEST_F(MFileTest, CrossPageWrite) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(AttachOne(*file, 0, NewExtent()).ok());
  ASSERT_TRUE(AttachOne(*file, 1, NewExtent()).ok());
  std::string data(6000, 'q');
  ASSERT_TRUE(
      file->WriteInPlace(1000, std::span<const char>(data.data(), 6000))
          .ok());
  ASSERT_TRUE(file->SetSize(7000).ok());
  std::string buf(6000, '\0');
  EXPECT_EQ(*file->Read(1000, std::span<char>(buf.data(), 6000)), 6000u);
  EXPECT_EQ(buf, data);
}

TEST_F(MFileTest, TruncateFreesTail) {
  const uint64_t free_before_create = ctx_.alloc->pages_free();
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  const uint64_t free_start = ctx_.alloc->pages_free();
  EXPECT_EQ(free_start, free_before_create - 1);  // header page
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(AttachOne(*file, p, NewExtent()).ok());
  }
  ASSERT_TRUE(file->SetSize(20 * kScmPageSize).ok());
  ASSERT_TRUE(file->Truncate(5 * kScmPageSize).ok());
  EXPECT_EQ(file->size(), 5 * kScmPageSize);
  EXPECT_TRUE(file->ExtentForPage(4).ok());
  EXPECT_EQ(file->ExtentForPage(5).code(), ErrorCode::kNotFound);
  EXPECT_EQ(file->ExtentForPage(19).code(), ErrorCode::kNotFound);
  // 15 data extents came back (the root block stays).
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start - 5 - 1);
  // Truncate to zero releases everything including the tree.
  ASSERT_TRUE(file->Truncate(0).ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
}

TEST_F(MFileTest, DestroyFreesEverything) {
  const uint64_t free_start = ctx_.alloc->pages_free();
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  for (uint64_t p = 0; p < 600; ++p) {  // forces height 2
    ASSERT_TRUE(AttachOne(*file, p, NewExtent()).ok());
  }
  ASSERT_TRUE(file->Destroy().ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
  EXPECT_EQ(MFile::Open(ctx_, file->oid()).code(), ErrorCode::kCorrupted);
}

TEST_F(MFileTest, LinkCountPersists) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  file->SetLinkCount(3);
  auto reopened = MFile::Open(ctx_, file->oid());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->link_count(), 3u);
}

TEST_F(MFileTest, ForEachExtentVisitsAll) {
  auto file = MFile::Create(ctx_, 0);
  ASSERT_TRUE(file.ok());
  std::map<uint64_t, uint64_t> attached;
  for (uint64_t p : {0ull, 7ull, 513ull, 4096ull}) {
    const uint64_t extent = NewExtent();
    ASSERT_TRUE(AttachOne(*file, p, extent).ok());
    attached[p] = extent;
  }
  std::map<uint64_t, uint64_t> seen;
  ASSERT_TRUE(file->ForEachExtent([&](uint64_t page, uint64_t extent) {
                  seen[page] = extent;
                  return true;
                })
                  .ok());
  EXPECT_EQ(seen, attached);
}

// --- Single-extent mode (FlatFS files) ---

TEST_F(MFileTest, SingleExtentCreateWriteRead) {
  auto file = MFile::CreateSingleExtent(ctx_, 0, 10000);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->single_extent());
  EXPECT_GE(file->capacity(), 10000u);  // rounded to power-of-two pages
  std::string data(9000, 'm');
  ASSERT_TRUE(
      file->WriteInPlace(0, std::span<const char>(data.data(), data.size()))
          .ok());
  ASSERT_TRUE(file->SetSize(9000).ok());
  std::string buf(9000, '\0');
  EXPECT_EQ(*file->Read(0, std::span<char>(buf.data(), buf.size())), 9000u);
  EXPECT_EQ(buf, data);
}

TEST_F(MFileTest, SingleExtentCapacityEnforced) {
  auto file = MFile::CreateSingleExtent(ctx_, 0, 4096);
  ASSERT_TRUE(file.ok());
  std::string data(5000, 'x');
  EXPECT_EQ(
      file->WriteInPlace(0, std::span<const char>(data.data(), data.size()))
          .code(),
      ErrorCode::kOutOfSpace);
  EXPECT_EQ(file->SetSize(5000).code(), ErrorCode::kOutOfSpace);
  EXPECT_EQ(AttachOne(*file, 0, NewExtent()).code(),
            ErrorCode::kNotSupported);
}

TEST_F(MFileTest, SingleExtentDestroyFreesStorage) {
  const uint64_t free_start = ctx_.alloc->pages_free();
  auto file = MFile::CreateSingleExtent(ctx_, 0, 64 << 10);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Destroy().ok());
  EXPECT_EQ(ctx_.alloc->pages_free(), free_start);
}

class MFileRandomIoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MFileRandomIoTest, RandomWritesMatchReferenceBuffer) {
  auto region = ScmRegion::CreateAnonymous(128 << 20);
  ASSERT_TRUE(region.ok());
  auto volume = Volume::Format(region->get(), 0, (*region)->size(),
                               Volume::Options{.log_bytes = 1 << 20});
  ASSERT_TRUE(volume.ok());
  OsdContext ctx = (*volume)->context();

  auto file = MFile::Create(ctx, 0);
  ASSERT_TRUE(file.ok());
  constexpr uint64_t kFileBytes = 64 << 10;
  std::string model(kFileBytes, '\0');
  Rng rng(GetParam());

  for (int op = 0; op < 300; ++op) {
    const uint64_t offset = rng.Uniform(kFileBytes - 1);
    const uint64_t len =
        std::min<uint64_t>(1 + rng.Uniform(8000), kFileBytes - offset);
    std::string data(len, '\0');
    for (auto& ch : data) {
      ch = static_cast<char>('a' + rng.Uniform(26));
    }
    // Attach any missing pages first (client pre-allocation pattern).
    for (uint64_t p = offset / kScmPageSize;
         p <= (offset + len - 1) / kScmPageSize; ++p) {
      if (!file->ExtentForPage(p).ok()) {
        auto extent = ctx.alloc->Alloc(0);
        ASSERT_TRUE(extent.ok());
        std::memset(ctx.region->PtrAt(*extent), 0, kScmPageSize);
        ASSERT_TRUE(AttachOne(*file, p, *extent).ok());
      }
    }
    ASSERT_TRUE(
        file->WriteInPlace(offset,
                           std::span<const char>(data.data(), data.size()))
            .ok());
    std::memcpy(model.data() + offset, data.data(), len);
    if (offset + len > file->size()) {
      ASSERT_TRUE(file->SetSize(offset + len).ok());
    }
  }
  std::string buf(file->size(), '\0');
  ASSERT_EQ(*file->Read(0, std::span<char>(buf.data(), buf.size())),
            file->size());
  EXPECT_EQ(buf, model.substr(0, file->size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MFileRandomIoTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace aerie
