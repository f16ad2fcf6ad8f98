// Deterministic fuzzing of every parser that consumes untrusted bytes: the
// wire reader, the metadata-op batch decoder, and the TFS's ApplyBatch
// (which must reject arbitrary garbage without crashing or corrupting).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/common/rand.h"
#include "src/libfs/system.h"
#include "src/tfs/fsck.h"
#include "src/tfs/ops.h"

namespace aerie {
namespace {

// Round budget, scaled by AERIE_FUZZ_SCALE (nightly CI runs a multiple of
// the per-commit budget; see .github/workflows/crash-matrix.yml).
int FuzzRounds(int base) {
  if (const char* scale = std::getenv("AERIE_FUZZ_SCALE")) {
    const long v = std::strtol(scale, nullptr, 10);
    if (v > 0) {
      return static_cast<int>(base * v);
    }
  }
  return base;
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string out(rng->Uniform(max_len + 1), '\0');
  for (auto& ch : out) {
    ch = static_cast<char>(rng->Next());
  }
  return out;
}

TEST(FuzzTest, WireReaderNeverOverreads) {
  Rng rng(1);
  for (int round = 0; round < FuzzRounds(5000); ++round) {
    const std::string bytes = RandomBytes(&rng, 64);
    WireReader reader(bytes);
    // Interleave random read kinds; every result must be bounds-checked.
    for (int i = 0; i < 8; ++i) {
      switch (rng.Uniform(5)) {
        case 0:
          (void)reader.ReadU8();
          break;
        case 1:
          (void)reader.ReadU16();
          break;
        case 2:
          (void)reader.ReadU32();
          break;
        case 3:
          (void)reader.ReadU64();
          break;
        case 4: {
          auto s = reader.ReadString();
          if (s.ok()) {
            // The view must lie within the buffer.
            ASSERT_GE(s->data(), bytes.data());
            ASSERT_LE(s->data() + s->size(), bytes.data() + bytes.size());
          }
          break;
        }
      }
    }
  }
}

TEST(FuzzTest, DecodeBatchRejectsGarbageGracefully) {
  Rng rng(2);
  int accepted = 0;
  for (int round = 0; round < FuzzRounds(5000); ++round) {
    const std::string bytes = RandomBytes(&rng, 256);
    auto ops = DecodeBatch(bytes);
    if (ops.ok()) {
      accepted++;  // structurally valid garbage is fine; semantics rejected later
    }
  }
  // Random bytes should essentially never parse as a valid batch.
  EXPECT_LT(accepted, 50);
}

TEST(FuzzTest, DecodeBatchHandlesTruncationsOfValidBatch) {
  // A valid batch, chopped at every length: no crash, prefix-or-error.
  MetaOp op;
  op.type = MetaOpType::kCreateFile;
  op.authority = 42;
  op.dir = Oid::Make(ObjType::kCollection, 4096);
  op.name = "victim-name";
  op.obj = Oid::Make(ObjType::kMFile, 8192);
  const std::string blob = EncodeBatch({op, op, op});
  for (size_t len = 0; len < blob.size(); ++len) {
    auto ops = DecodeBatch(blob.substr(0, len));
    EXPECT_FALSE(ops.ok()) << "truncated length " << len;
  }
  auto full = DecodeBatch(blob);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 3u);
}

TEST(FuzzTest, ApplyBatchSurvivesGarbageAndMaliciousOps) {
  AerieSystem::Options options;
  options.region_bytes = 256ull << 20;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  auto client = (*sys)->NewClient();
  ASSERT_TRUE(client.ok());
  LibFs* fs = (*client)->fs();

  Rng rng(3);
  // Raw garbage.
  for (int round = 0; round < FuzzRounds(500); ++round) {
    const std::string bytes = RandomBytes(&rng, 512);
    (void)(*sys)->tfs()->ApplyBatch((*client)->id(), bytes);
  }
  // Structurally valid but semantically hostile ops: forged OIDs, absent
  // locks, bogus extents, enormous sizes.
  ASSERT_TRUE(fs->clerk()
                  ->Acquire(fs->pxfs_root().lock_id(),
                            LockMode::kExclusiveHier)
                  .ok());
  fs->clerk()->Release(fs->pxfs_root().lock_id());
  for (int round = 0; round < FuzzRounds(500); ++round) {
    MetaOp op;
    op.type = static_cast<MetaOpType>(rng.Uniform(14));
    op.authority = rng.Chance(1, 2) ? fs->pxfs_root().lock_id() : rng.Next();
    op.dir = rng.Chance(1, 2) ? fs->pxfs_root()
                              : Oid(rng.Next());
    op.dir2 = Oid(rng.Next());
    op.name = "f" + std::to_string(rng.Uniform(10));
    op.name2 = "g" + std::to_string(rng.Uniform(10));
    op.obj = Oid(rng.Next());
    op.a = rng.Next();
    for (uint64_t i = rng.Uniform(4); i > 0; --i) {
      op.extents.push_back(rng.Next());
    }
    // Forge "server-enriched" fields too: the server must recompute them.
    op.victim = Oid(rng.Next());
    op.victim_links = rng.Next();
    op.victim_free = static_cast<uint8_t>(rng.Uniform(2));
    (void)(*sys)->tfs()->ApplyBatch((*client)->id(), EncodeBatch({op}));
  }

  // After the assault, the volume must still be structurally sound and
  // fully usable.
  auto report = RunFsck((*sys)->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  auto pooled = fs->TakePooled(ObjType::kMFile);
  ASSERT_TRUE(pooled.ok());
  MetaOp good;
  good.type = MetaOpType::kCreateFile;
  good.authority = fs->pxfs_root().lock_id();
  good.dir = fs->pxfs_root();
  good.name = "survivor";
  good.obj = *pooled;
  EXPECT_TRUE(
      (*sys)->tfs()->ApplyBatch((*client)->id(), EncodeBatch({good})).ok());
}

}  // namespace
}  // namespace aerie
