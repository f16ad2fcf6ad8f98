// FlatFS functional tests: put/get/erase semantics, capacity limits,
// rehash under load, concurrency, coexistence with PXFS on one volume.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace aerie {
namespace {

class FlatFsTest : public ::testing::Test {
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
    FlatFs::Options options_fs;
    options_fs.file_capacity = 16 << 10;
    flat_ = std::make_unique<FlatFs>(client_->fs(), options_fs);
  }

  void TearDown() override {
    flat_.reset();
    client_.reset();
    sys_.reset();
  }

  std::span<const char> Bytes(const std::string& s) {
    return std::span<const char>(s.data(), s.size());
  }

  std::unique_ptr<AerieSystem> sys_;
  std::unique_ptr<AerieSystem::Client> client_;
  std::unique_ptr<FlatFs> flat_;
};

TEST_F(FlatFsTest, PutGetRoundTrip) {
  ASSERT_TRUE(flat_->Put("msg:1", Bytes("first message")).ok());
  auto value = flat_->Get("msg:1");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "first message");
}

TEST_F(FlatFsTest, GetMissingKeyFails) {
  EXPECT_EQ(flat_->Get("absent").code(), ErrorCode::kNotFound);
  auto exists = flat_->Exists("absent");
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST_F(FlatFsTest, PutReplacesValue) {
  ASSERT_TRUE(flat_->Put("k", Bytes("v1")).ok());
  ASSERT_TRUE(flat_->Put("k", Bytes("version two")).ok());
  EXPECT_EQ(*flat_->Get("k"), "version two");
  ASSERT_TRUE(flat_->Sync().ok());
  EXPECT_EQ(*flat_->Get("k"), "version two");
}

TEST_F(FlatFsTest, EraseRemoves) {
  ASSERT_TRUE(flat_->Put("gone", Bytes("bye")).ok());
  ASSERT_TRUE(flat_->Erase("gone").ok());
  EXPECT_EQ(flat_->Get("gone").code(), ErrorCode::kNotFound);
  EXPECT_EQ(flat_->Erase("gone").code(), ErrorCode::kNotFound);
  // Visible after sync too.
  ASSERT_TRUE(flat_->Sync().ok());
  EXPECT_EQ(flat_->Get("gone").code(), ErrorCode::kNotFound);
}

TEST_F(FlatFsTest, CapacityEnforced) {
  const std::string too_big((16 << 10) + 1, 'x');
  EXPECT_EQ(flat_->Put("big", Bytes(too_big)).code(),
            ErrorCode::kOutOfSpace);
  const std::string max_fit(16 << 10, 'x');
  EXPECT_TRUE(flat_->Put("fits", Bytes(max_fit)).ok());
  EXPECT_EQ(flat_->Get("fits")->size(), max_fit.size());
}

TEST_F(FlatFsTest, KeyValidation) {
  EXPECT_EQ(flat_->Put("", Bytes("x")).code(), ErrorCode::kInvalidArgument);
  const std::string long_key(Collection::kMaxKeyLen + 1, 'k');
  EXPECT_EQ(flat_->Put(long_key, Bytes("x")).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FlatFsTest, BinaryValuesPreserved) {
  std::string binary(256, '\0');
  for (int i = 0; i < 256; ++i) {
    binary[static_cast<size_t>(i)] = static_cast<char>(i);
  }
  ASSERT_TRUE(flat_->Put("bin", Bytes(binary)).ok());
  EXPECT_EQ(*flat_->Get("bin"), binary);
}

TEST_F(FlatFsTest, ManyKeysSurviveRehashes) {
  constexpr int kKeys = 1500;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        flat_->Put("key" + std::to_string(i),
                   Bytes("value" + std::to_string(i)))
            .ok())
        << i;
  }
  ASSERT_TRUE(flat_->Sync().ok());
  for (int i = 0; i < kKeys; ++i) {
    auto value = flat_->Get("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(*value, "value" + std::to_string(i));
  }
}

TEST_F(FlatFsTest, ScanSeesAllLiveKeys) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(flat_->Put("s" + std::to_string(i), Bytes("v")).ok());
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(flat_->Erase("s" + std::to_string(2 * i)).ok());
  }
  std::set<std::string> keys;
  ASSERT_TRUE(flat_->Scan([&](std::string_view key) {
                  keys.insert(std::string(key));
                  return true;
                })
                  .ok());
  EXPECT_EQ(keys.size(), 25u);
  for (const auto& key : keys) {
    EXPECT_EQ(std::stoi(key.substr(1)) % 2, 1) << key;
  }
}

TEST_F(FlatFsTest, GetIntoSmallBufferTruncates) {
  ASSERT_TRUE(flat_->Put("k", Bytes("0123456789")).ok());
  char buf[4];
  auto n = flat_->Get("k", std::span<char>(buf, 4));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(std::string_view(buf, 4), "0123");
}

TEST_F(FlatFsTest, ConcurrentPutsDistinctKeys) {
  constexpr int kThreads = 4;
  constexpr int kKeysEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysEach; ++i) {
        const std::string key =
            "c" + std::to_string(t) + "_" + std::to_string(i);
        if (!flat_->Put(key, std::span<const char>(key.data(), key.size()))
                 .ok()) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(flat_->Sync().ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysEach; ++i) {
      const std::string key =
          "c" + std::to_string(t) + "_" + std::to_string(i);
      auto value = flat_->Get(key);
      ASSERT_TRUE(value.ok()) << key;
      EXPECT_EQ(*value, key);
    }
  }
}

TEST_F(FlatFsTest, VisibleToSecondClientAfterSync) {
  ASSERT_TRUE(flat_->Put("shared", Bytes("payload")).ok());
  ASSERT_TRUE(flat_->Sync().ok());
  client_->fs()->clerk()->ReleaseAllGlobals();

  auto client2 = sys_->NewClient();
  ASSERT_TRUE(client2.ok());
  FlatFs flat2((*client2)->fs());
  auto value = flat2.Get("shared");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "payload");
}

TEST_F(FlatFsTest, PxfsSeesFlatNamespaceAsCollection) {
  // Both interfaces share one volume and one TFS (paper §6.2 Discussion).
  ASSERT_TRUE(flat_->Put("dual-view", Bytes("same bytes")).ok());
  ASSERT_TRUE(flat_->Sync().ok());
  auto coll =
      Collection::Open(client_->fs()->read_context(),
                       client_->fs()->flat_root());
  ASSERT_TRUE(coll.ok());
  auto oid = coll->Lookup("dual-view");
  ASSERT_TRUE(oid.ok());
  auto file = MFile::Open(client_->fs()->read_context(), Oid(*oid));
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->single_extent());
  EXPECT_EQ(file->size(), 10u);
}

}  // namespace

// Test access to FlatFs internals.
class FlatFsTestPeer {
 public:
  // Replaces the value cache with an empty one holding at most `n` values.
  static void ShrinkValueCache(FlatFs& fs, size_t n) {
    std::unique_lock lock(fs.direct_mu_);
    fs.direct_values_ = decltype(fs.direct_values_)(n);
  }
  static size_t CachedValues(FlatFs& fs) {
    std::shared_lock lock(fs.direct_mu_);
    return fs.direct_values_.size();
  }
};

namespace {

TEST_F(FlatFsTest, ValueCacheKeepsServingPastItsBound) {
  FlatFsTestPeer::ShrinkValueCache(*flat_, 8);
  LibFs* fs = client_->fs();
  auto key = [](int i) { return "v" + std::to_string(i); };
  auto value = [](int i) { return std::string(100 + i, 'a' + i % 26); };
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(flat_->Put(key(i), Bytes(value(i))).ok());
    ASSERT_LE(FlatFsTestPeer::CachedValues(*flat_), 8u);
  }
  // Four hot keys among a stream of cold ones: once warm, every hot get is
  // direct although each round evicts.
  for (int round = 0; round < 30; ++round) {
    const uint64_t before = fs->direct_read_bytes();
    uint64_t hot_bytes = 0;
    for (int i = 0; i < 4; ++i) {
      auto got = flat_->Get(key(i));
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, value(i));
      hot_bytes += got->size();
    }
    if (round > 0) {
      EXPECT_EQ(fs->direct_read_bytes(), before + hot_bytes)
          << "round " << round;
    }
    for (int k = 0; k < 3; ++k) {
      const int i = 4 + (round * 3 + k) % 36;
      auto got = flat_->Get(key(i));
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, value(i));
    }
    ASSERT_LE(FlatFsTestPeer::CachedValues(*flat_), 8u);
  }
}

TEST_F(FlatFsTest, ConcurrentGetsEvictWithoutLosingValues) {
  FlatFsTestPeer::ShrinkValueCache(*flat_, 8);
  auto key = [](int i) { return "c" + std::to_string(i); };
  for (int i = 0; i < 32; ++i) {
    const std::string v(64, 'a' + i % 26);
    ASSERT_TRUE(flat_->Put(key(i), Bytes(v)).ok());
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int n = 0; n < 500; ++n) {
        const int i = (n * 7 + t * 5) % 32;
        auto got = flat_->Get(key(i));
        if (!got.ok() || *got != std::string(64, 'a' + i % 26)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(FlatFsTestPeer::CachedValues(*flat_), 8u);
}

}  // namespace
}  // namespace aerie
