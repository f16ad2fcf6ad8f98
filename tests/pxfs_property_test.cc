// Property-based test: PXFS under a random op stream must agree with an
// in-memory reference model (map of path -> contents), across seeds, with
// periodic syncs, client handoffs, and a final fsck. Runs of appends and
// Pwrites to one file exercise libFS's append fold; the model is checked
// again after a remount of the region.
#include <gtest/gtest.h>

#include <unistd.h>

#include <map>
#include <memory>
#include <string>

#include "src/common/rand.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"
#include "src/tfs/fsck.h"

namespace aerie {
namespace {

class PxfsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PxfsPropertyTest, RandomOpsMatchReferenceModel) {
  const std::string image = ::testing::TempDir() + "/aerie_pxfs_property_" +
                            std::to_string(GetParam()) + ".img";
  ::unlink(image.c_str());
  AerieSystem::Options options;
  options.region_bytes = 512ull << 20;
  options.region_path = image;
  auto sys = AerieSystem::Create(options);
  ASSERT_TRUE(sys.ok());
  auto client = (*sys)->NewClient();
  ASSERT_TRUE(client.ok());
  auto pxfs = std::make_unique<Pxfs>((*client)->fs());
  Pxfs& fs = *pxfs;

  Rng rng(GetParam());
  std::map<std::string, std::string> model;  // path -> contents
  const int kDirs = 4;
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_TRUE(fs.Mkdir("/d" + std::to_string(d)).ok());
  }

  auto random_path = [&] {
    return "/d" + std::to_string(rng.Uniform(kDirs)) + "/f" +
           std::to_string(rng.Uniform(30));
  };
  auto read_all_from = [](Pxfs& on,
                          const std::string& path) -> Result<std::string> {
    auto fd = on.Open(path, kOpenRead);
    if (!fd.ok()) {
      return fd.status();
    }
    std::string buf(256 << 10, '\0');
    auto n = on.Read(*fd, std::span<char>(buf.data(), buf.size()));
    EXPECT_TRUE(on.Close(*fd).ok());
    if (!n.ok()) {
      return n.status();
    }
    buf.resize(*n);
    return buf;
  };
  auto read_all = [&](const std::string& path) {
    return read_all_from(fs, path);
  };

  for (int step = 0; step < 1200; ++step) {
    const std::string path = random_path();
    switch (rng.Uniform(9)) {
      case 0:
      case 1: {  // write whole file
        std::string data(1 + rng.Uniform(20000), '\0');
        for (auto& ch : data) {
          ch = static_cast<char>('a' + rng.Uniform(26));
        }
        auto fd = fs.Open(path, kOpenCreate | kOpenWrite | kOpenTrunc);
        ASSERT_TRUE(fd.ok()) << path;
        ASSERT_TRUE(
            fs.Write(*fd, std::span<const char>(data.data(), data.size()))
                .ok());
        ASSERT_TRUE(fs.Close(*fd).ok());
        model[path] = data;
        break;
      }
      case 2: {  // append
        auto it = model.find(path);
        if (it == model.end()) {
          break;
        }
        std::string data(1 + rng.Uniform(4000), 'A');
        auto fd = fs.Open(path, kOpenWrite | kOpenAppend);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(
            fs.Write(*fd, std::span<const char>(data.data(), data.size()))
                .ok());
        ASSERT_TRUE(fs.Close(*fd).ok());
        it->second += data;
        break;
      }
      case 3: {  // read + compare
        auto content = read_all(path);
        auto it = model.find(path);
        if (it == model.end()) {
          EXPECT_EQ(content.code(), ErrorCode::kNotFound) << path;
        } else {
          ASSERT_TRUE(content.ok()) << path;
          EXPECT_EQ(*content, it->second) << path;
        }
        break;
      }
      case 4: {  // unlink
        Status st = fs.Unlink(path);
        if (model.count(path)) {
          EXPECT_TRUE(st.ok()) << path << ": " << st.ToString();
          model.erase(path);
        } else {
          EXPECT_EQ(st.code(), ErrorCode::kNotFound);
        }
        break;
      }
      case 5: {  // rename
        const std::string to = random_path();
        Status st = fs.Rename(path, to);
        if (!model.count(path)) {
          EXPECT_FALSE(st.ok());
        } else if (path == to) {
          EXPECT_TRUE(st.ok());  // POSIX no-op
        } else {
          EXPECT_TRUE(st.ok()) << path << " -> " << to;
          model[to] = model[path];
          model.erase(path);
        }
        break;
      }
      case 6: {  // truncate to random size
        auto it = model.find(path);
        if (it == model.end()) {
          break;
        }
        const uint64_t size = rng.Uniform(it->second.size() + 100);
        ASSERT_TRUE(fs.Truncate(path, size).ok());
        if (size <= it->second.size()) {
          it->second.resize(size);
        } else {
          it->second.resize(size, '\0');
        }
        break;
      }
      case 7: {  // stat + occasional sync
        auto st = fs.Stat(path);
        auto it = model.find(path);
        if (it == model.end()) {
          EXPECT_EQ(st.code(), ErrorCode::kNotFound);
        } else {
          ASSERT_TRUE(st.ok());
          EXPECT_EQ(st->size, it->second.size()) << path;
        }
        if (rng.Chance(1, 10)) {
          ASSERT_TRUE(fs.SyncAll().ok());
        }
        break;
      }
      case 8: {  // a run of appends and Pwrites through one fd, no sync
        auto it = model.find(path);
        if (it == model.end() || it->second.size() > (128u << 10)) {
          break;
        }
        auto fd = fs.Open(path, kOpenWrite);
        ASSERT_TRUE(fd.ok()) << path;
        std::string& contents = it->second;
        const int writes = 2 + static_cast<int>(rng.Uniform(6));
        for (int w = 0; w < writes; ++w) {
          // Mostly appends, some page-multiple, so runs meet exactly; the
          // rest land anywhere up to two pages past the end (holes,
          // overwrites, extends).
          const uint64_t off = rng.Chance(3, 4)
                                   ? contents.size()
                                   : rng.Uniform(contents.size() + 8193);
          const uint64_t len = rng.Chance(1, 2)
                                   ? kScmPageSize * (1 + rng.Uniform(3))
                                   : 1 + rng.Uniform(9000);
          std::string data(len, static_cast<char>('a' + rng.Uniform(26)));
          ASSERT_TRUE(
              fs.Pwrite(*fd, off, std::span<const char>(data.data(), len))
                  .ok())
              << path;
          if (off + len > contents.size()) {
            contents.resize(off + len, '\0');
          }
          contents.replace(off, len, data);
        }
        ASSERT_TRUE(fs.Close(*fd).ok());
        break;
      }
    }
  }

  // Everything the model holds must be readable with identical bytes.
  ASSERT_TRUE(fs.SyncAll().ok());
  // Some ops folded (the TFS applied fewer than were logged), none failed.
  EXPECT_EQ((*sys)->tfs()->ops_rejected(), 0u);
  EXPECT_LT((*sys)->tfs()->ops_applied(), (*client)->fs()->ops_logged());
  for (const auto& [path, contents] : model) {
    auto got = read_all(path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(*got, contents) << path;
  }
  // And the volume must be structurally sound.
  auto report = RunFsck((*sys)->volume());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->files, model.size());

  // What the batches left in SCM, read by a fresh mount of the region.
  pxfs.reset();
  client->reset();
  sys->reset();
  options.fresh = false;
  auto remounted = AerieSystem::Create(options);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto reader = (*remounted)->NewClient();
  ASSERT_TRUE(reader.ok());
  Pxfs after((*reader)->fs());
  for (const auto& [path, contents] : model) {
    auto got = read_all_from(after, path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(*got, contents) << path << " after remount";
  }
  auto remount_report = RunFsck((*remounted)->volume());
  ASSERT_TRUE(remount_report.ok());
  EXPECT_TRUE(remount_report->ok()) << remount_report->Summary();
  ::unlink(image.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PxfsPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace aerie
