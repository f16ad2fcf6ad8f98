// FlatFS: key/value file interface over Aerie (paper §6.2).
//
// A specialized interface for applications that store many small files in a
// single directory (mail stores, wikis, proxy caches). Compared to PXFS:
//   * files are single-extent mFiles with a known maximum size, so a get or
//     put is one memcpy — no radix tree, no per-open state;
//   * the namespace is one flat collection keyed by arbitrary byte strings —
//     no hierarchical path resolution, no name cache needed;
//   * all files share the collection's permissions — no per-file metadata;
//   * scalable concurrency: operations take the collection lock in intent
//     mode and a fine-grained lock on the *bucket extent* the key hashes to;
//     only a table rehash takes the whole-collection write lock.
//
// FlatFS and PXFS share the same volume layout and the same TFS; an
// application can reach the same files through either interface.
#ifndef AERIE_SRC_FLATFS_FLATFS_H_
#define AERIE_SRC_FLATFS_FLATFS_H_

#include <functional>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/bounded_map.h"
#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/libfs/client.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"

namespace aerie {

class FlatFs {
 public:
  struct Options {
    // Fixed capacity of every file (paper: "small files with a known
    // maximum size"). Puts larger than this fail kOutOfSpace.
    uint64_t file_capacity = 64 << 10;
    // Direct data path (DESIGN.md §10): gets served from a cached value
    // location under the clerk's direct-access epoch, skipping the bucket
    // lock + collection lookup. Also gated by AERIE_DIRECT.
    bool direct_data = true;
  };

  FlatFs(LibFs* fs, const Options& options);
  explicit FlatFs(LibFs* fs) : FlatFs(fs, Options{}) {}
  ~FlatFs();

  FlatFs(const FlatFs&) = delete;
  FlatFs& operator=(const FlatFs&) = delete;

  // Stores `data` under `key` (creates or replaces). One operation: no
  // open/write/close sequence (paper §7.3.2).
  Status Put(std::string_view key, std::span<const char> data);

  // Reads the value into `out`; returns bytes copied. kNotFound if absent.
  Result<uint64_t> Get(std::string_view key, std::span<char> out);
  // Convenience allocation-returning form.
  Result<std::string> Get(std::string_view key);

  Status Erase(std::string_view key);
  Result<bool> Exists(std::string_view key);

  // Visits every key (no value copy). Takes the collection read lock.
  Status Scan(const std::function<bool(std::string_view)>& visit);

  // Ships batched metadata (put/erase become visible to other clients).
  Status Sync();

  uint64_t file_capacity() const { return options_.file_capacity; }

 private:
  friend class FlatFsTestPeer;  // shrinks the value cache in tests

  struct PendingEntry {
    uint64_t oid_raw;
    uint64_t size;
    bool erased;
  };

  // Acquires the lock covering `key`'s bucket (plus the intent lock on the
  // collection); escalates to the whole-collection lock when a rehash is
  // imminent. Returns the lock id acquired.
  Result<LockId> LockBucket(std::string_view key, bool write);

  Result<std::pair<Oid, uint64_t>> Find(const Collection& coll,
                                        std::string_view key);

  // --- Direct data path (DESIGN.md §10) ---
  // Values are single extents, so a direct get is one epoch-pinned memcpy
  // from the cached extent base. Cached under the bucket lock; any revoke
  // anywhere bumps the epoch and forces the locked path. A full cache
  // evicts one value at a time.
  struct DirectValue {
    uint64_t extent = 0;  // region offset of the value bytes
    uint64_t size = 0;
    uint64_t epoch = 0;
  };
  static constexpr size_t kDirectValuesMax = 1 << 16;

  bool DirectUsable() const {
    return options_.direct_data && LibFs::DirectEnabled();
  }
  bool TryDirectGet(std::string_view key, std::span<char> out, uint64_t* n);
  // Caller holds `lock` (the bucket or collection lock covering `key`).
  void CacheDirectValue(std::string_view key, LockId lock, Oid file,
                        uint64_t size);
  void DropDirectValue(std::string_view key);

  LibFs* fs_;
  Options options_;
  OsdContext ctx_;
  Oid root_;
  uint64_t hook_token_ = 0;

  std::mutex overlay_mu_;
  std::unordered_map<std::string, PendingEntry, StringViewHash,
                     std::equal_to<>>
      pending_;

  std::shared_mutex direct_mu_;
  BoundedMap<std::string, DirectValue, StringViewHash, std::equal_to<>>
      direct_values_{kDirectValuesMax};
};

}  // namespace aerie

#endif  // AERIE_SRC_FLATFS_FLATFS_H_
