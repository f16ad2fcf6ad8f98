// PXFS: POSIX-style file-system interface over Aerie (paper §6.1).
//
// Provides hierarchical names, open/read/write/close with file descriptors,
// create/unlink/mkdir/rmdir/rename/stat/readdir/chmod/truncate/fsync, with
// most POSIX semantics: files movable across directories, access retained to
// open files after unlink or permission change, hard links.
//
// How the paper's mechanisms surface here:
//   * path resolution reads directory collections straight from SCM under
//     clerk-granted read locks; an optional per-client absolute-path name
//     cache short-circuits the walk (§6.1 "Caching"; the PXFS-NNC
//     configuration disables it). A miss resumes from the deepest cached
//     directory on the path, and a full cache evicts one entry at a time;
//   * creates/writes take objects and extents from libFS pools, write data
//     directly, and log metadata ops into the batch;
//   * all volatile per-file client state lives here, keyed by oid under
//     one lock: a *shadow* of each file's batched-but-unshipped extents and
//     size, which makes them visible to this client's own operations
//     (§6.1 "Storage Objects"), and a per-directory name overlay for
//     pending namespace updates. It dies together (Forget): when a pooled
//     oid is born again here, or when a global lock leaves this client;
//   * reads and in-place overwrites are loads and stores on mapped SCM
//     under a clerk-local lock grant: once the clerk caches the file's
//     lock, the data path makes no RPC (§4.2);
//   * directory write locks are hierarchical (XH) by default, so file locks
//     under a directory are granted locally by the clerk;
//   * unlink-while-open: the client notifies the TFS a file is open before
//     logging an unlink of it, or when releasing a revoked lock on it, so
//     the server defers storage reclaim (§6.1 "File sharing").
//
// Thread safety: all operations may be called concurrently; shared state is
// guarded by short critical sections, and cross-client coherence comes from
// the lock protocol.
#ifndef AERIE_SRC_PXFS_PXFS_H_
#define AERIE_SRC_PXFS_PXFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/bounded_map.h"
#include "src/common/hash.h"
#include "src/common/open_flags.h"
#include "src/common/status.h"
#include "src/libfs/client.h"
#include "src/obs/obs.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"

namespace aerie {

struct PxfsStat {
  Oid oid;
  bool is_dir = false;
  uint64_t size = 0;
  uint64_t link_count = 0;
  uint32_t acl = 0;
};

struct PxfsDirent {
  std::string name;
  Oid oid;
  bool is_dir;
};

class Pxfs {
 public:
  struct Options {
    // Per-client absolute-path name cache (PXFS vs PXFS-NNC, §7.3.1).
    bool name_cache = true;
    // Entry bound of the name cache.
    size_t name_cache_max = 1 << 16;
    // Take directory write locks hierarchically (XH) so descendant file
    // locks are clerk-local. Explicit (X) is the ablation configuration.
    bool hierarchical_dir_locks = true;
    // Enforce memory-protection semantics on the data path (paper §5.3.3):
    // when a file's ACL cannot be expressed by read/write memory protection
    // (e.g. write-only files), data access goes through the trusted service
    // instead of direct loads/stores.
    bool enforce_memory_protection = false;
  };

  Pxfs(LibFs* fs, const Options& options);
  explicit Pxfs(LibFs* fs) : Pxfs(fs, Options{}) {}
  ~Pxfs();

  Pxfs(const Pxfs&) = delete;
  Pxfs& operator=(const Pxfs&) = delete;

  // --- File descriptor API ---
  Result<int> Open(std::string_view path, int flags);
  Status Close(int fd);
  Result<uint64_t> Read(int fd, std::span<char> out);
  Result<uint64_t> Write(int fd, std::span<const char> data);
  Result<uint64_t> Pread(int fd, uint64_t offset, std::span<char> out);
  Result<uint64_t> Pwrite(int fd, uint64_t offset,
                          std::span<const char> data);
  Result<uint64_t> Seek(int fd, uint64_t offset);
  Status Ftruncate(int fd, uint64_t size);
  Status Fsync(int fd);
  Result<PxfsStat> Fstat(int fd);

  // --- Namespace API ---
  Status Create(std::string_view path);  // create + close
  Status Unlink(std::string_view path);
  Status Mkdir(std::string_view path);
  Status Rmdir(std::string_view path);
  Status Rename(std::string_view from, std::string_view to);
  // Hard link: `to` becomes another name for the file at `from` (directories
  // cannot be hard-linked). Raises the file's membership count (§5.3.4).
  Status Link(std::string_view from, std::string_view to);
  Result<PxfsStat> Stat(std::string_view path);
  Result<std::vector<PxfsDirent>> ReadDir(std::string_view path);
  Status Chmod(std::string_view path, uint32_t acl);
  Status Truncate(std::string_view path, uint64_t size);

  // Working directory for relative paths. Relative resolution starts here
  // and — per the paper (§6.1) — never consults the name cache, since
  // relative paths "tend to be shorter".
  Status SetCwd(std::string_view path);
  std::string cwd() const;

  // Ships batched metadata and persists data (libfs_sync).
  Status SyncAll();

  LibFs* libfs() { return fs_; }

  // --- Introspection (tests / benches) ---
  uint64_t name_cache_hits() const { return cache_hits_.value(); }
  uint64_t name_cache_misses() const { return cache_misses_.value(); }
  uint64_t name_cache_ancestor_hits() const {
    return cache_ancestor_hits_.value();
  }
  void FlushNameCache();
  size_t name_cache_size();
  // Names this client's directory overlays hold as removed.
  size_t overlay_removals() const;

 private:
  // This client's batched-but-unshipped view of one file.
  struct FileShadow {
    std::map<uint64_t, uint64_t> extents;  // page index -> extent offset
    uint64_t size = 0;
    bool has_size = false;
    // Pages at or above this index have a pending truncate queued: their
    // SCM mapping will be freed when the batch applies, so reads/writes must
    // not trust it (only shadow extents are valid there).
    uint64_t mfile_floor = ~0ull;
  };
  // Pending namespace updates of one directory. A removal only matters
  // until the op that made it ships: the collection then says the same.
  struct DirOverlay {
    std::unordered_map<std::string, uint64_t, StringViewHash, std::equal_to<>>
        added;  // name -> oid raw
    std::set<std::string, std::less<>> removed;
    uint64_t newest_removal = 0;  // LibFs op sequence of the latest removal
  };
  struct FdEntry {
    Oid oid;
    uint64_t offset = 0;
    int flags = 0;
    std::vector<LockId> ancestors;  // lock chain root..parent (incl parent)
  };
  struct Resolved {
    Oid parent;               // directory containing the leaf
    Oid target;               // null if the leaf does not exist
    std::string leaf;         // final path component ("" for root)
    std::string path;         // canonical absolute path (name-cache key)
    std::vector<LockId> ancestors;  // locks root..parent (excludes target)
  };
  struct CacheEntry {
    uint64_t target_raw;
    uint64_t parent_raw;
    std::vector<LockId> ancestors;
  };

  // Resolves `path` (absolute, or relative to the cwd). Takes S locks on
  // each directory walked (released before returning; the clerk keeps the
  // globals cached).
  Result<Resolved> Resolve(std::string_view path, bool fill_cache);

  // Directory lookup through the overlay, then SCM.
  Result<Oid> DirLookup(Oid dir, std::string_view name);

  // Overlay bookkeeping (call *after* LogOp; see implementation note).
  void OverlayAdd(Oid dir, std::string_view name, Oid oid);
  void OverlayRemove(Oid dir, std::string_view name);

  // Drops everything keyed by `oid` (shadow and directory overlay), or by
  // every oid when `oid` is empty. Runs when a pooled oid is born here,
  // since the pool may hand back a dead object's oid.
  void Forget(std::optional<Oid> oid);
  // Forget(everything) + name cache: a global lock left this client.
  void ClearVolatileState();

  // --- Shadows; callers hold state_mu_ (`shadow` may be null) ---
  const FileShadow* FindShadow(Oid file) const;
  // Where `page` lives for this client: its shadow extent, else the
  // persistent extent below the truncate floor, else 0 (a hole).
  static uint64_t ResolvePage(const FileShadow* shadow, const MFile& mfile,
                              uint64_t page);
  static uint64_t SizeOf(const FileShadow* shadow, const MFile& mfile);

  // This client's view of the file size (takes state_mu_).
  uint64_t FileSize(Oid file);

  LockMode DirWriteMode() const {
    return options_.hierarchical_dir_locks ? LockMode::kExclusiveHier
                                           : LockMode::kExclusive;
  }

  // --- File descriptors ---
  // fds_mu_ held: the slot of an open fd, or null for a bad one.
  std::unique_ptr<FdEntry>* FdLocked(int fd);
  // A copy of `fd`'s entry, so callers never touch fds_ unguarded.
  Result<FdEntry> LookupFd(int fd);
  // Sets `fd`'s offset (kBadHandle if it is not open).
  Status SetFdOffset(int fd, uint64_t offset);

  // Read/Pread and Write/Pwrite: an empty `pos` uses the fd's offset (the
  // end of file for O_APPEND writes) and advances it.
  Result<uint64_t> ReadFd(int fd, std::optional<uint64_t> pos,
                          std::span<char> out);
  Result<uint64_t> WriteFd(int fd, std::optional<uint64_t> pos,
                           std::span<const char> data);
  // Caller holds the file lock. WriteAt returns once the bytes are durable
  // (the "pxfs.write.bflush" persist site).
  Result<uint64_t> ReadAt(Oid file, uint64_t offset, std::span<char> out);
  Result<uint64_t> WriteAt(Oid file, uint64_t offset,
                           std::span<const char> data);
  // Caller holds the file's lock exclusively: logs the truncate and applies
  // it to the shadow.
  Status TruncateHeld(Oid file, uint64_t size);

  Status UnlinkLocked(const Resolved& r);

  LibFs* fs_;
  Options options_;
  OsdContext ctx_;
  uint64_t hook_token_ = 0;

  std::mutex fds_mu_;
  std::vector<std::unique_ptr<FdEntry>> fds_;
  std::vector<int> free_fds_;
  std::unordered_map<uint64_t, uint32_t> open_counts_;  // oid -> local opens
  // Files the TFS has been told are open here (paper §6.1 open-file table).
  std::set<uint64_t> notified_open_;

  // Everything PXFS keys by an oid (raw), under one lock and one lifecycle
  // (Forget). Reads take the lock shared.
  mutable std::shared_mutex state_mu_;
  std::unordered_map<uint64_t, FileShadow> shadows_;
  std::unordered_map<uint64_t, DirOverlay> overlay_;

  mutable std::mutex cwd_mu_;
  Oid cwd_oid_;                       // null: cwd is the root
  std::vector<LockId> cwd_ancestors_; // lock chain root..cwd's parent
  std::string cwd_path_ = "/";        // canonical absolute path

  std::mutex cache_mu_;
  BoundedMap<std::string, CacheEntry, StringViewHash, std::equal_to<>>
      name_cache_;
  // Cache statistics live in the obs registry for this Pxfs's lifetime.
  obs::Counter cache_hits_{"pxfs.name_cache.hit"};
  obs::Counter cache_misses_{"pxfs.name_cache.miss"};
  // Misses that resumed the walk from a cached directory on the path.
  obs::Counter cache_ancestor_hits_{"pxfs.name_cache.ancestor_hit"};
  obs::Counter cache_evictions_{"pxfs.name_cache.evict"};
  obs::ScopedRegistration obs_registration_;
};

}  // namespace aerie

#endif  // AERIE_SRC_PXFS_PXFS_H_
