// mFile object: offset -> data-extent map (paper §5.3.2, Figure 3).
//
// PXFS files are mFiles with page-sized (4KB) extents indexed by a radix
// tree of indirect blocks (512 pointers per 4KB block). FlatFS files are
// mFiles in *single-extent* mode: one extent holds the whole file, so a get
// or put is a single memcpy (paper §6.2).
//
// Responsibility split mirrors the paper:
//   * clients read file data directly (ExtentForPage + memcpy, no service);
//   * clients write data in place directly when the extent exists;
//   * structural changes (attaching extents a client pre-allocated, growing
//     the tree, truncation, setting the size) are metadata and are applied
//     by the TFS after validation.
//
// Crash consistency: indirect-block pointer stores and the size field are
// single atomic 64-bit persists; height changes pack the height into the low
// bits of the root pointer so root+height swing in one store.
#ifndef AERIE_SRC_OSD_MFILE_H_
#define AERIE_SRC_OSD_MFILE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/osd/oid.h"
#include "src/osd/osd_context.h"

namespace aerie {

class MFile {
 public:
  static constexpr uint64_t kPointersPerBlock = kScmPageSize / 8;  // 512
  // Largest file the TFS lets a client build (page runs stay below it).
  static constexpr uint64_t kMaxFileBytes = 1ull << 46;
  static constexpr uint64_t kMaxPages = kMaxFileBytes / kScmPageSize;

  // Creates a paged (radix-tree) mFile.
  static Result<MFile> Create(const OsdContext& ctx, uint32_t acl);
  // Creates a single-extent mFile with `capacity_bytes` of storage
  // (rounded up to a power-of-two page multiple). FlatFS mode.
  static Result<MFile> CreateSingleExtent(const OsdContext& ctx, uint32_t acl,
                                          uint64_t capacity_bytes);
  static Result<MFile> Open(const OsdContext& ctx, Oid oid);

  Oid oid() const { return oid_; }
  uint64_t size() const;
  bool single_extent() const;
  uint64_t capacity() const;  // single-extent mode: allocated bytes
  uint32_t acl() const;
  void SetAcl(uint32_t acl);

  // Collection-membership count (paper §5.3.4: transitions between
  // hierarchical and explicit locking). Maintained by the TFS.
  uint64_t link_count() const;
  void SetLinkCount(uint64_t n);

  // --- Reads (untrusted clients; direct memory access) ---
  // Region offset of the extent backing `page_index`, or kNotFound (hole).
  Result<uint64_t> ExtentForPage(uint64_t page_index) const;
  // Copies up to len bytes from `offset`; holes read as zeros. Returns bytes
  // read (clamped by size()).
  Result<uint64_t> Read(uint64_t offset, std::span<char> out) const;

  // --- Direct data path (DESIGN.md §10) ---
  // Immutable snapshot of the offset -> extent map, taken while the caller
  // holds lock authority on the file. Region offsets of 4KB pages; 0 = hole.
  // A snapshot stays safe to use after the lock is released *only* under a
  // valid direct-access epoch from the clerk (extents are never reclaimed
  // while any client could still hold authority over them).
  class DirectExtentMap {
   public:
    uint64_t size() const { return size_; }  // file size when snapped
    // Region offset of page `i` (0 = hole); `i` is below size()'s pages.
    uint64_t page(uint64_t i) const { return i == 0 ? first_ : rest_[i - 1]; }
    // Sets the size; every page starts as a hole.
    void Resize(uint64_t size) {
      size_ = size;
      first_ = 0;
      const uint64_t pages = (size + kScmPageSize - 1) / kScmPageSize;
      rest_.assign(pages > 1 ? pages - 1 : 0, 0);
    }
    void set_page(uint64_t i, uint64_t offset) {
      (i == 0 ? first_ : rest_[i - 1]) = offset;
    }

   private:
    uint64_t size_ = 0;
    // Page 0 lives inline, so a one-page file's map needs no heap block.
    uint64_t first_ = 0;
    std::vector<uint64_t> rest_;
  };

  // Copies out of the snapped extents without touching the mFile header
  // (no Open, no size load — the snapshot is the truth the lease froze).
  // Holes read as zeros; returns bytes read, clamped to map.size().
  static uint64_t ReadDirect(ScmRegion* region, const DirectExtentMap& map,
                             uint64_t offset, std::span<char> out);

  // In-place overwrite strictly within [0, map.size()) over mapped pages;
  // kNotFound if any touched page is a hole (caller falls back to the
  // locked path, which allocates + logs an attach). Streams the bytes and,
  // when `flush` is set, drains write-combining buffers at the registered
  // "libfs.direct.write.bflush" persist site so the overwrite is durable
  // before the caller acknowledges it.
  static Status WriteDirect(ScmRegion* region, const DirectExtentMap& map,
                            uint64_t offset, std::span<const char> data,
                            bool flush);

  // --- In-place data writes (clients, where extents already exist) ---
  // Writes only where extents are present; returns kNotFound if any touched
  // page lacks an extent (caller allocates + logs an attach op).
  Status WriteInPlace(uint64_t offset, std::span<const char> data);

  // --- Structural mutations (TFS after validation) ---
  // Attaches a run of data extents (4KB, pre-allocated): extents[i] backs
  // page first_page + i. Grows the tree height as needed, walks to each
  // leaf block once, stores its slots, flushes them as one range (the
  // "mfile.attach.flush" persist site) and fences once at the end. All or
  // nothing: fails kAlreadyExists, storing nothing, if a page maps a
  // different extent; a page already mapping its own extent (a replayed
  // attach) is kept.
  Status AttachExtents(uint64_t first_page, std::span<const uint64_t> extents);
  // Publishes a new file size (atomic).
  Status SetSize(uint64_t bytes);
  // Frees extents wholly beyond `bytes` and publishes the new size.
  Status Truncate(uint64_t bytes);
  // Frees all storage including the header (unlink with no remaining links).
  Status Destroy();

  // Visits (page_index, extent_offset) for every mapped page.
  Status ForEachExtent(
      const std::function<bool(uint64_t, uint64_t)>& visit) const;

  // Structural validation (recovery tests): every pointer in range, no
  // cycles by construction (tree), height consistent.
  Status Validate() const;

 private:
  MFile(const OsdContext& ctx, Oid oid) : ctx_(ctx), oid_(oid) {}

  Status GrowHeightTo(uint32_t height);
  // The leaf slot mapping `page_index`. With `create`, missing indirect
  // blocks are allocated and linked (the tree must already cover the
  // page); without it, null when the path does not exist.
  Result<uint64_t*> LeafSlot(uint64_t page_index, bool create);

  OsdContext ctx_;
  Oid oid_;
};

}  // namespace aerie

#endif  // AERIE_SRC_OSD_MFILE_H_
