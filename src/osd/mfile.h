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
