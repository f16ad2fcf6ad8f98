#include "src/osd/mfile.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/scm/crash_sim.h"

namespace aerie {

namespace {

constexpr uint64_t kMFileMagic = 0x41455249450d0001ULL;
constexpr uint64_t kFlagSingleExtent = 1;

struct MHeaderRep {
  uint64_t magic;
  uint64_t size;
  // Packed root pointer: bits [12..63] block offset (4KB aligned), bits
  // [0..5] tree height. One atomic store changes both.
  uint64_t root;
  uint64_t flags;
  uint64_t capacity;  // single-extent mode: allocated bytes
  uint64_t link_count;
  uint64_t acl;
};

uint64_t PackRoot(uint64_t offset, uint32_t height) {
  return offset | height;
}
uint64_t RootOffset(uint64_t packed) { return packed & ~0xfffULL; }
uint32_t RootHeight(uint64_t packed) {
  return static_cast<uint32_t>(packed & 0x3f);
}

// Pages covered by a tree of `height` levels of indirect blocks.
uint64_t Coverage(uint32_t height) {
  uint64_t pages = 1;
  for (uint32_t i = 0; i < height; ++i) {
    pages *= MFile::kPointersPerBlock;
  }
  return pages;
}

MHeaderRep* HeaderAt(const OsdContext& ctx, Oid oid) {
  return reinterpret_cast<MHeaderRep*>(ctx.region->PtrAt(oid.offset()));
}

uint64_t* BlockAt(const OsdContext& ctx, uint64_t offset) {
  return reinterpret_cast<uint64_t*>(ctx.region->PtrAt(offset));
}

Result<uint64_t> AllocZeroedBlock(const OsdContext& ctx) {
  auto off = ctx.alloc->Alloc(0);
  if (!off.ok()) {
    return off.status();
  }
  std::memset(ctx.region->PtrAt(*off), 0, kScmPageSize);
  ctx.region->WlFlush(ctx.region->PtrAt(*off), kScmPageSize);
  ctx.region->Fence();
  return *off;
}

}  // namespace

Result<MFile> MFile::Create(const OsdContext& ctx, uint32_t acl) {
  AERIE_SCM_LAYER("osd");
  if (!ctx.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "mFile creation requires the allocator");
  }
  auto head = ctx.alloc->Alloc(0);
  if (!head.ok()) {
    return head.status();
  }
  auto* hdr = reinterpret_cast<MHeaderRep*>(ctx.region->PtrAt(*head));
  std::memset(hdr, 0, sizeof(*hdr));
  hdr->acl = acl;
  ctx.region->WlFlush(hdr, sizeof(*hdr));
  ctx.region->Fence();
  ctx.region->PersistU64(&hdr->magic, kMFileMagic);
  return MFile(ctx, Oid::Make(ObjType::kMFile, *head));
}

Result<MFile> MFile::CreateSingleExtent(const OsdContext& ctx, uint32_t acl,
                                        uint64_t capacity_bytes) {
  AERIE_SCM_LAYER("osd");
  if (!ctx.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "mFile creation requires the allocator");
  }
  auto head = ctx.alloc->Alloc(0);
  if (!head.ok()) {
    return head.status();
  }
  auto data = ctx.alloc->AllocBytes(capacity_bytes);
  if (!data.ok()) {
    return data.status();
  }
  const int order = BuddyAllocator::OrderForBytes(capacity_bytes);
  auto* hdr = reinterpret_cast<MHeaderRep*>(ctx.region->PtrAt(*head));
  std::memset(hdr, 0, sizeof(*hdr));
  hdr->acl = acl;
  hdr->flags = kFlagSingleExtent;
  hdr->capacity = (1ULL << order) * kScmPageSize;
  hdr->root = PackRoot(*data, 0);
  ctx.region->WlFlush(hdr, sizeof(*hdr));
  ctx.region->Fence();
  ctx.region->PersistU64(&hdr->magic, kMFileMagic);
  return MFile(ctx, Oid::Make(ObjType::kMFile, *head));
}

Result<MFile> MFile::Open(const OsdContext& ctx, Oid oid) {
  if (oid.type() != ObjType::kMFile) {
    return Status(ErrorCode::kInvalidArgument, "oid is not an mFile");
  }
  if (oid.offset() + sizeof(MHeaderRep) > ctx.region->size()) {
    return Status(ErrorCode::kInvalidArgument, "oid out of range");
  }
  if (HeaderAt(ctx, oid)->magic != kMFileMagic) {
    return Status(ErrorCode::kCorrupted, "bad mFile magic");
  }
  return MFile(ctx, oid);
}

// Header fields the TFS persists while clients read them: acquire loads.
uint64_t MFile::size() const {
  return ScmRegion::LoadU64(&HeaderAt(ctx_, oid_)->size);
}
bool MFile::single_extent() const {
  return (HeaderAt(ctx_, oid_)->flags & kFlagSingleExtent) != 0;
}
uint64_t MFile::capacity() const { return HeaderAt(ctx_, oid_)->capacity; }
uint32_t MFile::acl() const {
  return static_cast<uint32_t>(
      ScmRegion::LoadU64(&HeaderAt(ctx_, oid_)->acl));
}
void MFile::SetAcl(uint32_t new_acl) {
  AERIE_SCM_LAYER("osd");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->acl, new_acl);
}

uint64_t MFile::link_count() const {
  return ScmRegion::LoadU64(&HeaderAt(ctx_, oid_)->link_count);
}
void MFile::SetLinkCount(uint64_t n) {
  AERIE_SCM_LAYER("osd");
  ctx_.region->PersistU64(&HeaderAt(ctx_, oid_)->link_count, n);
}

Result<uint64_t> MFile::ExtentForPage(uint64_t page_index) const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    if (page_index * kScmPageSize >= hdr->capacity) {
      return Status(ErrorCode::kNotFound, "beyond single extent");
    }
    return RootOffset(hdr->root) + page_index * kScmPageSize;
  }
  const uint64_t packed = ScmRegion::LoadU64(&hdr->root);
  if (RootOffset(packed) == 0) {
    return Status(ErrorCode::kNotFound, "empty file");
  }
  const uint32_t height = RootHeight(packed);
  if (page_index >= Coverage(height)) {
    return Status(ErrorCode::kNotFound, "page beyond tree coverage");
  }
  uint64_t block = RootOffset(packed);
  for (uint32_t level = height; level > 0; --level) {
    const uint64_t stride = Coverage(level - 1);
    const uint64_t slot = page_index / stride;
    page_index %= stride;
    const uint64_t next = ScmRegion::LoadU64(BlockAt(ctx_, block) + slot);
    if (next == 0) {
      return Status(ErrorCode::kNotFound, "hole");
    }
    block = next;
  }
  return block;
}

Result<uint64_t> MFile::Read(uint64_t offset, std::span<char> out) const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  const uint64_t file_size = ScmRegion::LoadU64(&hdr->size);
  if (offset >= file_size) {
    return 0;
  }
  const uint64_t want = std::min<uint64_t>(out.size(), file_size - offset);
  if (hdr->flags & kFlagSingleExtent) {
    std::memcpy(out.data(), ctx_.region->PtrAt(RootOffset(hdr->root)) + offset,
                want);
    return want;
  }
  uint64_t done = 0;
  while (done < want) {
    const uint64_t pos = offset + done;
    const uint64_t page = pos / kScmPageSize;
    const uint64_t in_page = pos % kScmPageSize;
    const uint64_t chunk = std::min(want - done, kScmPageSize - in_page);
    auto extent = ExtentForPage(page);
    if (extent.ok()) {
      std::memcpy(out.data() + done, ctx_.region->PtrAt(*extent) + in_page,
                  chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);  // sparse hole reads zero
    }
    done += chunk;
  }
  return done;
}

Status MFile::WriteInPlace(uint64_t offset, std::span<const char> data) {
  AERIE_SCM_LAYER("osd");
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    if (offset + data.size() > hdr->capacity) {
      return Status(ErrorCode::kOutOfSpace, "beyond single-extent capacity");
    }
    ctx_.region->StreamWrite(
        ctx_.region->PtrAt(RootOffset(hdr->root)) + offset, data.data(),
        data.size());
    return OkStatus();
  }
  // Verify all pages are mapped before the first byte is written.
  const uint64_t first_page = offset / kScmPageSize;
  const uint64_t last_page = (offset + data.size() - 1) / kScmPageSize;
  for (uint64_t p = first_page; p <= last_page; ++p) {
    AERIE_RETURN_IF_ERROR(ExtentForPage(p).status());
  }
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t page = pos / kScmPageSize;
    const uint64_t in_page = pos % kScmPageSize;
    const uint64_t chunk =
        std::min<uint64_t>(data.size() - done, kScmPageSize - in_page);
    auto extent = ExtentForPage(page);
    AERIE_CHECK(extent.ok());
    ctx_.region->StreamWrite(ctx_.region->PtrAt(*extent) + in_page,
                             data.data() + done, chunk);
    done += chunk;
  }
  return OkStatus();
}

Status MFile::GrowHeightTo(uint32_t target) {
  AERIE_SCM_LAYER("osd");
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  uint64_t packed = hdr->root;
  while (RootOffset(packed) != 0 && RootHeight(packed) < target) {
    auto block = AllocZeroedBlock(ctx_);
    if (!block.ok()) {
      return block.status();
    }
    uint64_t* slots = BlockAt(ctx_, *block);
    slots[0] = RootOffset(packed);
    ctx_.region->WlFlush(slots, sizeof(uint64_t));
    ctx_.region->Fence();
    // Root offset and height change together in one atomic store.
    packed = PackRoot(*block, RootHeight(packed) + 1);
    ctx_.region->PersistU64(&hdr->root, packed);
  }
  return OkStatus();
}

Result<uint64_t*> MFile::LeafSlot(uint64_t page_index, bool create) {
  const uint64_t packed = HeaderAt(ctx_, oid_)->root;
  const uint32_t height = RootHeight(packed);
  if (RootOffset(packed) == 0 || page_index >= Coverage(height)) {
    AERIE_CHECK(!create);
    return static_cast<uint64_t*>(nullptr);
  }
  uint64_t block = RootOffset(packed);
  for (uint32_t level = height; level > 1; --level) {
    const uint64_t stride = Coverage(level - 1);
    uint64_t* slot = BlockAt(ctx_, block) + page_index / stride;
    page_index %= stride;
    if (*slot == 0) {
      if (!create) {
        return static_cast<uint64_t*>(nullptr);
      }
      AERIE_ASSIGN_OR_RETURN(uint64_t child, AllocZeroedBlock(ctx_));
      ctx_.region->PersistU64(slot, child);
    }
    block = *slot;
  }
  return BlockAt(ctx_, block) + page_index;
}

Status MFile::AttachExtents(uint64_t first_page,
                            std::span<const uint64_t> extents) {
  AERIE_SCM_LAYER("osd");
  // Suppressing this flush leaves the run's slots unflushed: once the log
  // is checkpointed a crash loses the mapping of acknowledged pages.
  static const int kFlushSite = RegisterPersistSite("mfile.attach.flush");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied,
                  "structural mFile mutation requires the allocator");
  }
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    return Status(ErrorCode::kNotSupported,
                  "single-extent mFiles have fixed storage");
  }
  const uint64_t n = extents.size();
  if (n == 0 || first_page >= kMaxPages || n > kMaxPages - first_page) {
    return Status(ErrorCode::kInvalidArgument, "bad page run");
  }
  for (uint64_t extent : extents) {
    if (extent == 0 || extent % kScmPageSize != 0 ||
        extent >= ctx_.region->size()) {
      return Status(ErrorCode::kInvalidArgument, "bad extent offset");
    }
  }
  // Pages of the run that share a leaf block: up to the leaf's end.
  auto leaf_run = [&](uint64_t i) {
    return std::min(n - i, kPointersPerBlock -
                               (first_page + i) % kPointersPerBlock);
  };
  for (uint64_t i = 0; i < n; i += leaf_run(i)) {
    AERIE_ASSIGN_OR_RETURN(uint64_t* slots,
                           LeafSlot(first_page + i, /*create=*/false));
    for (uint64_t j = 0; slots != nullptr && j < leaf_run(i); ++j) {
      if (slots[j] != 0 && slots[j] != extents[i + j]) {
        return Status(ErrorCode::kAlreadyExists, "page already mapped");
      }
    }
  }

  if (RootOffset(hdr->root) == 0) {
    AERIE_ASSIGN_OR_RETURN(uint64_t block, AllocZeroedBlock(ctx_));
    ctx_.region->PersistU64(&hdr->root, PackRoot(block, 1));
  }
  const uint64_t last_page = first_page + n - 1;
  while (last_page >= Coverage(RootHeight(hdr->root))) {
    AERIE_RETURN_IF_ERROR(GrowHeightTo(RootHeight(hdr->root) + 1));
  }
  for (uint64_t i = 0; i < n; i += leaf_run(i)) {
    AERIE_ASSIGN_OR_RETURN(uint64_t* slots,
                           LeafSlot(first_page + i, /*create=*/true));
    const uint64_t run = leaf_run(i);
    for (uint64_t j = 0; j < run; ++j) {
      reinterpret_cast<std::atomic<uint64_t>*>(&slots[j])->store(
          extents[i + j], std::memory_order_release);
    }
    ctx_.region->WlFlush(slots, run * sizeof(uint64_t), kFlushSite);
  }
  ctx_.region->Fence();
  return OkStatus();
}

Status MFile::SetSize(uint64_t bytes) {
  AERIE_SCM_LAYER("osd");
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if ((hdr->flags & kFlagSingleExtent) && bytes > hdr->capacity) {
    return Status(ErrorCode::kOutOfSpace, "beyond single-extent capacity");
  }
  ctx_.region->PersistU64(&hdr->size, bytes);
  return OkStatus();
}

namespace {

// Frees the subtree rooted at `block` (level >= 1: indirect block; the walk
// frees data extents whose page index is >= keep_pages). Returns true if the
// block became empty and was freed.
bool FreeSubtree(const OsdContext& ctx, uint64_t block, uint32_t level,
                 uint64_t base_page, uint64_t keep_pages) {
  uint64_t* slots = BlockAt(ctx, block);
  bool any_kept = false;
  const uint64_t stride = Coverage(level - 1);
  for (uint64_t i = 0; i < MFile::kPointersPerBlock; ++i) {
    if (slots[i] == 0) {
      continue;
    }
    const uint64_t child_base = base_page + i * stride;
    if (child_base >= keep_pages) {
      if (level == 1) {
        (void)ctx.alloc->Free(slots[i], 0);
      } else {
        (void)FreeSubtree(ctx, slots[i], level - 1, child_base, 0);
      }
      ctx.region->PersistU64(&slots[i], 0);
    } else if (level > 1 && child_base + stride > keep_pages) {
      if (FreeSubtree(ctx, slots[i], level - 1, child_base, keep_pages)) {
        ctx.region->PersistU64(&slots[i], 0);
      } else {
        any_kept = true;
      }
    } else {
      any_kept = true;
    }
  }
  if (!any_kept) {
    (void)ctx.alloc->Free(block, 0);
    return true;
  }
  return false;
}

}  // namespace

Status MFile::Truncate(uint64_t bytes) {
  AERIE_SCM_LAYER("osd");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied, "truncate requires allocator");
  }
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    return SetSize(std::min(bytes, hdr->capacity));
  }
  const uint64_t keep_pages = (bytes + kScmPageSize - 1) / kScmPageSize;
  if (RootOffset(hdr->root) != 0) {
    if (FreeSubtree(ctx_, RootOffset(hdr->root), RootHeight(hdr->root), 0,
                    keep_pages)) {
      ctx_.region->PersistU64(&hdr->root, 0);
    }
  }
  // NOTE: Truncate is metadata-only: it does NOT zero the boundary page's
  // tail. Zero-fill is a *data* effect, and data effects are the client's
  // (paper §4.2: clients write data directly; the service only changes
  // metadata). PXFS zeroes the tail at truncate time; doing it here would
  // replay after — and clobber — any in-place writes the client performed
  // between batching the truncate and shipping it.
  return SetSize(bytes);
}

Status MFile::Destroy() {
  AERIE_SCM_LAYER("osd");
  if (!ctx_.can_allocate()) {
    return Status(ErrorCode::kPermissionDenied, "destroy requires allocator");
  }
  MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    (void)ctx_.alloc->FreeBytes(RootOffset(hdr->root), hdr->capacity);
  } else if (RootOffset(hdr->root) != 0) {
    (void)FreeSubtree(ctx_, RootOffset(hdr->root), RootHeight(hdr->root), 0,
                      0);
  }
  ctx_.region->PersistU64(&hdr->magic, 0);
  return ctx_.alloc->Free(oid_.offset(), 0);
}

namespace {

bool WalkExtents(const OsdContext& ctx, uint64_t block, uint32_t level,
                 uint64_t base_page,
                 const std::function<bool(uint64_t, uint64_t)>& visit) {
  const uint64_t* slots = BlockAt(ctx, block);
  const uint64_t stride = Coverage(level - 1);
  for (uint64_t i = 0; i < MFile::kPointersPerBlock; ++i) {
    if (slots[i] == 0) {
      continue;
    }
    if (level == 1) {
      if (!visit(base_page + i, slots[i])) {
        return false;
      }
    } else {
      if (!WalkExtents(ctx, slots[i], level - 1, base_page + i * stride,
                       visit)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Status MFile::ForEachExtent(
    const std::function<bool(uint64_t, uint64_t)>& visit) const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->flags & kFlagSingleExtent) {
    visit(0, RootOffset(hdr->root));
    return OkStatus();
  }
  if (RootOffset(hdr->root) == 0) {
    return OkStatus();
  }
  WalkExtents(ctx_, RootOffset(hdr->root), RootHeight(hdr->root), 0, visit);
  return OkStatus();
}

Status MFile::Validate() const {
  const MHeaderRep* hdr = HeaderAt(ctx_, oid_);
  if (hdr->magic != kMFileMagic) {
    return Status(ErrorCode::kCorrupted, "bad magic");
  }
  const uint64_t region_size = ctx_.region->size();
  if (hdr->flags & kFlagSingleExtent) {
    if (RootOffset(hdr->root) + hdr->capacity > region_size ||
        hdr->size > hdr->capacity) {
      return Status(ErrorCode::kCorrupted, "single extent out of range");
    }
    return OkStatus();
  }
  Status st = OkStatus();
  (void)ForEachExtent([&](uint64_t, uint64_t extent) {
    if (extent % kScmPageSize != 0 || extent + kScmPageSize > region_size) {
      st = Status(ErrorCode::kCorrupted, "extent pointer out of range");
      return false;
    }
    return true;
  });
  return st;
}

}  // namespace aerie
