#include "src/pxfs/pxfs.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/scm/manager.h"

namespace aerie {

namespace {

// The next component of `path` after *pos, as a slice of `path` ("" once
// none is left); moves *pos past it. "/a//b/" yields "a", then "b".
std::string_view NextComponent(std::string_view path, size_t* pos) {
  size_t begin = *pos;
  while (begin < path.size() && path[begin] == '/') {
    begin++;
  }
  size_t end = begin;
  while (end < path.size() && path[end] != '/') {
    end++;
  }
  *pos = end;
  return path.substr(begin, end - begin);
}

// The canonical absolute path of `path` below the canonical directory
// `base` ("/" + "a//./b/" -> "/a/b"). '.' is dropped, '..' is rejected.
Result<std::string> CanonicalPath(std::string_view base,
                                  std::string_view path) {
  if (path.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty path");
  }
  std::string out;
  out.reserve(base.size() + path.size() + 1);
  out = base;
  size_t pos = 0;
  for (std::string_view comp = NextComponent(path, &pos); !comp.empty();
       comp = NextComponent(path, &pos)) {
    if (comp == ".") {
      continue;
    }
    if (comp == "..") {
      return Status(ErrorCode::kInvalidArgument,
                    "'..' is not supported in PXFS paths");
    }
    if (out.back() != '/') {
      out += '/';
    }
    out += comp;
  }
  return out;
}

}  // namespace

Pxfs::Pxfs(LibFs* fs, const Options& options)
    : fs_(fs),
      options_(options),
      ctx_(fs->read_context()),
      snapshots_(options.name_cache_max),
      name_cache_(options.name_cache_max) {
  obs_registration_.AddAll(cache_hits_, cache_misses_, cache_ancestor_hits_,
                           cache_evictions_, snapshot_builds_,
                           snapshot_evictions_);
  // Whenever a global lock leaves this client (paper §6.1):
  //   * if it covered a file this client holds open, tell the TFS the file
  //     is open so unlink-reclaim is deferred ("clients with the file open
  //     notify the service ... when releasing the lock");
  //   * flush everything derived from cached authority (name cache,
  //     overlays, shadows, direct snapshots).
  hook_token_ = fs_->AddReleaseHook([this](LockId) {
    // A released lock may have covered any open file (directly, or through
    // a hierarchical ancestor the clerk had cached), so every locally-open,
    // not-yet-notified file is reported before the lock leaves us.
    std::vector<uint64_t> notify;
    {
      std::lock_guard lock(fds_mu_);
      for (const auto& [raw, count] : open_counts_) {
        if (count > 0 && notified_open_.insert(raw).second) {
          notify.push_back(raw);
        }
      }
    }
    for (uint64_t raw : notify) {
      (void)fs_->NotifyOpen(Oid(raw));
    }
    ClearVolatileState();
  });
}

Pxfs::~Pxfs() { fs_->RemoveReleaseHook(hook_token_); }

void Pxfs::Forget(std::optional<Oid> oid) {
  std::unique_lock lock(state_mu_);
  if (!oid) {
    shadows_.clear();
    snapshots_.Clear();
    overlay_.clear();
    return;
  }
  shadows_.erase(oid->raw());
  snapshots_.Erase(oid->raw());
  overlay_.erase(oid->raw());
}

void Pxfs::ClearVolatileState() {
  // Snapshots fold the shadows, and the epoch they were validated under is
  // moving anyway (we are inside a release), so everything goes.
  Forget(std::nullopt);
  FlushNameCache();
}

void Pxfs::FlushNameCache() {
  AERIE_SPAN("namecache", "flush");
  std::lock_guard lock(cache_mu_);
  obs::TraceInstant("namecache.flush.entries", name_cache_.size());
  name_cache_.Clear();
}

size_t Pxfs::name_cache_size() {
  std::lock_guard lock(cache_mu_);
  return name_cache_.size();
}

size_t Pxfs::overlay_removals() const {
  std::shared_lock lock(state_mu_);
  size_t n = 0;
  for (const auto& [raw, ov] : overlay_) {
    n += ov.removed.size();
  }
  return n;
}

Result<Oid> Pxfs::DirLookup(Oid dir, std::string_view name) {
  {
    std::shared_lock lock(state_mu_);
    auto it = overlay_.find(dir.raw());
    if (it != overlay_.end()) {
      auto added = it->second.added.find(name);
      if (added != it->second.added.end()) {
        return Oid(added->second);
      }
      if (it->second.removed.count(name) != 0) {
        return Status(ErrorCode::kNotFound, "name removed");
      }
    }
  }
  AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, dir));
  auto value = coll.Lookup(name);
  if (!value.ok()) {
    return value.status();
  }
  return Oid(*value);
}

void Pxfs::OverlayAdd(Oid dir, std::string_view name, Oid oid) {
  std::unique_lock lock(state_mu_);
  DirOverlay& ov = overlay_[dir.raw()];
  auto added = ov.added.find(name);
  if (added != ov.added.end()) {
    added->second = oid.raw();
  } else {
    ov.added.emplace(name, oid.raw());
  }
  auto removed = ov.removed.find(name);
  if (removed != ov.removed.end()) {
    ov.removed.erase(removed);
  }
}

void Pxfs::OverlayRemove(Oid dir, std::string_view name) {
  // Read after the caller's LogOp, so `seq` covers the removing op.
  const uint64_t seq = fs_->logged_seq();
  const uint64_t shipped = fs_->shipped_seq();
  std::unique_lock lock(state_mu_);
  DirOverlay& ov = overlay_[dir.raw()];
  auto added = ov.added.find(name);
  if (added != ov.added.end()) {
    ov.added.erase(added);
  }
  if (ov.newest_removal <= shipped) {
    // Every earlier removal has reached the TFS: the collection in SCM now
    // answers for those names.
    ov.removed.clear();
  }
  ov.removed.emplace(name);
  ov.newest_removal = seq;
}

const Pxfs::FileShadow* Pxfs::FindShadow(Oid file) const {
  auto it = shadows_.find(file.raw());
  return it == shadows_.end() ? nullptr : &it->second;
}

uint64_t Pxfs::ResolvePage(const FileShadow* shadow, const MFile& mfile,
                           uint64_t page) {
  if (shadow != nullptr) {
    auto it = shadow->extents.find(page);
    if (it != shadow->extents.end()) {
      return it->second;
    }
    // Pages past a pending truncate are holes: their SCM mapping is
    // scheduled to be freed when the batch applies.
    if (page >= shadow->mfile_floor) {
      return 0;
    }
  }
  auto found = mfile.ExtentForPage(page);
  return found.ok() ? *found : 0;
}

uint64_t Pxfs::SizeOf(const FileShadow* shadow, const MFile& mfile) {
  return shadow != nullptr && shadow->has_size ? shadow->size : mfile.size();
}

uint64_t Pxfs::FileSize(Oid file) {
  auto mfile = MFile::Open(ctx_, file);
  if (!mfile.ok()) {
    return 0;
  }
  std::shared_lock lock(state_mu_);
  return SizeOf(FindShadow(file), *mfile);
}

Result<Pxfs::Resolved> Pxfs::Resolve(std::string_view path, bool fill_cache) {
  AERIE_SPAN("pxfs", "resolve");
  // Relative paths resolve from the working directory and skip the name
  // cache entirely (paper §6.1).
  const bool relative = !path.empty() && path[0] != '/';
  Oid start = fs_->pxfs_root();
  std::vector<LockId> ancestors;
  std::string start_path = "/";
  if (relative) {
    std::lock_guard lock(cwd_mu_);
    if (!cwd_oid_.IsNull()) {
      start = cwd_oid_;
      ancestors = cwd_ancestors_;
      start_path = cwd_path_;
    }
  }
  Resolved out;
  AERIE_ASSIGN_OR_RETURN(out.path, CanonicalPath(start_path, path));
  if (out.path.size() == start_path.size()) {
    out.parent = start;
    out.target = start;
    out.leaf = "";
    out.ancestors = std::move(ancestors);
    return out;
  }
  // Components are slices of the canonical key. `pos` is the '/' in front
  // of the next component to walk; `slash` is the one in front of the leaf.
  const std::string_view key = out.path;
  const size_t slash = key.rfind('/');
  size_t pos = start_path.size() == 1 ? 0 : start_path.size();
  out.leaf = key.substr(slash + 1);
  const bool cached = options_.name_cache && !relative;
  const bool fill = cached && fill_cache;

  Oid cur = start;
  if (cached) {
    AERIE_SPAN("namecache", "lookup");
    std::lock_guard lock(cache_mu_);
    if (const CacheEntry* hit = name_cache_.Find(key)) {
      cache_hits_.Add(1);
      out.parent = Oid(hit->parent_raw);
      out.target = Oid(hit->target_raw);
      out.ancestors = hit->ancestors;
      return out;
    }
    cache_misses_.Add(1);
    // Resume from the deepest cached directory on the path: probe the
    // parent prefixes from the leaf upward.
    for (size_t end = slash; end > 0; end = key.rfind('/', end - 1)) {
      const CacheEntry* dir = name_cache_.Find(key.substr(0, end));
      if (dir == nullptr) {
        continue;
      }
      cache_ancestor_hits_.Add(1);
      const Oid oid(dir->target_raw);
      if (oid.type() != ObjType::kCollection) {
        const size_t begin = key.rfind('/', end - 1) + 1;
        return Status(ErrorCode::kNotDirectory,
                      std::string(key.substr(begin, end - begin)));
      }
      cur = oid;
      ancestors = dir->ancestors;
      ancestors.push_back(Oid(dir->parent_raw).lock_id());
      pos = end;
      break;
    }
  }

  // Walk the rest, taking a read lock on each directory while its
  // collection is consulted (paper §6.1 "Naming").
  LockClerk* clerk = fs_->clerk();
  while (pos < slash) {
    const std::string_view name = NextComponent(key, &pos);
    AERIE_RETURN_IF_ERROR(
        clerk->Acquire(cur.lock_id(), LockMode::kShared, ancestors));
    auto child = DirLookup(cur, name);
    clerk->Release(cur.lock_id());
    if (!child.ok()) {
      return child.status();
    }
    if (child->type() != ObjType::kCollection) {
      return Status(ErrorCode::kNotDirectory, std::string(name));
    }
    if (fill) {
      // Entry for each resolved prefix (created on demand, §6.1). A present
      // entry is kept: it is as current as this walk.
      AERIE_SPAN("namecache", "insert");
      std::lock_guard lock(cache_mu_);
      cache_evictions_.Add(name_cache_.Emplace(
          std::string(key.substr(0, pos)), child->raw(), cur.raw(),
          ancestors));
    }
    ancestors.push_back(cur.lock_id());
    cur = *child;
  }

  out.parent = cur;
  out.ancestors = std::move(ancestors);
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(cur.lock_id(), LockMode::kShared, out.ancestors));
  auto target = DirLookup(cur, out.leaf);
  clerk->Release(cur.lock_id());
  if (target.ok()) {
    out.target = *target;
    if (fill) {
      AERIE_SPAN("namecache", "insert");
      std::lock_guard lock(cache_mu_);
      cache_evictions_.Add(name_cache_.Emplace(
          out.path, out.target.raw(), out.parent.raw(), out.ancestors));
    }
  }
  return out;
}

// --- Open / Close ----------------------------------------------------------

Result<int> Pxfs::Open(std::string_view path, int flags) {
  AERIE_SPAN("pxfs", "open");
  if ((flags & (kOpenRead | kOpenWrite)) == 0) {
    return Status(ErrorCode::kInvalidArgument, "open needs read or write");
  }
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/true));
  LockClerk* clerk = fs_->clerk();

  if (r.target.IsNull()) {
    if ((flags & kOpenCreate) == 0) {
      return Status(ErrorCode::kNotFound, std::string(path));
    }
    // Create: write-lock the directory, re-check, take a pooled mFile, and
    // log the create (paper §4.3's "life of a file").
    AERIE_RETURN_IF_ERROR(
        clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
    auto recheck = DirLookup(r.parent, r.leaf);
    if (recheck.ok()) {
      r.target = *recheck;
    } else {
      auto pooled = fs_->TakePooled(ObjType::kMFile);
      if (!pooled.ok()) {
        clerk->Release(r.parent.lock_id());
        return pooled.status();
      }
      Forget(*pooled);  // a recycled oid must not inherit a dead file's state
      MetaOp op;
      op.type = MetaOpType::kCreateFile;
      op.authority = clerk->GlobalAuthorityOf(r.parent.lock_id());
      op.dir = r.parent;
      op.name = r.leaf;
      op.obj = *pooled;
      Status st = fs_->LogOp(std::move(op));
      if (!st.ok()) {
        clerk->Release(r.parent.lock_id());
        return st;
      }
      OverlayAdd(r.parent, r.leaf, *pooled);
      r.target = *pooled;
    }
    clerk->Release(r.parent.lock_id());
  }
  if (r.target.type() != ObjType::kMFile) {
    return Status(ErrorCode::kIsDirectory, std::string(path));
  }

  // Acquire the file's lock (paper §6.1 "File sharing"). The *client* holds
  // it — cached at the clerk — until revoked; data-path operations re-take
  // the local grant per call, so multiple fds and threads coexist.
  std::vector<LockId> chain = r.ancestors;
  chain.push_back(r.parent.lock_id());
  const LockMode mode =
      (flags & kOpenWrite) ? LockMode::kExclusive : LockMode::kShared;
  AERIE_RETURN_IF_ERROR(clerk->Acquire(r.target.lock_id(), mode, chain));
  Status st = (flags & kOpenTrunc) ? TruncateHeld(r.target, 0) : OkStatus();
  clerk->Release(r.target.lock_id());
  AERIE_RETURN_IF_ERROR(st);

  auto entry = std::make_unique<FdEntry>();
  entry->oid = r.target;
  entry->flags = flags;
  entry->ancestors = std::move(chain);
  entry->offset = (flags & kOpenAppend) ? FileSize(r.target) : 0;

  std::lock_guard lock(fds_mu_);
  open_counts_[r.target.raw()]++;
  int fd;
  if (!free_fds_.empty()) {
    fd = free_fds_.back();
    free_fds_.pop_back();
    fds_[static_cast<size_t>(fd)] = std::move(entry);
  } else {
    fd = static_cast<int>(fds_.size());
    fds_.push_back(std::move(entry));
  }
  return fd;
}

Status Pxfs::Close(int fd) {
  AERIE_SPAN("pxfs", "close");
  std::unique_ptr<FdEntry> entry;
  bool notify_closed = false;
  {
    std::lock_guard lock(fds_mu_);
    std::unique_ptr<FdEntry>* slot = FdLocked(fd);
    if (slot == nullptr) {
      return Status(ErrorCode::kBadHandle, "bad fd");
    }
    entry = std::move(*slot);
    free_fds_.push_back(fd);
    auto it = open_counts_.find(entry->oid.raw());
    if (it != open_counts_.end() && --it->second == 0) {
      open_counts_.erase(it);
      notify_closed = notified_open_.erase(entry->oid.raw()) != 0;
    }
  }
  if (notify_closed) {
    // Server may now reclaim the file if it was unlinked (paper §6.1).
    return fs_->NotifyClosed(entry->oid);
  }
  return OkStatus();
}

std::unique_ptr<Pxfs::FdEntry>* Pxfs::FdLocked(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() ||
      fds_[static_cast<size_t>(fd)] == nullptr) {
    return nullptr;
  }
  return &fds_[static_cast<size_t>(fd)];
}

Result<Pxfs::FdEntry> Pxfs::LookupFd(int fd) {
  std::lock_guard lock(fds_mu_);
  std::unique_ptr<FdEntry>* slot = FdLocked(fd);
  if (slot == nullptr) {
    return Status(ErrorCode::kBadHandle, "bad fd");
  }
  return **slot;
}

Status Pxfs::SetFdOffset(int fd, uint64_t offset) {
  std::lock_guard lock(fds_mu_);
  std::unique_ptr<FdEntry>* slot = FdLocked(fd);
  if (slot == nullptr) {
    return Status(ErrorCode::kBadHandle, "bad fd");
  }
  (*slot)->offset = offset;
  return OkStatus();
}

// --- Direct data path (DESIGN.md §10) ---------------------------------------

std::shared_ptr<const Pxfs::DirectSnapshot> Pxfs::CachedSnapshot(
    Oid file) const {
  std::shared_lock lock(state_mu_);
  const auto* snap = snapshots_.Find(file.raw());
  return snap == nullptr ? nullptr : *snap;
}

bool Pxfs::TryDirectRead(Oid file, uint64_t offset, std::span<char> out,
                         uint64_t* n) {
  if (!DirectUsable()) {
    return false;
  }
  auto snap = CachedSnapshot(file);
  if (snap == nullptr) {
    return false;
  }
  LockClerk* clerk = fs_->clerk();
  if (!clerk->TryEnterDirect(snap->epoch)) {
    fs_->CountDirectFallback();
    return false;
  }
  *n = MFile::ReadDirect(ctx_.region, snap->map, offset, out);
  clerk->ExitDirect();
  fs_->CountDirectRead(*n);
  return true;
}

bool Pxfs::TryDirectWrite(Oid file, uint64_t offset,
                          std::span<const char> data, uint64_t* n) {
  if (!DirectUsable() || data.empty()) {
    return false;
  }
  auto snap = CachedSnapshot(file);
  if (snap == nullptr || !snap->writable) {
    return false;
  }
  // Cheap pre-checks outside the pin: an extending write or a hole is an
  // allocation — metadata — and belongs to the locked path.
  if (offset + data.size() > snap->map.size()) {
    return false;
  }
  LockClerk* clerk = fs_->clerk();
  if (!clerk->TryEnterDirect(snap->epoch)) {
    fs_->CountDirectFallback();
    return false;
  }
  Status st = MFile::WriteDirect(ctx_.region, snap->map, offset, data,
                                 options_.flush_data_on_write);
  clerk->ExitDirect();
  if (!st.ok()) {
    fs_->CountDirectFallback();
    return false;  // hole: locked path allocates + logs the attach
  }
  fs_->CountDirectWrite(data.size());
  AERIE_COUNT_N("pxfs.api.logical_write_bytes", data.size());
  *n = data.size();
  return true;
}

void Pxfs::RefreshDirectMap(Oid file, LockMode mode) {
  if (!DirectUsable()) {
    return;
  }
  LockClerk* clerk = fs_->clerk();
  // Validated under the clerk mutex while we still hold the local grant; a
  // failure (drain in flight, authority gone) just means no cache entry.
  auto epoch = clerk->DirectGrant(file.lock_id(), mode);
  if (!epoch.ok()) {
    return;
  }
  auto mfile = MFile::Open(ctx_, file);
  if (!mfile.ok()) {
    return;
  }
  DirectSnapshot snap;
  snap.epoch = *epoch;
  snap.writable = mode == LockMode::kExclusive;
  {
    // Resolved exactly as ReadAt resolves each page.
    std::shared_lock lock(state_mu_);
    const FileShadow* shadow = FindShadow(file);
    const uint64_t size = SizeOf(shadow, *mfile);
    const uint64_t pages = (size + kScmPageSize - 1) / kScmPageSize;
    if (pages > kDirectMaxPages) {
      return;  // unbounded map: such files stay on the locked path
    }
    snap.map.Resize(size);
    for (uint64_t page = 0; page < pages; ++page) {
      snap.map.set_page(page, ResolvePage(shadow, *mfile, page));
    }
  }
  auto entry = std::make_shared<const DirectSnapshot>(std::move(snap));
  std::unique_lock lock(state_mu_);
  snapshot_builds_.Add(1);
  snapshot_evictions_.Add(snapshots_.Put(file.raw(), std::move(entry)));
}

void Pxfs::MaybeRefreshDirect(Oid file, bool writable) {
  if (!DirectUsable()) {
    return;
  }
  auto cur = CachedSnapshot(file);
  if (cur != nullptr && cur->epoch == fs_->clerk()->direct_epoch() &&
      (cur->writable || !writable)) {
    return;  // still usable as-is
  }
  RefreshDirectMap(file,
                   writable ? LockMode::kExclusive : LockMode::kShared);
}

// --- Data path ---------------------------------------------------------------

Result<uint64_t> Pxfs::ReadAt(Oid file, uint64_t offset, std::span<char> out) {
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, file));
  if (options_.enforce_memory_protection) {
    const uint32_t rights = AclRights(mfile.acl());
    if (rights != 0 && (rights & kAclRightRead) == 0) {
      // Write-only file: memory protection cannot express it, so the
      // hardware maps it no-access and reads are denied at the FS level
      // (paper §5.3.3).
      return Status(ErrorCode::kPermissionDenied, "file is write-only");
    }
  }
  uint64_t file_size;
  {
    std::shared_lock lock(state_mu_);
    file_size = SizeOf(FindShadow(file), mfile);
  }
  if (offset >= file_size) {
    return 0;
  }
  const uint64_t want = std::min<uint64_t>(out.size(), file_size - offset);
  uint64_t done = 0;
  while (done < want) {
    const uint64_t pos = offset + done;
    const uint64_t in_page = pos % kScmPageSize;
    const uint64_t chunk = std::min(want - done, kScmPageSize - in_page);
    uint64_t extent;
    {
      std::shared_lock lock(state_mu_);
      extent = ResolvePage(FindShadow(file), mfile, pos / kScmPageSize);
    }
    if (extent != 0) {
      std::memcpy(out.data() + done, ctx_.region->PtrAt(extent) + in_page,
                  chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
  return done;
}

Result<uint64_t> Pxfs::WriteAt(Oid file, uint64_t offset,
                               std::span<const char> data, bool* structural) {
  AERIE_SCM_LAYER("pxfs");
  *structural = false;
  if (data.empty()) {
    return 0;
  }
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, file));
  if (options_.enforce_memory_protection) {
    const uint32_t rights = AclRights(mfile.acl());
    if (rights != 0 && (rights & kAclRightRead) == 0) {
      // Write-only: FS-level permissions allow the write, but memory
      // protection maps the extents no-access — route the data through
      // the trusted service (paper §5.3.3: "the library calls into the
      // TFS for any operations allowed by file system level permissions
      // but prevented by memory protection").
      AERIE_RETURN_IF_ERROR(fs_->ServiceWrite(file, offset, data));
      std::unique_lock lock(state_mu_);
      FileShadow& shadow = shadows_[file.raw()];
      if (!shadow.has_size || offset + data.size() > shadow.size) {
        shadow.size = offset + data.size();
        shadow.has_size = true;
      }
      AERIE_COUNT_N("pxfs.api.logical_write_bytes", data.size());
      return data.size();
    }
    if (rights != 0 && (rights & kAclRightWrite) == 0) {
      return Status(ErrorCode::kPermissionDenied, "file is read-only");
    }
  }
  const uint64_t authority = fs_->clerk()->GlobalAuthorityOf(file.lock_id());

  // One critical section for the whole call; ops are logged in bulk
  // afterwards, one attach per maximal run of hole pages (a 128KB append
  // is one op for its 32 pages — per-page locking, logging and committing
  // would dominate).
  std::vector<MetaOp> attach_ops;
  {
    std::unique_lock lock(state_mu_);
    FileShadow& shadow = shadows_[file.raw()];
    uint64_t done = 0;
    while (done < data.size()) {
      const uint64_t pos = offset + done;
      const uint64_t page = pos / kScmPageSize;
      const uint64_t in_page = pos % kScmPageSize;
      const uint64_t chunk =
          std::min<uint64_t>(data.size() - done, kScmPageSize - in_page);
      uint64_t extent = ResolvePage(&shadow, mfile, page);
      if (extent != 0) {
        // Data writes go straight to SCM; no service involvement (§4.2).
        ctx_.region->StreamWrite(ctx_.region->PtrAt(extent) + in_page,
                                 data.data() + done, chunk);
      } else {
        // Hole: take a pre-allocated extent, fill it, and add it to the
        // run's attach (paper §5.3.5: the server only verifies and
        // attaches).
        auto pooled = fs_->TakePooled(ObjType::kExtent);
        if (!pooled.ok()) {
          return pooled.status();
        }
        extent = pooled->offset();
        char* dst = ctx_.region->PtrAt(extent);
        if (chunk != kScmPageSize) {
          std::memset(dst, 0, kScmPageSize);
        }
        // Streaming stores, drained by the BFlush below (same charged path
        // as overwrites).
        ctx_.region->StreamWrite(dst + in_page, data.data() + done, chunk);

        if (attach_ops.empty() ||
            attach_ops.back().a + attach_ops.back().extents.size() != page) {
          MetaOp op;
          op.type = MetaOpType::kAttachExtent;
          op.authority = authority;
          op.obj = file;
          op.a = page;
          attach_ops.push_back(std::move(op));
        }
        attach_ops.back().extents.push_back(extent);
        shadow.extents[page] = extent;
      }
      done += chunk;
    }
    const uint64_t new_end = offset + data.size();
    if (new_end > SizeOf(&shadow, mfile)) {
      MetaOp op;
      op.type = MetaOpType::kSetSize;
      op.authority = authority;
      op.obj = file;
      op.a = new_end;
      attach_ops.push_back(std::move(op));
      shadow.size = new_end;
      shadow.has_size = true;
    }
    if (!attach_ops.empty()) {
      // Structural change: the cached snapshot no longer matches (new
      // pages attached and/or a new size).
      *structural = true;
      snapshots_.Erase(file.raw());
    }
  }
  if (options_.flush_data_on_write) {
    ctx_.region->BFlush();
  }
  if (!attach_ops.empty()) {
    AERIE_RETURN_IF_ERROR(fs_->LogOps(std::move(attach_ops)));
  }
  AERIE_COUNT_N("pxfs.api.logical_write_bytes", data.size());
  return data.size();
}

Result<uint64_t> Pxfs::ReadFd(int fd, std::optional<uint64_t> pos,
                              std::span<char> out) {
  AERIE_ASSIGN_OR_RETURN(FdEntry entry, LookupFd(fd));
  const uint64_t offset = pos.value_or(entry.offset);
  uint64_t n = 0;
  if (!TryDirectRead(entry.oid, offset, out, &n)) {
    LockClerk* clerk = fs_->clerk();
    AERIE_RETURN_IF_ERROR(clerk->Acquire(entry.oid.lock_id(),
                                         LockMode::kShared, entry.ancestors));
    auto read = ReadAt(entry.oid, offset, out);
    if (read.ok()) {
      MaybeRefreshDirect(entry.oid, /*writable=*/false);
    }
    clerk->Release(entry.oid.lock_id());
    AERIE_ASSIGN_OR_RETURN(n, std::move(read));
  }
  if (!pos) {
    (void)SetFdOffset(fd, offset + n);
  }
  return n;
}

Result<uint64_t> Pxfs::WriteFd(int fd, std::optional<uint64_t> pos,
                               std::span<const char> data) {
  AERIE_ASSIGN_OR_RETURN(FdEntry entry, LookupFd(fd));
  if ((entry.flags & kOpenWrite) == 0) {
    return Status(ErrorCode::kPermissionDenied, "fd not open for write");
  }
  const bool append = !pos && (entry.flags & kOpenAppend) != 0;
  uint64_t offset = pos.value_or(entry.offset);
  uint64_t n = 0;
  if (append || !TryDirectWrite(entry.oid, offset, data, &n)) {
    LockClerk* clerk = fs_->clerk();
    AERIE_RETURN_IF_ERROR(clerk->Acquire(
        entry.oid.lock_id(), LockMode::kExclusive, entry.ancestors));
    if (append) {
      // Only now, with the grant held, has every other writer's append
      // reached this client's view of the file.
      offset = FileSize(entry.oid);
    }
    bool structural = false;
    auto written = WriteAt(entry.oid, offset, data, &structural);
    // Appends mutate the map every call; caching after one would thrash. A
    // non-structural (overwrite) slow path is the signal the file's map is
    // worth caching for the direct path.
    if (written.ok() && !structural) {
      MaybeRefreshDirect(entry.oid, /*writable=*/true);
    }
    clerk->Release(entry.oid.lock_id());
    AERIE_ASSIGN_OR_RETURN(n, std::move(written));
  }
  if (!pos) {
    (void)SetFdOffset(fd, offset + n);
  }
  return n;
}

Result<uint64_t> Pxfs::Read(int fd, std::span<char> out) {
  AERIE_SPAN("pxfs", "read");
  return ReadFd(fd, std::nullopt, out);
}

Result<uint64_t> Pxfs::Write(int fd, std::span<const char> data) {
  AERIE_SPAN("pxfs", "write");
  return WriteFd(fd, std::nullopt, data);
}

Result<uint64_t> Pxfs::Pread(int fd, uint64_t offset, std::span<char> out) {
  AERIE_SPAN("pxfs", "pread");
  return ReadFd(fd, offset, out);
}

Result<uint64_t> Pxfs::Pwrite(int fd, uint64_t offset,
                              std::span<const char> data) {
  AERIE_SPAN("pxfs", "pwrite");
  return WriteFd(fd, offset, data);
}

Result<uint64_t> Pxfs::Seek(int fd, uint64_t offset) {
  AERIE_SPAN("pxfs", "seek");
  AERIE_RETURN_IF_ERROR(SetFdOffset(fd, offset));
  return offset;
}

Status Pxfs::TruncateHeld(Oid file, uint64_t size) {
  AERIE_SCM_LAYER("pxfs");
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, file));
  MetaOp op;
  op.type = MetaOpType::kTruncate;
  op.authority = fs_->clerk()->GlobalAuthorityOf(file.lock_id());
  op.obj = file;
  op.a = size;
  AERIE_RETURN_IF_ERROR(fs_->LogOp(std::move(op)));
  std::unique_lock lock(state_mu_);
  FileShadow& shadow = shadows_[file.raw()];
  const uint64_t old_size = SizeOf(&shadow, mfile);
  shadow.size = size;
  shadow.has_size = true;
  const uint64_t keep = (size + kScmPageSize - 1) / kScmPageSize;
  shadow.mfile_floor = std::min(shadow.mfile_floor, keep);
  shadow.extents.erase(shadow.extents.lower_bound(keep),
                       shadow.extents.end());
  snapshots_.Erase(file.raw());
  // POSIX zero-fill: the boundary page's tail must not resurface if the
  // file is extended later. The server's apply does the same for the
  // persistent mapping; this covers the client's pending-extent view.
  if (size < old_size && size % kScmPageSize != 0) {
    const uint64_t extent =
        ResolvePage(&shadow, mfile, size / kScmPageSize);
    if (extent != 0) {
      char* data = ctx_.region->PtrAt(extent);
      const uint64_t in_page = size % kScmPageSize;
      std::memset(data + in_page, 0, kScmPageSize - in_page);
      ctx_.region->WlFlush(data + in_page, kScmPageSize - in_page);
      ctx_.region->Fence();  // durable before a later extension ships
    }
  }
  return OkStatus();
}

Status Pxfs::Ftruncate(int fd, uint64_t size) {
  AERIE_SPAN("pxfs", "ftruncate");
  AERIE_ASSIGN_OR_RETURN(FdEntry entry, LookupFd(fd));
  if ((entry.flags & kOpenWrite) == 0) {
    return Status(ErrorCode::kPermissionDenied, "fd not open for write");
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(clerk->Acquire(entry.oid.lock_id(),
                                       LockMode::kExclusive, entry.ancestors));
  Status st = TruncateHeld(entry.oid, size);
  clerk->Release(entry.oid.lock_id());
  return st;
}

Status Pxfs::Fsync(int fd) {
  AERIE_SPAN("pxfs", "fsync");
  AERIE_SCM_LAYER("pxfs");
  AERIE_RETURN_IF_ERROR(LookupFd(fd).status());
  ctx_.region->BFlush();
  return fs_->Sync();
}

Result<PxfsStat> Pxfs::Fstat(int fd) {
  AERIE_SPAN("pxfs", "fstat");
  AERIE_ASSIGN_OR_RETURN(FdEntry entry, LookupFd(fd));
  AERIE_ASSIGN_OR_RETURN(MFile mfile, MFile::Open(ctx_, entry.oid));
  PxfsStat st;
  st.oid = entry.oid;
  st.is_dir = false;
  st.size = FileSize(entry.oid);
  st.link_count = mfile.link_count();
  st.acl = mfile.acl();
  return st;
}

// --- Namespace operations ----------------------------------------------------

Status Pxfs::Create(std::string_view path) {
  AERIE_SPAN("pxfs", "create");
  AERIE_ASSIGN_OR_RETURN(int fd, Open(path, kOpenCreate | kOpenWrite));
  return Close(fd);
}

Status Pxfs::Mkdir(std::string_view path) {
  AERIE_SPAN("pxfs", "mkdir");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (!r.target.IsNull()) {
    return Status(ErrorCode::kAlreadyExists, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
  Status st = OkStatus();
  if (DirLookup(r.parent, r.leaf).ok()) {
    st = Status(ErrorCode::kAlreadyExists, std::string(path));
  } else {
    auto pooled = fs_->TakePooled(ObjType::kCollection);
    if (!pooled.ok()) {
      st = pooled.status();
    } else {
      Forget(*pooled);
      MetaOp op;
      op.type = MetaOpType::kCreateDir;
      op.authority = clerk->GlobalAuthorityOf(r.parent.lock_id());
      op.dir = r.parent;
      op.name = r.leaf;
      op.obj = *pooled;
      st = fs_->LogOp(std::move(op));
      if (st.ok()) {
        OverlayAdd(r.parent, r.leaf, *pooled);
      }
    }
  }
  clerk->Release(r.parent.lock_id());
  return st;
}

Status Pxfs::UnlinkLocked(const Resolved& r) {
  LockClerk* clerk = fs_->clerk();
  if (r.target.type() == ObjType::kMFile) {
    // Request the victim's file lock: any other client holding it with the
    // file open will notify the TFS while releasing, so reclamation is
    // deferred (paper §6.1 "File sharing").
    std::vector<LockId> chain = r.ancestors;
    chain.push_back(r.parent.lock_id());
    AERIE_RETURN_IF_ERROR(
        clerk->Acquire(r.target.lock_id(), LockMode::kExclusive, chain));
    clerk->Release(r.target.lock_id());

    // If this client has it open itself, notify directly.
    bool open_here = false;
    {
      std::lock_guard lock(fds_mu_);
      open_here = open_counts_.count(r.target.raw()) != 0 &&
                  notified_open_.count(r.target.raw()) == 0;
      if (open_here) {
        notified_open_.insert(r.target.raw());
      }
    }
    if (open_here) {
      AERIE_RETURN_IF_ERROR(fs_->NotifyOpen(r.target));
    }
  }
  MetaOp op;
  op.type = MetaOpType::kUnlink;
  op.authority = clerk->GlobalAuthorityOf(r.parent.lock_id());
  op.dir = r.parent;
  op.name = r.leaf;
  AERIE_RETURN_IF_ERROR(fs_->LogOp(std::move(op)));
  OverlayRemove(r.parent, r.leaf);
  return OkStatus();
}

Status Pxfs::Unlink(std::string_view path) {
  AERIE_SPAN("pxfs", "unlink");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kMFile) {
    return Status(ErrorCode::kIsDirectory, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
  Status st = UnlinkLocked(r);
  clerk->Release(r.parent.lock_id());
  if (st.ok()) {
    std::lock_guard lock(cache_mu_);
    name_cache_.Erase(r.path);
  }
  return st;
}

Status Pxfs::Rmdir(std::string_view path) {
  AERIE_SPAN("pxfs", "rmdir");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kCollection) {
    return Status(ErrorCode::kNotDirectory, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.parent.lock_id(), DirWriteMode(), r.ancestors));
  Status st = OkStatus();
  // Client-side emptiness check against SCM plus this client's pending
  // overlay (the server re-validates against applied state at ship time).
  bool empty = true;
  {
    std::vector<std::string> applied;
    auto coll = Collection::Open(ctx_, r.target);
    if (coll.ok()) {
      (void)coll->Scan([&](std::string_view name, uint64_t) {
        applied.emplace_back(name);
        return true;
      });
    }
    std::shared_lock lock(state_mu_);
    auto it = overlay_.find(r.target.raw());
    if (it != overlay_.end() && !it->second.added.empty()) {
      empty = false;
    }
    for (const std::string& name : applied) {
      if (it == overlay_.end() || it->second.removed.count(name) == 0) {
        empty = false;
        break;
      }
    }
  }
  if (!empty) {
    st = Status(ErrorCode::kNotEmpty, std::string(path));
  } else {
    st = UnlinkLocked(r);
  }
  clerk->Release(r.parent.lock_id());
  if (st.ok()) {
    FlushNameCache();  // descendant paths are gone
  }
  return st;
}

Status Pxfs::Rename(std::string_view from, std::string_view to) {
  AERIE_SPAN("pxfs", "rename");
  AERIE_ASSIGN_OR_RETURN(Resolved src, Resolve(from, /*fill_cache=*/false));
  AERIE_ASSIGN_OR_RETURN(Resolved dst, Resolve(to, /*fill_cache=*/false));
  if (src.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(from));
  }
  if (src.target == dst.target && src.parent == dst.parent &&
      src.leaf == dst.leaf) {
    return OkStatus();  // POSIX: renaming a file onto itself does nothing
  }
  LockClerk* clerk = fs_->clerk();

  // Lock both directories in lock-id order (paper §6.1: both locks taken
  // before the operation; ordering prevents deadlock).
  const LockId a = std::min(src.parent.lock_id(), dst.parent.lock_id());
  const LockId b = std::max(src.parent.lock_id(), dst.parent.lock_id());
  const std::vector<LockId>& a_anc =
      a == src.parent.lock_id() ? src.ancestors : dst.ancestors;
  const std::vector<LockId>& b_anc =
      b == src.parent.lock_id() ? src.ancestors : dst.ancestors;
  AERIE_RETURN_IF_ERROR(clerk->Acquire(a, DirWriteMode(), a_anc));
  if (b != a) {
    Status st = clerk->Acquire(b, DirWriteMode(), b_anc);
    if (!st.ok()) {
      clerk->Release(a);
      return st;
    }
  }

  if (!dst.target.IsNull() && dst.target.type() == ObjType::kMFile) {
    std::vector<LockId> chain = dst.ancestors;
    chain.push_back(dst.parent.lock_id());
    Status vst =
        clerk->Acquire(dst.target.lock_id(), LockMode::kExclusive, chain);
    if (vst.ok()) {
      clerk->Release(dst.target.lock_id());
    }
  }

  MetaOp op;
  op.type = MetaOpType::kRename;
  op.authority = clerk->GlobalAuthorityOf(src.parent.lock_id());
  op.dir = src.parent;
  op.name = src.leaf;
  op.dir2 = dst.parent;
  op.name2 = dst.leaf;
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    OverlayRemove(src.parent, src.leaf);
    OverlayAdd(dst.parent, dst.leaf, src.target);
  }
  if (b != a) {
    clerk->Release(b);
  }
  clerk->Release(a);

  if (st.ok()) {
    if (src.target.type() == ObjType::kCollection) {
      FlushNameCache();  // all descendant paths moved
    } else {
      std::lock_guard lock(cache_mu_);
      name_cache_.Erase(src.path);
      name_cache_.Erase(dst.path);
    }
  }
  return st;
}

Status Pxfs::Link(std::string_view from, std::string_view to) {
  AERIE_SPAN("pxfs", "link");
  AERIE_ASSIGN_OR_RETURN(Resolved src, Resolve(from, /*fill_cache=*/false));
  AERIE_ASSIGN_OR_RETURN(Resolved dst, Resolve(to, /*fill_cache=*/false));
  if (src.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(from));
  }
  if (src.target.type() != ObjType::kMFile) {
    return Status(ErrorCode::kIsDirectory, "cannot hard-link a directory");
  }
  if (!dst.target.IsNull()) {
    return Status(ErrorCode::kAlreadyExists, std::string(to));
  }
  LockClerk* clerk = fs_->clerk();
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(dst.parent.lock_id(), DirWriteMode(), dst.ancestors));
  MetaOp op;
  op.type = MetaOpType::kLink;
  op.authority = clerk->GlobalAuthorityOf(dst.parent.lock_id());
  op.dir = dst.parent;
  op.name = dst.leaf;
  op.obj = src.target;
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    OverlayAdd(dst.parent, dst.leaf, src.target);
  }
  clerk->Release(dst.parent.lock_id());
  return st;
}

Result<PxfsStat> Pxfs::Stat(std::string_view path) {
  AERIE_SPAN("pxfs", "stat");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/true));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  std::vector<LockId> chain = r.ancestors;
  if (!(r.target == fs_->pxfs_root())) {
    chain.push_back(r.parent.lock_id());
  }
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.target.lock_id(), LockMode::kShared, chain));
  PxfsStat st;
  st.oid = r.target;
  Status result = OkStatus();
  if (r.target.type() == ObjType::kCollection) {
    auto coll = Collection::Open(ctx_, r.target);
    if (coll.ok()) {
      st.is_dir = true;
      st.size = coll->size();
      st.link_count = coll->link_count();
      st.acl = coll->acl();
    } else {
      result = coll.status();
    }
  } else {
    auto mfile = MFile::Open(ctx_, r.target);
    if (mfile.ok()) {
      st.is_dir = false;
      st.size = FileSize(r.target);
      st.link_count = mfile->link_count();
      st.acl = mfile->acl();
      if (st.link_count == 0) {
        // Batched create not yet applied: the overlay binding counts as the
        // first link.
        std::shared_lock lock(state_mu_);
        auto it = overlay_.find(r.parent.raw());
        if (it != overlay_.end()) {
          auto added = it->second.added.find(r.leaf);
          if (added != it->second.added.end() &&
              added->second == r.target.raw()) {
            st.link_count = 1;
          }
        }
      }
    } else {
      result = mfile.status();
    }
  }
  clerk->Release(r.target.lock_id());
  if (!result.ok()) {
    return result;
  }
  return st;
}

Result<std::vector<PxfsDirent>> Pxfs::ReadDir(std::string_view path) {
  AERIE_SPAN("pxfs", "readdir");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/true));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kCollection) {
    return Status(ErrorCode::kNotDirectory, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  std::vector<LockId> chain = r.ancestors;
  if (!(r.target == fs_->pxfs_root())) {
    chain.push_back(r.parent.lock_id());
  }
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.target.lock_id(), LockMode::kShared, chain));

  std::map<std::string, uint64_t> names;
  Status scan_status = OkStatus();
  {
    auto coll = Collection::Open(ctx_, r.target);
    if (coll.ok()) {
      scan_status = coll->Scan([&](std::string_view name, uint64_t value) {
        names[std::string(name)] = value;
        return true;
      });
    } else {
      scan_status = coll.status();
    }
  }
  clerk->Release(r.target.lock_id());
  AERIE_RETURN_IF_ERROR(scan_status);

  {
    std::shared_lock lock(state_mu_);
    auto it = overlay_.find(r.target.raw());
    if (it != overlay_.end()) {
      for (const auto& [name, oid] : it->second.added) {
        names[name] = oid;
      }
      for (const auto& name : it->second.removed) {
        names.erase(name);
      }
    }
  }

  std::vector<PxfsDirent> out;
  out.reserve(names.size());
  for (const auto& [name, raw] : names) {
    Oid oid(raw);
    out.push_back({name, oid, oid.type() == ObjType::kCollection});
  }
  return out;
}

Status Pxfs::Chmod(std::string_view path, uint32_t acl) {
  AERIE_SPAN("pxfs", "chmod");
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  LockClerk* clerk = fs_->clerk();
  std::vector<LockId> chain = r.ancestors;
  chain.push_back(r.parent.lock_id());
  AERIE_RETURN_IF_ERROR(
      clerk->Acquire(r.target.lock_id(), LockMode::kExclusive, chain));
  MetaOp op;
  op.type = MetaOpType::kSetAcl;
  op.authority = clerk->GlobalAuthorityOf(r.target.lock_id());
  op.obj = r.target;
  op.a = acl;
  Status st = fs_->LogOp(std::move(op));
  if (st.ok()) {
    // Permission changes apply synchronously (paper §6.1): the memory
    // protection update must not linger in the batch.
    st = fs_->Sync();
  }
  clerk->Release(r.target.lock_id());
  return st;
}

Status Pxfs::Truncate(std::string_view path, uint64_t size) {
  AERIE_SPAN("pxfs", "truncate");
  AERIE_ASSIGN_OR_RETURN(int fd, Open(path, kOpenWrite));
  Status st = Ftruncate(fd, size);
  Status close_st = Close(fd);
  return st.ok() ? close_st : st;
}

Status Pxfs::SetCwd(std::string_view path) {
  AERIE_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*fill_cache=*/false));
  if (r.target.IsNull()) {
    return Status(ErrorCode::kNotFound, std::string(path));
  }
  if (r.target.type() != ObjType::kCollection) {
    return Status(ErrorCode::kNotDirectory, std::string(path));
  }
  std::lock_guard lock(cwd_mu_);
  cwd_oid_ = r.target;
  cwd_ancestors_ = r.ancestors;
  if (!(r.target == r.parent)) {
    cwd_ancestors_.push_back(r.parent.lock_id());
  }
  cwd_path_ = r.path;
  return OkStatus();
}

std::string Pxfs::cwd() const {
  std::lock_guard lock(cwd_mu_);
  return cwd_path_;
}

Status Pxfs::SyncAll() {
  AERIE_SPAN("pxfs", "sync_all");
  AERIE_SCM_LAYER("pxfs");
  ctx_.region->BFlush();
  return fs_->Sync();
}

}  // namespace aerie
