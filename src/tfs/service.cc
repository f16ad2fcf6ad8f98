#include "src/tfs/service.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/obs/trace.h"

namespace aerie {

namespace {

// 8-byte binary key for oid-keyed system collections (pools, orphans).
std::string OidKey(Oid oid) {
  const uint64_t raw = oid.raw();
  return std::string(reinterpret_cast<const char*>(&raw), sizeof(raw));
}

std::string ClientKey(uint64_t client_id) {
  return std::string(reinterpret_cast<const char*>(&client_id),
                     sizeof(client_id));
}

// The pooled-extent oids an attach run consumes.
std::vector<Oid> ExtentOids(const MetaOp& op) {
  std::vector<Oid> oids;
  oids.reserve(op.extents.size());
  for (uint64_t extent : op.extents) {
    oids.push_back(Oid::Make(ObjType::kExtent, extent));
  }
  return oids;
}

}  // namespace

TrustedFsService::TrustedFsService(Volume* volume, LockService* locks,
                                   ScmManager* scm)
    : volume_(volume),
      locks_(locks),
      scm_(scm),
      ctx_(volume->context()) {
  obs_registration_.AddAll(batches_applied_, ops_applied_, ops_rejected_);
  AERIE_CHECK(ctx_.can_allocate());
  if (!volume_->root_oid().IsNull()) {
    // Existing volume: load system collection.
    auto sys = Collection::Open(ctx_, volume_->root_oid());
    if (sys.ok()) {
      auto get = [&](const char* key) {
        auto v = sys->Lookup(key);
        return v.ok() ? Oid(*v) : Oid();
      };
      roots_.pxfs_root = get("root");
      roots_.flat_root = get("flat");
      orphans_oid_ = get("orphans");
      pools_oid_ = get("pools");
    }
  }
}

Status TrustedFsService::Bootstrap() {
  AERIE_SCM_LAYER("tfs");
  if (!volume_->root_oid().IsNull()) {
    return OkStatus();
  }
  AERIE_ASSIGN_OR_RETURN(Collection sys, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection root, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection flat, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection orphans, Collection::Create(ctx_, 0));
  AERIE_ASSIGN_OR_RETURN(Collection pools, Collection::Create(ctx_, 0));
  root.SetParentOid(root.oid());  // "/.." == "/"
  root.SetLinkCount(1);
  flat.SetLinkCount(1);
  AERIE_RETURN_IF_ERROR(sys.Insert("root", root.oid().raw()));
  AERIE_RETURN_IF_ERROR(sys.Insert("flat", flat.oid().raw()));
  AERIE_RETURN_IF_ERROR(sys.Insert("orphans", orphans.oid().raw()));
  AERIE_RETURN_IF_ERROR(sys.Insert("pools", pools.oid().raw()));
  volume_->SetRootOid(sys.oid());
  roots_.pxfs_root = root.oid();
  roots_.flat_root = flat.oid();
  orphans_oid_ = orphans.oid();
  pools_oid_ = pools.oid();
  return OkStatus();
}

// --- Lock / lease checks -----------------------------------------------

Status TrustedFsService::HoldsWriteLock(uint64_t client_id,
                                        LockId object_lock,
                                        uint64_t authority) const {
  if (!locks_->LeaseValid(client_id)) {
    return Status(ErrorCode::kLockRevoked, "client lease expired");
  }
  const LockMode held = locks_->HeldMode(client_id, authority);
  if (held == LockMode::kExclusiveHier) {
    return OkStatus();  // hierarchical write authority claimed over object
  }
  if (held == LockMode::kExclusive && authority == object_lock) {
    return OkStatus();
  }
  // The object's own lock in a write mode is always sufficient authority.
  // This also absorbs a benign race with de-escalation: an op may cite a
  // hierarchical ancestor that was downgraded after logging, but the clerk
  // escalates in-use descendants to explicit locks first, so by ship time
  // the client holds the object's own exclusive lock.
  const LockMode held_obj = locks_->HeldMode(client_id, object_lock);
  if (held_obj == LockMode::kExclusive ||
      held_obj == LockMode::kExclusiveHier) {
    return OkStatus();
  }
  return Status(ErrorCode::kPermissionDenied,
                "client does not hold a covering write lock");
}

// --- Validation ---------------------------------------------------------

Status TrustedFsService::Validate(uint64_t client_id, MetaOp* op) {
  auto bad = [](const char* msg) {
    return Status(ErrorCode::kInvalidArgument, msg);
  };
  auto open_dir = [&](Oid oid) { return Collection::Open(ctx_, oid); };
  auto open_file = [&](Oid oid) { return MFile::Open(ctx_, oid); };

  switch (op->type) {
    case MetaOpType::kCreateFile:
    case MetaOpType::kCreateDir: {
      if (op->name.empty() || op->name.size() > Collection::kMaxKeyLen) {
        return bad("bad name");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection dir, open_dir(op->dir));
      if (dir.Lookup(op->name).ok()) {
        return Status(ErrorCode::kAlreadyExists, "name exists");
      }
      const ObjType want = op->type == MetaOpType::kCreateFile
                               ? ObjType::kMFile
                               : ObjType::kCollection;
      if (op->obj.type() != want || !PoolContains(client_id, {op->obj})) {
        return Status(ErrorCode::kPermissionDenied,
                      "object not in client pool");
      }
      op->obj_links = 1;
      return OkStatus();
    }

    case MetaOpType::kLink: {
      if (op->name.empty() || op->name.size() > Collection::kMaxKeyLen) {
        return bad("bad name");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection dir, open_dir(op->dir));
      if (dir.Lookup(op->name).ok()) {
        return Status(ErrorCode::kAlreadyExists, "name exists");
      }
      if (op->obj.type() != ObjType::kMFile) {
        return bad("hard links to directories are not allowed");
      }
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      op->obj_links = file.link_count() + 1;
      return OkStatus();
    }

    case MetaOpType::kUnlink: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection dir, open_dir(op->dir));
      auto found = dir.Lookup(op->name);
      if (!found.ok()) {
        return found.status();
      }
      op->victim = Oid(*found);
      if (op->victim.type() == ObjType::kCollection) {
        AERIE_ASSIGN_OR_RETURN(Collection victim, open_dir(op->victim));
        if (victim.size() != 0) {
          return Status(ErrorCode::kNotEmpty, "directory not empty");
        }
        op->victim_is_dir = 1;
        op->victim_links = 0;
        op->victim_free = 1;
      } else {
        AERIE_ASSIGN_OR_RETURN(MFile victim, open_file(op->victim));
        const uint64_t links = victim.link_count();
        op->victim_links = links > 0 ? links - 1 : 0;
        op->victim_free =
            (op->victim_links == 0 && OpenCount(op->victim) == 0) ? 1 : 0;
      }
      return OkStatus();
    }

    case MetaOpType::kRename: {
      if (op->name2.empty() || op->name2.size() > Collection::kMaxKeyLen) {
        return bad("bad destination name");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir.lock_id(), op->authority));
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->dir2.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection src, open_dir(op->dir));
      AERIE_ASSIGN_OR_RETURN(Collection dst, open_dir(op->dir2));
      auto found = src.Lookup(op->name);
      if (!found.ok()) {
        return found.status();
      }
      op->obj = Oid(*found);

      if (op->obj.type() == ObjType::kCollection) {
        // No cycles: the destination must not be inside the moved subtree
        // (paper §5.3.5's canonical invariant example).
        Oid walk = op->dir2;
        for (int depth = 0; depth < 4096; ++depth) {
          if (walk == op->obj) {
            return bad("rename would create a namespace cycle");
          }
          AERIE_ASSIGN_OR_RETURN(Collection c, open_dir(walk));
          const Oid parent = c.parent_oid();
          if (parent == walk || parent.IsNull()) {
            break;
          }
          walk = parent;
        }
      }

      auto existing = dst.Lookup(op->name2);
      if (existing.ok()) {
        op->victim = Oid(*existing);
        if (op->victim == op->obj) {
          return bad("rename onto itself");
        }
        if (op->victim.type() == ObjType::kCollection) {
          AERIE_ASSIGN_OR_RETURN(Collection victim, open_dir(op->victim));
          if (victim.size() != 0) {
            return Status(ErrorCode::kNotEmpty, "destination not empty");
          }
          op->victim_is_dir = 1;
          op->victim_free = 1;
        } else {
          AERIE_ASSIGN_OR_RETURN(MFile victim, open_file(op->victim));
          const uint64_t links = victim.link_count();
          op->victim_links = links > 0 ? links - 1 : 0;
          op->victim_free =
              (op->victim_links == 0 && OpenCount(op->victim) == 0) ? 1 : 0;
        }
      }
      return OkStatus();
    }

    case MetaOpType::kAttachExtent: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->obj.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      if (file.single_extent()) {
        return bad("cannot attach to single-extent file");
      }
      // The run is validated as a whole: its page range is in bounds (no
      // overflow), every page is a hole, and every extent is page-aligned,
      // used once, allocated and in the caller's pool.
      const uint64_t n = op->extents.size();
      if (n == 0 || op->a >= MFile::kMaxPages ||
          n > MFile::kMaxPages - op->a) {
        return bad("page run out of range");
      }
      std::vector<uint64_t> sorted = op->extents;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        return bad("extent repeated in run");
      }
      for (uint64_t extent : op->extents) {
        if (extent % kScmPageSize != 0) {
          return bad("unaligned extent");
        }
      }
      if (!PoolContains(client_id, ExtentOids(*op))) {
        return Status(ErrorCode::kPermissionDenied,
                      "extent not in client pool");
      }
      for (uint64_t i = 0; i < n; ++i) {
        if (!ctx_.alloc->IsAllocated(op->extents[i])) {
          return Status(ErrorCode::kCorrupted, "extent not allocated");
        }
        if (file.ExtentForPage(op->a + i).ok()) {
          return Status(ErrorCode::kAlreadyExists, "page already mapped");
        }
      }
      return OkStatus();
    }

    case MetaOpType::kSetSize:
    case MetaOpType::kTruncate: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->obj.lock_id(), op->authority));
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      if (op->a > MFile::kMaxFileBytes) {
        return bad("size out of range");
      }
      if (file.single_extent() && op->a > file.capacity()) {
        return Status(ErrorCode::kOutOfSpace, "beyond fixed capacity");
      }
      return OkStatus();
    }

    case MetaOpType::kSetAcl: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->obj.lock_id(), op->authority));
      if (op->obj.type() == ObjType::kMFile) {
        return open_file(op->obj).status();
      }
      return open_dir(op->obj).status();
    }

    case MetaOpType::kFlatPut: {
      if (op->name.empty() || op->name.size() > Collection::kMaxKeyLen) {
        return bad("bad key");
      }
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->authority, op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection coll, open_dir(op->dir));
      if (op->obj.type() != ObjType::kMFile ||
          !PoolContains(client_id, {op->obj})) {
        return Status(ErrorCode::kPermissionDenied,
                      "object not in client pool");
      }
      AERIE_ASSIGN_OR_RETURN(MFile file, open_file(op->obj));
      if (!file.single_extent() || op->a > file.capacity()) {
        return bad("bad flat file");
      }
      auto existing = coll.Lookup(op->name);
      if (existing.ok()) {
        op->victim = Oid(*existing);
        op->victim_free = OpenCount(op->victim) == 0 ? 1 : 0;
      }
      op->obj_links = 1;
      return OkStatus();
    }

    case MetaOpType::kFlatErase: {
      AERIE_RETURN_IF_ERROR(
          HoldsWriteLock(client_id, op->authority, op->authority));
      AERIE_ASSIGN_OR_RETURN(Collection coll, open_dir(op->dir));
      auto existing = coll.Lookup(op->name);
      if (!existing.ok()) {
        return existing.status();
      }
      op->victim = Oid(*existing);
      op->victim_free = OpenCount(op->victim) == 0 ? 1 : 0;
      return OkStatus();
    }

    case MetaOpType::kNone:
      break;
  }
  return bad("unknown op type");
}

// --- Apply ---------------------------------------------------------------

Status TrustedFsService::Apply(uint64_t client_id, const MetaOp& op,
                               bool replay) {
  AERIE_SCM_LAYER("tfs");
  // Already-applied effects surface as kAlreadyExists / kNotFound during
  // replay; those are successes for an idempotent redo log.
  auto tolerate = [&](Status st, ErrorCode benign) {
    if (replay && st.code() == benign) {
      return OkStatus();
    }
    return st;
  };

  switch (op.type) {
    case MetaOpType::kCreateFile: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(tolerate(dir.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      file.SetLinkCount(op.obj_links);
      return PoolRemove(client_id, {op.obj});
    }

    case MetaOpType::kCreateDir: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(tolerate(dir.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(Collection child,
                             Collection::Open(ctx_, op.obj));
      child.SetParentOid(op.dir);
      child.SetLinkCount(op.obj_links);
      return PoolRemove(client_id, {op.obj});
    }

    case MetaOpType::kLink: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(tolerate(dir.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      file.SetLinkCount(op.obj_links);
      return OkStatus();
    }

    case MetaOpType::kUnlink: {
      AERIE_ASSIGN_OR_RETURN(Collection dir, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(
          tolerate(dir.Erase(op.name), ErrorCode::kNotFound));
      if (op.victim_is_dir) {
        auto victim = Collection::Open(ctx_, op.victim);
        if (victim.ok()) {
          AERIE_RETURN_IF_ERROR(victim->Destroy());
        }
        return OkStatus();
      }
      auto victim = MFile::Open(ctx_, op.victim);
      if (!victim.ok()) {
        return replay ? OkStatus() : victim.status();
      }
      victim->SetLinkCount(op.victim_links);
      if (op.victim_free) {
        return victim->Destroy();
      }
      if (op.victim_links == 0) {
        return OrphanAdd(op.victim);  // unlinked while open (§6.1)
      }
      return OkStatus();
    }

    case MetaOpType::kRename: {
      AERIE_ASSIGN_OR_RETURN(Collection src, Collection::Open(ctx_, op.dir));
      AERIE_ASSIGN_OR_RETURN(Collection dst,
                             Collection::Open(ctx_, op.dir2));
      AERIE_RETURN_IF_ERROR(
          tolerate(src.Erase(op.name), ErrorCode::kNotFound));
      if (!op.victim.IsNull()) {
        AERIE_RETURN_IF_ERROR(
            tolerate(dst.Erase(op.name2), ErrorCode::kNotFound));
        if (op.victim_is_dir) {
          auto victim = Collection::Open(ctx_, op.victim);
          if (victim.ok()) {
            AERIE_RETURN_IF_ERROR(victim->Destroy());
          }
        } else {
          auto victim = MFile::Open(ctx_, op.victim);
          if (victim.ok()) {
            victim->SetLinkCount(op.victim_links);
            if (op.victim_free) {
              AERIE_RETURN_IF_ERROR(victim->Destroy());
            } else if (op.victim_links == 0) {
              AERIE_RETURN_IF_ERROR(OrphanAdd(op.victim));
            }
          }
        }
      }
      AERIE_RETURN_IF_ERROR(tolerate(dst.Insert(op.name2, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      if (op.obj.type() == ObjType::kCollection) {
        AERIE_ASSIGN_OR_RETURN(Collection moved,
                               Collection::Open(ctx_, op.obj));
        moved.SetParentOid(op.dir2);
      }
      return OkStatus();
    }

    case MetaOpType::kAttachExtent: {
      // Idempotent as is: pages already holding their run extent are kept.
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      AERIE_RETURN_IF_ERROR(file.AttachExtents(op.a, op.extents));
      return PoolRemove(client_id, ExtentOids(op));
    }

    case MetaOpType::kSetSize: {
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      return file.SetSize(op.a);
    }

    case MetaOpType::kTruncate: {
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      return file.Truncate(op.a);
    }

    case MetaOpType::kSetAcl: {
      const uint32_t acl = static_cast<uint32_t>(op.a);
      if (op.obj.type() == ObjType::kMFile) {
        AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
        file.SetAcl(acl);
        if (scm_ != nullptr) {
          // Propagate protection to every extent of the object (paper
          // §5.3.3): hardware (soft page table) rights must match.
          (void)file.ForEachExtent([&](uint64_t, uint64_t extent) {
            if (!scm_->MprotectExtent(extent, acl).ok()) {
              (void)scm_->CreateExtent(extent, kScmPageSize, acl);
            }
            return true;
          });
        }
      } else {
        AERIE_ASSIGN_OR_RETURN(Collection dir,
                               Collection::Open(ctx_, op.obj));
        dir.SetAcl(acl);
      }
      return OkStatus();
    }

    case MetaOpType::kFlatPut: {
      AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, op.dir));
      if (!op.victim.IsNull() && op.victim != op.obj) {
        AERIE_RETURN_IF_ERROR(
            tolerate(coll.Erase(op.name), ErrorCode::kNotFound));
        auto victim = MFile::Open(ctx_, op.victim);
        if (victim.ok() && op.victim_free) {
          AERIE_RETURN_IF_ERROR(victim->Destroy());
        } else if (victim.ok()) {
          victim->SetLinkCount(0);
          AERIE_RETURN_IF_ERROR(OrphanAdd(op.victim));
        }
      }
      AERIE_RETURN_IF_ERROR(tolerate(coll.Insert(op.name, op.obj.raw()),
                                     ErrorCode::kAlreadyExists));
      AERIE_ASSIGN_OR_RETURN(MFile file, MFile::Open(ctx_, op.obj));
      AERIE_RETURN_IF_ERROR(file.SetSize(op.a));
      file.SetLinkCount(op.obj_links);
      return PoolRemove(client_id, {op.obj});
    }

    case MetaOpType::kFlatErase: {
      AERIE_ASSIGN_OR_RETURN(Collection coll, Collection::Open(ctx_, op.dir));
      AERIE_RETURN_IF_ERROR(
          tolerate(coll.Erase(op.name), ErrorCode::kNotFound));
      auto victim = MFile::Open(ctx_, op.victim);
      if (victim.ok()) {
        victim->SetLinkCount(0);
        if (op.victim_free) {
          return victim->Destroy();
        }
        return OrphanAdd(op.victim);
      }
      return OkStatus();
    }

    case MetaOpType::kNone:
      break;
  }
  return Status(ErrorCode::kInvalidArgument, "unknown op type");
}

// --- Batch pipeline ------------------------------------------------------

Status TrustedFsService::ApplyBatch(uint64_t client_id,
                                    std::string_view batch_blob) {
  AERIE_SCM_LAYER("tfs");
  AERIE_SPAN("tfs", "apply_batch");
  // Any RPC from a live client proves it hasn't failed, so renew its lease —
  // exactly as Acquire/Release do. Without this, a client working entirely
  // out of its lock cache (no lock RPCs, hence no implicit renewals) could
  // ship a batch moments after a renewal stall lapsed the lease and have
  // every op rejected by HoldsWriteLock's LeaseValid check even though the
  // locks were never granted elsewhere. A client whose locks genuinely moved
  // on still fails the per-op HeldMode checks below.
  (void)locks_->Renew(client_id);
  auto ops = DecodeBatch(batch_blob);
  if (!ops.ok()) {
    ops_rejected_.Add(1);
    return ops.status();
  }
  obs::TraceInstant("tfs.apply_batch.ops", ops->size());

  // Each op is validated against the *current* state (so later ops in a
  // batch see the effects of earlier ones), WAL-logged, committed, then
  // applied in place (paper §5.3.6: log, flush, fence, then mutate). A
  // validation failure rejects the remainder of the batch; prior ops stand,
  // matching the paper's "individual metadata updates" semantics.
  RedoLog* log = volume_->log();
  {
    std::lock_guard lock(log_mu_);
    applies_in_flight_++;
  }
  Status result = OkStatus();
  for (MetaOp& op : *ops) {
    Status st = Validate(client_id, &op);
    if (!st.ok()) {
      ops_rejected_.Add(1);
      result = st;
      break;
    }
    {
      std::lock_guard lock(log_mu_);
      WireBuffer rec;
      rec.AppendU64(client_id);
      op.Encode(&rec);
      st = log->Append(static_cast<uint32_t>(op.type), rec.data());
      if (st.code() == ErrorCode::kOutOfSpace && applies_in_flight_ == 1) {
        // We are the only batch mid-apply: safe to checkpoint and retry.
        log->Rollback();
        log->Truncate();
        st = log->Append(static_cast<uint32_t>(op.type), rec.data());
      }
      if (st.ok()) {
        st = log->Commit();
      }
      if (!st.ok()) {
        log->Rollback();
        result = st;
      }
    }
    if (!result.ok()) {
      break;
    }
    if (crash_after_log_commit_) {
      // Simulated crash: the commit is durable, the apply never happens.
      std::lock_guard lock(log_mu_);
      applies_in_flight_--;
      return Status(ErrorCode::kUnavailable,
                    "injected crash after WAL commit");
    }
    st = Apply(client_id, op, /*replay=*/false);
    if (!st.ok()) {
      result = st;  // validated ops should not fail; surface and continue
    }
    ops_applied_.Add(1);
    // Crash-sim interest point: the op is applied in place but the log
    // still holds its committed record (replay must be idempotent here).
    ctx_.region->CrashPoint("tfs.apply");
  }

  // Checkpoint: drop the log once no batch is mid-apply.
  {
    std::lock_guard lock(log_mu_);
    applies_in_flight_--;
    if (applies_in_flight_ == 0) {
      log->Truncate();
      ctx_.region->CrashPoint("tfs.checkpoint");
    }
  }
  batches_applied_.Add(1);
  return result;
}

Status TrustedFsService::Recover() {
  AERIE_SCM_LAYER("tfs");
  AERIE_SPAN("tfs", "recover");
  RedoLog* log = volume_->log();
  AERIE_RETURN_IF_ERROR(log->Replay(
      [this](uint32_t type, std::span<const char> payload) -> Status {
        WireReader reader(std::string_view(payload.data(), payload.size()));
        auto client = reader.ReadU64();
        if (!client.ok()) {
          return client.status();
        }
        auto op = MetaOp::Decode(&reader);
        if (!op.ok()) {
          return op.status();
        }
        if (static_cast<uint32_t>(op->type) != type) {
          return Status(ErrorCode::kCorrupted, "op type mismatch in log");
        }
        return Apply(*client, *op, /*replay=*/true);
      }));
  log->Truncate();

  // Reclaim unlinked files with no remaining opener (all openers died with
  // the crash).
  auto orphans = Collection::Open(ctx_, orphans_oid_);
  if (orphans.ok()) {
    std::vector<Oid> dead;
    (void)orphans->Scan([&](std::string_view, uint64_t value) {
      dead.push_back(Oid(value));
      return true;
    });
    for (Oid oid : dead) {
      auto file = MFile::Open(ctx_, oid);
      if (file.ok()) {
        (void)file->Destroy();
      }
      (void)orphans->Erase(OidKey(oid));
    }
  }

  // Reclaim stale client pools: free still-pooled (never linked) objects.
  auto pools = Collection::Open(ctx_, pools_oid_);
  if (pools.ok()) {
    std::vector<std::pair<std::string, Oid>> tables;
    (void)pools->Scan([&](std::string_view key, uint64_t value) {
      tables.emplace_back(std::string(key), Oid(value));
      return true;
    });
    for (const auto& [key, table_oid] : tables) {
      ReclaimPoolTable(table_oid, /*only_unlinked=*/true);
      (void)pools->Erase(key);
    }
  }
  return OkStatus();
}

// --- Pools ---------------------------------------------------------------

void TrustedFsService::ReclaimPoolTable(Oid table_oid, bool only_unlinked) {
  auto table = Collection::Open(ctx_, table_oid);
  if (!table.ok()) {
    return;
  }
  std::vector<Oid> pooled;
  (void)table->Scan([&](std::string_view, uint64_t value) {
    pooled.push_back(Oid(value));
    return true;
  });
  for (Oid oid : pooled) {
    switch (oid.type()) {
      case ObjType::kMFile: {
        auto f = MFile::Open(ctx_, oid);
        if (f.ok() && (!only_unlinked || f->link_count() == 0)) {
          (void)f->Destroy();
        }
        break;
      }
      case ObjType::kCollection: {
        auto c = Collection::Open(ctx_, oid);
        if (c.ok() && (!only_unlinked || c->link_count() == 0)) {
          (void)c->Destroy();
        }
        break;
      }
      case ObjType::kExtent:
        (void)ctx_.alloc->Free(oid.offset(), 0);
        break;
      default:
        break;
    }
  }
  (void)table->Destroy();
}

Result<Oid> TrustedFsService::EnsurePoolTable(uint64_t client_id) {
  std::lock_guard lock(alloc_mu_);
  {
    std::lock_guard clock(clients_mu_);
    auto it = clients_.find(client_id);
    if (it != clients_.end() && !it->second.pool_table.IsNull()) {
      return it->second.pool_table;
    }
  }
  AERIE_ASSIGN_OR_RETURN(Collection pools,
                         Collection::Open(ctx_, pools_oid_));
  Oid table_oid;
  auto existing = pools.Lookup(ClientKey(client_id));
  if (existing.ok()) {
    table_oid = Oid(*existing);
  } else {
    AERIE_ASSIGN_OR_RETURN(Collection table, Collection::Create(ctx_, 0));
    AERIE_RETURN_IF_ERROR(
        pools.Insert(ClientKey(client_id), table.oid().raw()));
    table_oid = table.oid();
  }
  std::lock_guard clock(clients_mu_);
  clients_[client_id].pool_table = table_oid;
  return table_oid;
}

Result<std::vector<Oid>> TrustedFsService::PoolFill(uint64_t client_id,
                                                    ObjType type,
                                                    uint32_t count,
                                                    uint64_t capacity) {
  AERIE_SCM_LAYER("tfs");
  AERIE_SPAN("tfs", "pool_fill");
  if (count == 0 || count > 65536) {
    return Status(ErrorCode::kInvalidArgument, "bad pool fill count");
  }
  AERIE_ASSIGN_OR_RETURN(Oid table_oid, EnsurePoolTable(client_id));
  AERIE_ASSIGN_OR_RETURN(Collection table,
                         Collection::Open(ctx_, table_oid));
  std::vector<Oid> out;
  out.reserve(count);
  switch (type) {
    case ObjType::kMFile:
      for (uint32_t i = 0; i < count; ++i) {
        auto f = capacity == 0 ? MFile::Create(ctx_, 0)
                               : MFile::CreateSingleExtent(ctx_, 0, capacity);
        if (!f.ok()) {
          return f.status();
        }
        out.push_back(f->oid());
      }
      break;
    case ObjType::kCollection:
      for (uint32_t i = 0; i < count; ++i) {
        auto c = Collection::Create(ctx_, 0);
        if (!c.ok()) {
          return c.status();
        }
        out.push_back(c->oid());
      }
      break;
    case ObjType::kExtent: {
      // Batched page allocation: one bitmap flush for the whole fill.
      std::vector<uint64_t> offsets;
      AERIE_RETURN_IF_ERROR(ctx_.alloc->AllocMany(0, count, &offsets));
      for (uint64_t offset : offsets) {
        out.push_back(Oid::Make(ObjType::kExtent, offset));
      }
      break;
    }
    default:
      return Status(ErrorCode::kInvalidArgument, "bad pool object type");
  }

  // Bulk-record the fill in the persistent pool table (WAFL-style tracking
  // file) and the volatile mirror.
  std::vector<std::pair<std::string, uint64_t>> entries;
  entries.reserve(out.size());
  for (Oid oid : out) {
    entries.emplace_back(OidKey(oid), oid.raw());
  }
  {
    std::lock_guard lock(alloc_mu_);
    AERIE_RETURN_IF_ERROR(table.InsertManyUnchecked(entries));
  }
  std::lock_guard lock(clients_mu_);
  for (Oid oid : out) {
    clients_[client_id].pool.insert(oid.raw());
  }
  return out;
}

bool TrustedFsService::PoolContains(uint64_t client_id,
                                    const std::vector<Oid>& oids) {
  std::lock_guard lock(clients_mu_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return false;
  }
  for (Oid oid : oids) {
    if (it->second.pool.count(oid.raw()) == 0) {
      return false;
    }
  }
  return true;
}

Status TrustedFsService::PoolRemove(uint64_t client_id,
                                    const std::vector<Oid>& oids) {
  Oid table_oid;
  {
    std::lock_guard lock(clients_mu_);
    auto it = clients_.find(client_id);
    if (it != clients_.end()) {
      for (Oid oid : oids) {
        it->second.pool.erase(oid.raw());
      }
      table_oid = it->second.pool_table;
    }
  }
  if (table_oid.IsNull()) {
    // Replay path: resolve the client's pool table from the persistent
    // master (the in-memory session died with the crash).
    auto pools = Collection::Open(ctx_, pools_oid_);
    if (!pools.ok()) {
      return OkStatus();
    }
    auto existing = pools->Lookup(ClientKey(client_id));
    if (!existing.ok()) {
      return OkStatus();  // pool already reclaimed
    }
    table_oid = Oid(*existing);
  }
  auto table = Collection::Open(ctx_, table_oid);
  if (!table.ok()) {
    return OkStatus();
  }
  std::vector<std::string> keys;
  keys.reserve(oids.size());
  for (Oid oid : oids) {
    keys.push_back(OidKey(oid));
  }
  // One erase for the lot; keys already consumed (a replayed op) are
  // skipped.
  std::lock_guard lock(alloc_mu_);
  return table->EraseMany(std::vector<std::string_view>(keys.begin(),
                                                        keys.end()))
      .status();
}

// --- Open-file table (§6.1) ---------------------------------------------

uint64_t TrustedFsService::OpenCount(Oid file) const {
  std::lock_guard lock(clients_mu_);
  auto it = open_counts_.find(file.raw());
  return it == open_counts_.end() ? 0 : it->second;
}

Status TrustedFsService::NotifyOpen(uint64_t client_id, Oid file) {
  std::lock_guard lock(clients_mu_);
  clients_[client_id].open_files.insert(file.raw());
  open_counts_[file.raw()]++;
  return OkStatus();
}

Status TrustedFsService::OrphanAdd(Oid file) {
  std::lock_guard lock(alloc_mu_);
  AERIE_ASSIGN_OR_RETURN(Collection orphans,
                         Collection::Open(ctx_, orphans_oid_));
  Status st = orphans.Insert(OidKey(file), file.raw());
  if (st.code() == ErrorCode::kAlreadyExists) {
    return OkStatus();
  }
  return st;
}

Status TrustedFsService::OrphanRemoveAndFree(Oid file) {
  {
    std::lock_guard lock(alloc_mu_);
    AERIE_ASSIGN_OR_RETURN(Collection orphans,
                           Collection::Open(ctx_, orphans_oid_));
    Status st = orphans.Erase(OidKey(file));
    if (st.code() == ErrorCode::kNotFound) {
      return OkStatus();  // was never orphaned
    }
    AERIE_RETURN_IF_ERROR(st);
  }
  auto f = MFile::Open(ctx_, file);
  if (f.ok()) {
    return f->Destroy();
  }
  return OkStatus();
}

Status TrustedFsService::NotifyClosed(uint64_t client_id, Oid file) {
  bool last = false;
  {
    std::lock_guard lock(clients_mu_);
    clients_[client_id].open_files.erase(file.raw());
    auto it = open_counts_.find(file.raw());
    if (it != open_counts_.end() && --it->second == 0) {
      open_counts_.erase(it);
      last = true;
    }
  }
  if (last) {
    auto f = MFile::Open(ctx_, file);
    if (f.ok() && f->link_count() == 0) {
      return OrphanRemoveAndFree(file);
    }
  }
  return OkStatus();
}

Status TrustedFsService::ClientDisconnected(uint64_t client_id) {
  std::vector<uint64_t> open;
  Oid table_oid;
  {
    std::lock_guard lock(clients_mu_);
    auto it = clients_.find(client_id);
    if (it == clients_.end()) {
      return OkStatus();
    }
    open.assign(it->second.open_files.begin(), it->second.open_files.end());
    table_oid = it->second.pool_table;
    clients_.erase(it);
  }
  for (uint64_t raw : open) {
    (void)NotifyClosed(client_id, Oid(raw));
  }
  // Free still-pooled objects and drop the pool table (paper: special files
  // tracking pre-allocated objects prevent leaks).
  if (!table_oid.IsNull()) {
    ReclaimPoolTable(table_oid, /*only_unlinked=*/false);
    std::lock_guard lock(alloc_mu_);
    auto pools = Collection::Open(ctx_, pools_oid_);
    if (pools.ok()) {
      (void)pools->Erase(ClientKey(client_id));
    }
  }
  return OkStatus();
}

// --- Service-mediated data path (§5.3.3) ----------------------------------

Result<uint64_t> TrustedFsService::ServiceRead(uint64_t client_id, Oid file,
                                               uint64_t offset,
                                               std::span<char> out) {
  AERIE_SPAN("tfs", "service_read");
  (void)client_id;  // permission checks live at the interface layer
  AERIE_ASSIGN_OR_RETURN(MFile f, MFile::Open(ctx_, file));
  return f.Read(offset, out);
}

Status TrustedFsService::ServiceWrite(uint64_t client_id, Oid file,
                                      uint64_t offset,
                                      std::span<const char> data) {
  AERIE_SCM_LAYER("tfs");
  AERIE_SPAN("tfs", "service_write");
  (void)client_id;
  AERIE_ASSIGN_OR_RETURN(MFile f, MFile::Open(ctx_, file));
  if (!f.single_extent()) {
    // Allocate backing extents for any holes the write touches.
    const uint64_t first_page = offset / kScmPageSize;
    const uint64_t last_page = (offset + data.size() - 1) / kScmPageSize;
    for (uint64_t p = first_page; p <= last_page; ++p) {
      if (!f.ExtentForPage(p).ok()) {
        AERIE_ASSIGN_OR_RETURN(uint64_t extent, ctx_.alloc->Alloc(0));
        std::memset(ctx_.region->PtrAt(extent), 0, kScmPageSize);
        AERIE_RETURN_IF_ERROR(f.AttachExtents(p, {&extent, 1}));
      }
    }
  }
  AERIE_RETURN_IF_ERROR(f.WriteInPlace(offset, data));
  ctx_.region->BFlush();
  if (offset + data.size() > f.size()) {
    AERIE_RETURN_IF_ERROR(f.SetSize(offset + data.size()));
  }
  return OkStatus();
}

// --- RPC wiring ------------------------------------------------------------

void TrustedFsService::RegisterRpc(RpcDispatcher* dispatcher) {
  obs::SetRpcMethodName(kTfsRpcApplyBatch, "tfs.apply_batch");
  obs::SetRpcMethodName(kTfsRpcPoolFill, "tfs.pool_fill");
  obs::SetRpcMethodName(kTfsRpcNotifyOpen, "tfs.notify_open");
  obs::SetRpcMethodName(kTfsRpcNotifyClosed, "tfs.notify_closed");
  obs::SetRpcMethodName(kTfsRpcGetRoots, "tfs.get_roots");
  obs::SetRpcMethodName(kTfsRpcServiceRead, "tfs.service_read");
  obs::SetRpcMethodName(kTfsRpcServiceWrite, "tfs.service_write");
  dispatcher->Register(
      kTfsRpcApplyBatch,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        AERIE_RETURN_IF_ERROR(ApplyBatch(client, req));
        return std::string();
      });
  dispatcher->Register(
      kTfsRpcPoolFill,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto type = r.ReadU8();
        auto count = r.ReadU32();
        auto capacity = r.ReadU64();
        if (!type.ok() || !count.ok() || !capacity.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad pool-fill request");
        }
        auto oids = PoolFill(client, static_cast<ObjType>(*type), *count,
                             *capacity);
        if (!oids.ok()) {
          return oids.status();
        }
        WireBuffer out;
        out.AppendU32(static_cast<uint32_t>(oids->size()));
        for (Oid oid : *oids) {
          out.AppendU64(oid.raw());
        }
        return out.Release();
      });
  dispatcher->Register(
      kTfsRpcNotifyOpen,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        if (!oid.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad notify request");
        }
        AERIE_RETURN_IF_ERROR(NotifyOpen(client, Oid(*oid)));
        return std::string();
      });
  dispatcher->Register(
      kTfsRpcNotifyClosed,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        if (!oid.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad notify request");
        }
        AERIE_RETURN_IF_ERROR(NotifyClosed(client, Oid(*oid)));
        return std::string();
      });
  dispatcher->Register(
      kTfsRpcGetRoots,
      [this](uint64_t, std::string_view) -> Result<std::string> {
        WireBuffer out;
        out.AppendU64(roots_.pxfs_root.raw());
        out.AppendU64(roots_.flat_root.raw());
        return out.Release();
      });
  dispatcher->Register(
      kTfsRpcServiceRead,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        auto offset = r.ReadU64();
        auto len = r.ReadU32();
        if (!oid.ok() || !offset.ok() || !len.ok() || *len > (16u << 20)) {
          return Status(ErrorCode::kInvalidArgument, "bad read request");
        }
        std::string buf(*len, '\0');
        auto n = ServiceRead(client, Oid(*oid), *offset,
                             std::span<char>(buf.data(), buf.size()));
        if (!n.ok()) {
          return n.status();
        }
        buf.resize(*n);
        return buf;
      });
  dispatcher->Register(
      kTfsRpcServiceWrite,
      [this](uint64_t client, std::string_view req) -> Result<std::string> {
        WireReader r(req);
        auto oid = r.ReadU64();
        auto offset = r.ReadU64();
        auto data = r.ReadString();
        if (!oid.ok() || !offset.ok() || !data.ok()) {
          return Status(ErrorCode::kInvalidArgument, "bad write request");
        }
        AERIE_RETURN_IF_ERROR(ServiceWrite(
            client, Oid(*oid), *offset,
            std::span<const char>(data->data(), data->size())));
        return std::string();
      });
}

}  // namespace aerie
