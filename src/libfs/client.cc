#include "src/libfs/client.h"

#include <cstdlib>
#include <cstring>
#include <string_view>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/rpc/wire.h"

namespace aerie {

Result<std::unique_ptr<LibFs>> LibFs::Mount(Transport* transport,
                                            ScmRegion* region,
                                            uint64_t partition_offset,
                                            const Options& options) {
  auto fs = std::unique_ptr<LibFs>(new LibFs(transport, region, options));

  auto volume = Volume::Open(region, partition_offset, /*writable=*/false);
  if (!volume.ok()) {
    return volume.status();
  }
  fs->volume_ = std::move(*volume);

  auto roots = transport->Call(kTfsRpcGetRoots, {});
  if (!roots.ok()) {
    return roots.status();
  }
  WireReader r(*roots);
  auto pxfs_root = r.ReadU64();
  auto flat_root = r.ReadU64();
  if (!pxfs_root.ok() || !flat_root.ok()) {
    return Status(ErrorCode::kUnavailable, "bad roots response");
  }
  fs->pxfs_root_ = Oid(*pxfs_root);
  fs->flat_root_ = Oid(*flat_root);

  fs->lock_stub_ = std::make_unique<RemoteLockService>(transport);
  fs->clerk_ =
      std::make_unique<LockClerk>(fs->lock_stub_.get(), options.clerk);

  // Ship buffered metadata before any global lock leaves this client: the
  // next holder must observe our updates (paper §5.3.5).
  LibFs* raw = fs.get();
  fs->clerk_->set_release_hook([raw](LockId id, LockMode) {
    (void)raw->Sync();
    std::lock_guard lock(raw->hooks_mu_);
    for (const auto& [token, hook] : raw->release_hooks_) {
      hook(id);
    }
  });
  if (options.flush_interval_ms != 0 && !options.eager_ship) {
    fs->flusher_ = std::thread([raw] { raw->FlusherLoop(); });
  }
  return fs;
}

void LibFs::FlusherLoop() {
  if (obs::SpansOn()) {
    obs::SetThreadTraceName("libfs.flusher");
  }
  std::unique_lock lock(batch_mu_);
  while (!flusher_stop_) {
    flush_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.flush_interval_ms));
    if (flusher_stop_) {
      break;
    }
    if (!batch_.empty()) {
      (void)ShipBatchLocked(&lock);
    }
  }
}

LibFs::~LibFs() {
  {
    std::lock_guard lock(batch_mu_);
    flusher_stop_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
  // Best-effort final ship; lock teardown happens via clerk destructor.
  (void)Sync();
}

uint64_t LibFs::AddReleaseHook(std::function<void(LockId)> hook) {
  std::lock_guard lock(hooks_mu_);
  const uint64_t token = next_hook_token_++;
  release_hooks_[token] = std::move(hook);
  return token;
}

void LibFs::RemoveReleaseHook(uint64_t token) {
  std::lock_guard lock(hooks_mu_);
  release_hooks_.erase(token);
}

uint64_t LibFs::pending_ops() const {
  std::lock_guard lock(const_cast<std::mutex&>(batch_mu_));
  return batch_.size();
}

namespace {

// Rough wire size: fixed fields + names + an attach run's extents.
uint64_t WireBytes(const MetaOp& op) {
  return 96 + op.name.size() + op.name2.size() +
         op.extents.size() * sizeof(uint64_t);
}

// Folds `op` into the pending `batch` when it only extends a file the batch
// already extends; false means `op` must be appended as its own op. A fold
// moves an attach ahead of kSetSize ops on its own file only, which cannot
// change the state the batch leaves: kSetSize writes the size word alone.
bool FoldInto(std::vector<MetaOp>* batch, const MetaOp& op) {
  if (batch->empty()) {
    return false;
  }
  if (op.type == MetaOpType::kSetSize) {
    MetaOp& last = batch->back();
    if (last.type != MetaOpType::kSetSize || last.obj != op.obj ||
        last.authority != op.authority) {
      return false;
    }
    last.a = op.a;
    return true;
  }
  if (op.type != MetaOpType::kAttachExtent) {
    return false;
  }
  auto run = batch->rbegin();
  while (run != batch->rend() && run->type == MetaOpType::kSetSize &&
         run->obj == op.obj) {
    ++run;
  }
  if (run == batch->rend() || run->type != MetaOpType::kAttachExtent ||
      run->obj != op.obj || run->authority != op.authority ||
      run->a + run->extents.size() != op.a ||
      run->extents.size() + op.extents.size() > LibFs::kMaxFoldedRunPages) {
    return false;
  }
  run->extents.insert(run->extents.end(), op.extents.begin(),
                      op.extents.end());
  return true;
}

}  // namespace

Status LibFs::LogOps(std::span<MetaOp> ops) {
  std::unique_lock lock(batch_mu_);
  for (MetaOp& op : ops) {
    if (FoldInto(&batch_, op)) {
      batch_bytes_ += op.extents.size() * sizeof(uint64_t);
    } else {
      batch_bytes_ += WireBytes(op);
      batch_.push_back(std::move(op));
    }
  }
  batch_logged_ += ops.size();
  logged_seq_.fetch_add(ops.size());
  ops_logged_.Add(ops.size());
  pending_ops_gauge_.Set(static_cast<int64_t>(batch_.size()));
  if (batch_logged_ >= options_.max_pending_ops) {
    return ShipBatchLocked(&lock);  // backpressure: producer pays the ship
  }
  if (batch_bytes_ >= options_.batch_max_bytes) {
    if (flusher_.joinable()) {
      flush_cv_.notify_all();  // background ship; don't stall the caller
      return OkStatus();
    }
    return ShipBatchLocked(&lock);
  }
  if (options_.eager_ship) {
    return ShipBatchLocked(&lock);
  }
  return OkStatus();
}

Status LibFs::LogOp(MetaOp op) {
  return LogOps({&op, 1});
}

Status LibFs::ShipBatchLocked(std::unique_lock<std::mutex>* lock) {
  if (abandoned_.load()) {
    return OkStatus();
  }
  // Ship order must equal logging order. ship_mu_ is taken BEFORE the
  // batch is swapped out, so a concurrent shipper (flusher vs Sync vs
  // release hook) cannot overtake an in-flight earlier batch. Lock order is
  // always ship_mu_ -> batch_mu_ here; callers drop batch_mu_ first.
  //
  // An empty batch must NOT return before taking ship_mu_: the clerk's
  // release hook calls Sync() to guarantee every op logged under the lock
  // being released has reached the server, and a concurrent shipper may
  // have swapped the batch out while its ApplyBatch RPC is still in
  // flight. Returning early would let the clerk release the global lock
  // while that RPC races it to the server, where validation then fails
  // with kPermissionDenied and acknowledged ops are lost.
  lock->unlock();
  Status result = OkStatus();
  {
    AERIE_SPAN("libfs", "ship_batch");
    // Batch-ship stall: contended ship_mu_ means this shipper is blocked
    // behind another batch's in-flight ApplyBatch — off-CPU time the
    // profiler charges to libfs.ship_batch as lock wait. Uncontended
    // acquisition stays on the try_lock fast path and records nothing.
    std::unique_lock<std::mutex> ship(ship_mu_, std::try_to_lock);
    if (!ship.owns_lock()) {
      obs::ScopedWait stalled(obs::WaitKind::kLock);
      ship.lock();
    }
    std::vector<MetaOp> ops;
    uint64_t through;  // the last op in `ops`
    {
      std::lock_guard relock(batch_mu_);
      through = logged_seq_.load();
      ops.swap(batch_);
      batch_bytes_ = 0;
      batch_logged_ = 0;
      pending_ops_gauge_.Set(0);
    }
    if (!ops.empty()) {
      obs::TraceInstant("libfs.ship_batch.ops", ops.size());
      if (clerk_->lease_lost() || abandoned_.load()) {
        // The service already discarded our authority; these updates are
        // gone (paper §4.3: failed clients' updates are discarded).
        result =
            Status(ErrorCode::kLockRevoked, "lease lost; batch discarded");
      } else {
        const std::string blob = EncodeBatch(ops);
        result = transport_->Call(kTfsRpcApplyBatch, blob).status();
        if (result.ok()) {
          batches_shipped_.Add(1);
        } else {
          // A rejected batch means acknowledged metadata updates are gone.
          // Background shippers (flusher, release hook) have nobody to hand
          // the status to, so the loss must at least be visible here.
          batches_ship_failed_.Add(1);
          obs::TraceInstant("libfs.ship_batch.failed", ops.size());
        }
      }
    }
    shipped_seq_.store(through);
  }
  lock->lock();
  return result;
}

Status LibFs::Sync() {
  std::unique_lock lock(batch_mu_);
  return ShipBatchLocked(&lock);
}

// --- Direct data path (DESIGN.md §10) ---

bool LibFs::DirectEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("AERIE_DIRECT");
    if (v == nullptr) {
      return true;
    }
    return !(std::string_view(v) == "off" || std::string_view(v) == "0" ||
             std::string_view(v) == "false");
  }();
  return enabled;
}

Status LibFs::SyncAndReleaseLocks() {
  AERIE_RETURN_IF_ERROR(Sync());
  clerk_->ReleaseAllGlobals();
  return OkStatus();
}

Result<Oid> LibFs::TakePooled(ObjType type, uint64_t capacity) {
  pool_takes_.Add(1);
  const auto key = std::make_pair(static_cast<uint8_t>(type), capacity);
  {
    std::lock_guard lock(pool_mu_);
    auto& pool = pools_[key];
    if (!pool.empty()) {
      Oid oid = pool.back();
      pool.pop_back();
      return oid;
    }
  }
  // Refill over RPC (paper: 1000 objects per refill keeps this rare).
  AERIE_SPAN("libfs", "pool_refill");
  pool_refills_.Add(1);
  WireBuffer req;
  req.AppendU8(static_cast<uint8_t>(type));
  req.AppendU32(options_.pool_refill);
  req.AppendU64(capacity);
  auto resp = transport_->Call(kTfsRpcPoolFill, req.data());
  if (!resp.ok()) {
    return resp.status();
  }
  WireReader r(*resp);
  auto count = r.ReadU32();
  if (!count.ok() || *count == 0) {
    return Status(ErrorCode::kOutOfSpace, "pool refill returned nothing");
  }
  std::lock_guard lock(pool_mu_);
  auto& pool = pools_[key];
  for (uint32_t i = 0; i < *count; ++i) {
    auto oid = r.ReadU64();
    if (!oid.ok()) {
      return Status(ErrorCode::kUnavailable, "bad pool response");
    }
    pool.push_back(Oid(*oid));
  }
  Oid oid = pool.back();
  pool.pop_back();
  return oid;
}

Status LibFs::NotifyOpen(Oid file) {
  WireBuffer req;
  req.AppendU64(file.raw());
  return transport_->Call(kTfsRpcNotifyOpen, req.data()).status();
}

Status LibFs::NotifyClosed(Oid file) {
  WireBuffer req;
  req.AppendU64(file.raw());
  return transport_->Call(kTfsRpcNotifyClosed, req.data()).status();
}

Result<uint64_t> LibFs::ServiceRead(Oid file, uint64_t offset,
                                    std::span<char> out) {
  WireBuffer req;
  req.AppendU64(file.raw());
  req.AppendU64(offset);
  req.AppendU32(static_cast<uint32_t>(out.size()));
  auto resp = transport_->Call(kTfsRpcServiceRead, req.data());
  if (!resp.ok()) {
    return resp.status();
  }
  const uint64_t n = std::min(out.size(), resp->size());
  std::memcpy(out.data(), resp->data(), n);
  return n;
}

Status LibFs::ServiceWrite(Oid file, uint64_t offset,
                           std::span<const char> data) {
  WireBuffer req;
  req.AppendU64(file.raw());
  req.AppendU64(offset);
  req.AppendString(std::string_view(data.data(), data.size()));
  return transport_->Call(kTfsRpcServiceWrite, req.data()).status();
}

}  // namespace aerie
