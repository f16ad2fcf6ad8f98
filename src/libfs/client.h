// libFS client runtime (paper §4.2, §5.3.5, §5.3.7).
//
// Each application links a LibFs instance per mounted file system. It owns:
//   * a read-only view of the volume (direct SCM access for lookups/reads);
//   * the lock clerk (global lock caching, hierarchical grants);
//   * the metadata batch: clients buffer MetaOps locally and ship them to
//     the TFS when the batch exceeds the threshold, when the application
//     syncs, or — crucially — whenever the clerk must give up a global lock
//     (delayed writes, paper §5.3.5);
//   * object pools: pre-allocated collections, mFiles and extents so create
//     and append paths never RPC synchronously (paper §5.3.7: pools of 1000).
//
// Interface layers (PXFS, FlatFS) sit on top of this class and own all
// per-file client state: shadows of pending updates and the direct-path
// snapshot caches (DESIGN.md §10.2). libFS keeps only the direct-path gate
// and its counters.
#ifndef AERIE_SRC_LIBFS_CLIENT_H_
#define AERIE_SRC_LIBFS_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <thread>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/lock/clerk.h"
#include "src/osd/oid.h"
#include "src/osd/osd_context.h"
#include "src/osd/volume.h"
#include "src/rpc/transport.h"
#include "src/tfs/ops.h"

namespace aerie {

class LibFs {
 public:
  struct Options {
    uint64_t batch_max_bytes = 8ull << 20;  // paper: optimum batch ~8MB
    uint32_t pool_low_water = 16;
    uint32_t pool_refill = 1000;  // paper: pools of 1000 objects
    bool eager_ship = false;      // ship every op immediately (ablation)
    // Background shipping period (paper §5.3.5: clients send their buffered
    // updates "periodically (similar to delayed writes)"); the flusher also
    // wakes when the batch crosses batch_max_bytes, so foreground ops never
    // absorb a multi-megabyte apply pause. 0 disables the flusher (ships
    // synchronously at the threshold instead).
    uint64_t flush_interval_ms = 50;
    // Backpressure: once this many ops are logged (folded ones included)
    // without a ship, producers ship inline
    // instead of racing ahead of the service. Bounds the storage "float"
    // (pool objects held by unapplied ops) when the client outruns the TFS.
    uint64_t max_pending_ops = 4096;
    LockClerk::Options clerk;
  };

  // `transport` carries both lock-service and TFS methods; it must outlive
  // the LibFs. The caller registers the returned clerk as the client's
  // RevocationSink with the in-process LockService (see AerieSystem).
  static Result<std::unique_ptr<LibFs>> Mount(Transport* transport,
                                              ScmRegion* region,
                                              uint64_t partition_offset,
                                              const Options& options);

  ~LibFs();
  LibFs(const LibFs&) = delete;
  LibFs& operator=(const LibFs&) = delete;

  uint64_t client_id() const { return transport_->client_id(); }
  LockClerk* clerk() { return clerk_.get(); }
  OsdContext read_context() { return volume_->context(); }
  ScmRegion* region() { return region_; }

  Oid pxfs_root() const { return pxfs_root_; }
  Oid flat_root() const { return flat_root_; }

  // --- Metadata batching ---
  // Buffers `op`; ships the batch if it crossed the threshold.
  Status LogOp(MetaOp op);
  // Buffers several ops under one lock (multi-extent writes), moving them
  // out of `ops`. An op that only extends a file the pending batch already
  // extends folds into the batch instead of adding to it (DESIGN.md §6
  // item 1): a kAttachExtent joins an earlier run on the same file that
  // ends where it starts, cites the same authority and has only kSetSize
  // ops on that file after it; a kSetSize replaces a trailing kSetSize on
  // the same file and authority.
  Status LogOps(std::span<MetaOp> ops);
  // A folded run stops growing at this many pages. Its WAL record is then at
  // most ~8.3 KB, well inside the redo log (16 MB by default, 1 MB in the
  // crash tests).
  static constexpr uint64_t kMaxFoldedRunPages = 1024;
  // Ships all buffered ops now (the library's fsync-equivalent,
  // libfs_sync in the paper).
  Status Sync();
  // Ships the batch and releases every cached global lock.
  Status SyncAndReleaseLocks();

  uint64_t batches_shipped() const { return batches_shipped_.value(); }
  // Logical ops: a folded op counts here and in logged_seq().
  uint64_t ops_logged() const { return ops_logged_.value(); }
  // Ops the next ship sends: a folded op adds none.
  uint64_t pending_ops() const;
  // Ops are numbered from 1 in logging order. Ships keep that order, so
  // every op numbered up to shipped_seq() has reached the TFS (applied, or
  // dropped with its batch), and logged_seq() read after a LogOp returns
  // covers that op.
  uint64_t logged_seq() const { return logged_seq_.load(); }
  uint64_t shipped_seq() const { return shipped_seq_.load(); }

  // Interface layers add hooks run whenever a global lock is released or
  // downgraded, receiving the lock id (PXFS flushes its name cache and sends
  // open-file notifications here, paper §6.1). Returns a token for
  // RemoveReleaseHook; the layer MUST remove its hook before it is destroyed.
  uint64_t AddReleaseHook(std::function<void(LockId)> hook);
  void RemoveReleaseHook(uint64_t token);

  // Crash-test hook: all future ships become no-ops, so buffered metadata
  // dies with the client exactly like a killed process's would.
  void AbandonForCrashTest() { abandoned_ = true; }

  // --- Pools (paper §5.3.7) ---
  // Takes one pre-allocated object, refilling over RPC when low. capacity
  // selects single-extent mFiles (FlatFS).
  Result<Oid> TakePooled(ObjType type, uint64_t capacity = 0);

  // --- Open-file notifications (paper §6.1) ---
  Status NotifyOpen(Oid file);
  Status NotifyClosed(Oid file);

  // --- Service-mediated data path (paper §5.3.3) ---
  Result<uint64_t> ServiceRead(Oid file, uint64_t offset, std::span<char> out);
  Status ServiceWrite(Oid file, uint64_t offset, std::span<const char> data);

  // --- Direct data path (DESIGN.md §10: FlatFS's value cache) ---
  // Process-wide gate: true unless AERIE_DIRECT is "off"/"0" (read once).
  static bool DirectEnabled();

  void CountDirectRead(uint64_t bytes) { direct_read_bytes_.Add(bytes); }
  void CountDirectFallback() { direct_fallbacks_.Add(1); }
  uint64_t direct_read_bytes() const { return direct_read_bytes_.value(); }
  uint64_t direct_fallbacks() const { return direct_fallbacks_.value(); }
  uint64_t batches_ship_failed() const { return batches_ship_failed_.value(); }

 private:
  LibFs(Transport* transport, ScmRegion* region, Options options)
      : transport_(transport), region_(region), options_(options) {
    obs_registration_.AddAll(batches_shipped_, batches_ship_failed_,
                             ops_logged_, pool_takes_, pool_refills_,
                             direct_read_bytes_, direct_fallbacks_,
                             pending_ops_gauge_);
  }

  Status ShipBatchLocked(std::unique_lock<std::mutex>* lock);

  Transport* transport_;
  ScmRegion* region_;
  Options options_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<RemoteLockService> lock_stub_;
  std::unique_ptr<LockClerk> clerk_;
  Oid pxfs_root_;
  Oid flat_root_;

  void FlusherLoop();

  std::atomic<bool> abandoned_{false};
  std::mutex batch_mu_;
  std::condition_variable flush_cv_;
  bool flusher_stop_ = false;
  std::thread flusher_;
  // Serializes batch shipment so concurrently-triggered ships (flusher vs
  // Sync vs release hook) cannot reorder ops at the server.
  std::mutex ship_mu_;
  std::vector<MetaOp> batch_;
  uint64_t batch_bytes_ = 0;
  uint64_t batch_logged_ = 0;  // logical ops in batch_, folded ones included
  std::atomic<uint64_t> logged_seq_{0};  // advanced under batch_mu_
  std::atomic<uint64_t> shipped_seq_{0};
  // Batch statistics live in the obs registry for this mount's lifetime.
  obs::Counter batches_shipped_{"libfs.batch.shipped"};
  // Batches the TFS rejected outright. Never silent: acknowledged ops died
  // with the rejection, so telemetry must show it even when the shipper
  // (flusher, release hook) has no caller to report to.
  obs::Counter batches_ship_failed_{"libfs.batch.ship_failed"};
  obs::Counter ops_logged_{"libfs.batch.ops"};
  obs::Counter pool_takes_{"libfs.pool.take"};
  obs::Counter pool_refills_{"libfs.pool.refill"};
  obs::Counter direct_read_bytes_{"libfs.direct.read_bytes"};
  obs::Counter direct_fallbacks_{"libfs.direct.fallback"};
  obs::Gauge pending_ops_gauge_{"libfs.batch.pending"};
  obs::ScopedRegistration obs_registration_;

  std::mutex hooks_mu_;
  uint64_t next_hook_token_ = 1;
  std::map<uint64_t, std::function<void(LockId)>> release_hooks_;

  std::mutex pool_mu_;
  // (type, capacity) -> available oids
  std::map<std::pair<uint8_t, uint64_t>, std::vector<Oid>> pools_;
};

}  // namespace aerie

#endif  // AERIE_SRC_LIBFS_CLIENT_H_
