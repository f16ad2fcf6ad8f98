// Trusted File System service (paper §4.2, §5.3.5–§5.3.7, §6).
//
// The TFS is the trusted user-mode process that mutually-distrustful clients
// cooperate through. It owns every metadata *mutation*:
//
//   validate  — each batched op is checked structurally (untrusted bytes),
//               against the lock service (the client must hold the claimed
//               authority lock in a write mode with a live lease), and
//               against file-system invariants (unique names, empty-dir
//               removal, no rename cycles, extents really allocated and
//               owned by the client's pre-allocation pool);
//   log       — the validated, server-enriched ops are written to the
//               volume's redo log and committed (WAL, §5.3.6);
//   apply     — ops mutate collections/mFiles in place with flushes; replay
//               after a crash re-applies committed ops idempotently;
//   reclaim   — client failure discards unshipped batches implicitly (lock
//               leases), frees unused pre-allocated pool objects (WAFL-style
//               pool tracking files, §5.3.7), and collects unlinked-but-open
//               files once the last opener goes away (§6.1's open-file
//               table).
//
// One TFS serves both PXFS and FlatFS over the same volume layout (§6).
#ifndef AERIE_SRC_TFS_SERVICE_H_
#define AERIE_SRC_TFS_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lock/lock_service.h"
#include "src/obs/obs.h"
#include "src/osd/collection.h"
#include "src/osd/mfile.h"
#include "src/osd/volume.h"
#include "src/rpc/transport.h"
#include "src/scm/manager.h"
#include "src/tfs/ops.h"

namespace aerie {

class TrustedFsService {
 public:
  // `scm` may be null (no hardware-protection propagation).
  TrustedFsService(Volume* volume, LockService* locks,
                   ScmManager* scm = nullptr);

  // Creates the system collections (PXFS root, FlatFS namespace, orphan
  // table, pool master) on a freshly formatted volume. Idempotent.
  Status Bootstrap();

  // Crash recovery: replays the redo log, then reclaims orphans and stale
  // client pools.
  Status Recover();

  // --- Client-facing operations (also wired into RPC) ---

  // Validates, WAL-logs and applies a batch of metadata ops.
  Status ApplyBatch(uint64_t client_id, std::string_view batch_blob);

  // Pre-allocates `count` objects for the client (paper §5.3.7).
  // For kMFile with capacity != 0, single-extent mFiles are produced.
  Result<std::vector<Oid>> PoolFill(uint64_t client_id, ObjType type,
                                    uint32_t count, uint64_t capacity);

  // Open-file tracking for unlink-while-open (paper §6.1).
  Status NotifyOpen(uint64_t client_id, Oid file);
  Status NotifyClosed(uint64_t client_id, Oid file);

  struct Roots {
    Oid pxfs_root;
    Oid flat_root;
  };
  Roots GetRoots() const { return roots_; }

  // Fallback data path for files memory protection cannot express
  // (write-only files, §5.3.3): full read/write through the service.
  Result<uint64_t> ServiceRead(uint64_t client_id, Oid file, uint64_t offset,
                               std::span<char> out);
  Status ServiceWrite(uint64_t client_id, Oid file, uint64_t offset,
                      std::span<const char> data);

  // Client session teardown: drops open-file refs, reclaims its pool.
  Status ClientDisconnected(uint64_t client_id);

  void RegisterRpc(RpcDispatcher* dispatcher);

  // --- Introspection ---
  uint64_t batches_applied() const { return batches_applied_.value(); }
  uint64_t ops_applied() const { return ops_applied_.value(); }
  uint64_t ops_rejected() const { return ops_rejected_.value(); }
  Volume* volume() { return volume_; }
  LockService* locks() { return locks_; }

  // Test hook: when true, ApplyBatch "crashes" after the WAL commit and
  // before applying (the recovery path must finish the job).
  void set_crash_after_log_commit(bool v) { crash_after_log_commit_ = v; }

 private:
  struct ClientState {
    // Volatile mirror of the client's persistent pool table.
    std::set<uint64_t> pool;        // raw OIDs (incl. extents)
    std::set<uint64_t> open_files;  // files this client holds open
    Oid pool_table;                 // persistent tracking collection
  };

  // Validates `op` against locks, pools and invariants; fills the
  // server-enriched fields. mutating_ ops only.
  Status Validate(uint64_t client_id, MetaOp* op);
  // Applies an op to SCM structures. `replay` tolerates already-applied
  // effects (idempotent redo).
  Status Apply(uint64_t client_id, const MetaOp& op, bool replay);

  Status HoldsWriteLock(uint64_t client_id, LockId object_lock,
                        uint64_t authority) const;

  // Pool helpers. Persistent + volatile bookkeeping.
  Result<Oid> EnsurePoolTable(uint64_t client_id);
  // True when every oid is in the client's pool.
  bool PoolContains(uint64_t client_id, const std::vector<Oid>& oids);
  // Drops the oids from the client's pool with one pool-table erase.
  Status PoolRemove(uint64_t client_id, const std::vector<Oid>& oids);
  // Frees every object left in a pool table, then the table itself. With
  // `only_unlinked` (recovery), mFiles and collections that a replayed
  // create already linked are kept.
  void ReclaimPoolTable(Oid table_oid, bool only_unlinked);

  // Orphan (unlinked-but-open) bookkeeping.
  Status OrphanAdd(Oid file);
  Status OrphanRemoveAndFree(Oid file);
  uint64_t OpenCount(Oid file) const;

  Volume* volume_;
  LockService* locks_;
  ScmManager* scm_;
  OsdContext ctx_;

  Roots roots_;
  Oid orphans_oid_;
  Oid pools_oid_;

  mutable std::mutex clients_mu_;
  std::map<uint64_t, ClientState> clients_;
  std::map<uint64_t, uint64_t> open_counts_;  // file oid -> openers

  std::mutex log_mu_;
  uint64_t applies_in_flight_ = 0;

  std::mutex alloc_mu_;  // serializes pool/orphan collection mutation

  // Service statistics live in the obs registry for the service's lifetime.
  obs::Counter batches_applied_{"tfs.batch.applied"};
  obs::Counter ops_applied_{"tfs.ops.applied"};
  obs::Counter ops_rejected_{"tfs.ops.rejected"};
  obs::ScopedRegistration obs_registration_;
  bool crash_after_log_commit_ = false;
};

}  // namespace aerie

#endif  // AERIE_SRC_TFS_SERVICE_H_
