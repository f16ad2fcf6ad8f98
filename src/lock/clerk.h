// The clerk: libFS's client-side agent of the lock service (paper §5.1).
//
// The clerk acquires *global* locks from the lock service and then issues
// *local* lightweight mutexes to threads within the process. It implements:
//
//   * lock caching — global locks are retained after the last local release
//     and reused without an RPC until the service revokes them or the client
//     syncs (paper: "releases the global lock when it has not been used
//     recently or when the lock service calls back");
//   * hierarchical locking — a held SH/XH lock lets the clerk grant locks on
//     descendant objects entirely locally (paper §5.3.4);
//   * de-escalation — when a hierarchical lock is revoked while descendants
//     are in use, the clerk acquires explicit global locks lower in the
//     hierarchy before giving up the high-level lock;
//   * revocation draining — when a callback arrives for a lock in use, new
//     local grants are blocked and the global lock is released once the last
//     local user drains;
//   * lease renewal — a background thread renews the client's lease; a
//     client that stops renewing implicitly releases everything.
//
// Before any global lock is released or downgraded, the clerk invokes the
// registered ReleaseHook. libFS uses it to ship batched metadata updates to
// the TFS (the batch must reach the service before another client can
// observe the lock), and PXFS hooks it to flush the path-name cache.
#ifndef AERIE_SRC_LOCK_CLERK_H_
#define AERIE_SRC_LOCK_CLERK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lock/lock_proto.h"
#include "src/lock/lock_service.h"
#include "src/obs/obs.h"

namespace aerie {

class LockClerk final : public RevocationSink {
 public:
  struct Options {
    uint64_t renew_interval_ms = 500;
    // How long a local-grant wait may block before kLockConflict.
    uint64_t local_wait_timeout_ms = 2000;
  };

  // `service` must outlive the clerk.
  explicit LockClerk(LockServiceClient* service);
  LockClerk(LockServiceClient* service, Options options);
  ~LockClerk() override;

  LockClerk(const LockClerk&) = delete;
  LockClerk& operator=(const LockClerk&) = delete;

  // Invoked (outside the clerk mutex) before a global lock is released or
  // downgraded. Must not call back into this clerk.
  using ReleaseHook = std::function<void(LockId, LockMode)>;
  void set_release_hook(ReleaseHook hook);

  // Acquires `mode` (kShared/kExclusive/kSharedHier/kExclusiveHier) on `id`.
  // `ancestors` lists the lock ids from the root of the hierarchy down to the
  // immediate parent; the clerk takes intent locks on them as needed, or
  // grants locally when a held hierarchical ancestor covers the request.
  Status Acquire(LockId id, LockMode mode,
                 std::span<const LockId> ancestors = {});

  // Releases the caller's local grant; the global lock stays cached.
  void Release(LockId id);

  // Ships pending state (via the hook) and releases the global lock.
  Status ReleaseGlobal(LockId id);

  // Releases every cached global lock (sync / unmount).
  void ReleaseAllGlobals();

  // Releases cached globals with no local users that have been idle for at
  // least `idle_ns` (the "not used recently" policy).
  void ReleaseIdleGlobals(uint64_t idle_ns);

  // --- RevocationSink (called by service threads; queues work) ---
  void OnRevoke(LockId id, LockMode wanted) override;
  void OnLeaseExpired() override;

  // --- Direct data path (lease-validity fast path, DESIGN.md §10) ---
  //
  // A direct-access *epoch* lets data ops bypass the clerk mutex entirely.
  // The epoch is bumped whenever cached authority may shrink: a revocation
  // arrives, a drain begins, or the lease is lost. A client-side cache entry
  // (extent map, FlatFS value location) records the epoch at validation
  // time; a data op then only has to pin + compare one atomic to know the
  // authority it was validated under is still intact. Any bump — even for an
  // unrelated lock — forces the op back onto the locked path, where the
  // cache entry is revalidated and the epoch refreshed (coarse, but bumps
  // only happen on revocation/lease events, which are rare by design).

  // Validates under the clerk mutex that cached authority on `id` covers
  // `mode` right now (lease live, no drain in flight anywhere on the
  // covering chain). Returns the epoch the caller may cache.
  Result<uint64_t> DirectGrant(LockId id, LockMode mode);

  // Fast path: pins the direct path and re-checks `epoch`. On success the
  // caller may touch mapped SCM until ExitDirect(); drains wait for the pin
  // count to reach zero before a global lock can leave this client, so a
  // pinned memcpy can never race a new holder. On failure (epoch moved —
  // a revoke is in flight) nothing is pinned and the caller must fall back.
  bool TryEnterDirect(uint64_t epoch) {
    direct_pins_.fetch_add(1);  // seq_cst: orders against the drain's bump
    if (direct_epoch_.load() != epoch || lease_lost_.load()) {
      direct_pins_.fetch_sub(1);
      direct_fallbacks_.Add(1);
      return false;
    }
    return true;
  }
  void ExitDirect() { direct_pins_.fetch_sub(1); }

  uint64_t direct_epoch() const { return direct_epoch_.load(); }
  uint64_t direct_grants() const { return direct_grants_.value(); }
  uint64_t direct_fallbacks() const { return direct_fallbacks_.value(); }

  // --- Introspection / test hooks ---
  // Mode of the cached global lock (kFree if none / only locally covered).
  LockMode GlobalMode(LockId id) const;

  // The lock id the *service* knows grants this client authority over `id`:
  // `id` itself if held globally, else the hierarchical ancestor covering it.
  // Metadata ops cite this as their authority (the TFS verifies it).
  LockId GlobalAuthorityOf(LockId id) const;
  bool LocallyHeld(LockId id) const;
  bool lease_lost() const { return lease_lost_.load(); }
  uint64_t global_acquires() const { return global_acquires_.value(); }
  uint64_t local_grants() const { return local_grants_.value(); }
  uint64_t revokes_handled() const { return revokes_handled_.value(); }
  // Locks released while a local user still held them (drain timeout).
  uint64_t forced_releases() const { return forced_releases_.value(); }
  // Covered descendants escalated to explicit global locks during a drain
  // (paper §5.3.4 de-escalation).
  uint64_t deescalations() const { return deescalations_.value(); }

  // Processes queued revocations inline (tests that have no worker races).
  void DrainRevocationsForTesting();

  // Simulates a hung client: lease renewals stop, so the service will
  // eventually treat this client as failed.
  void StopRenewalForTesting() { renewal_stopped_.store(true); }

 private:
  struct Entry {
    LockMode global = LockMode::kFree;
    // Non-zero: this lock is granted locally under a hierarchical ancestor.
    LockId covered_by = 0;
    LockMode covered_mode = LockMode::kFree;
    int readers = 0;
    bool writer = false;
    int waiting = 0;
    bool draining = false;  // revocation or forced release in progress
    uint64_t last_used_ns = 0;
    std::vector<LockId> local_children;
    std::condition_variable cv;
  };

  static bool WantsWrite(LockMode m) {
    return m == LockMode::kExclusive || m == LockMode::kExclusiveHier;
  }

  // mu_ held. True if the caller can be granted `mode` locally right now.
  static bool LocalGrantable(const Entry& e, LockMode mode) {
    if (e.draining) {
      return false;
    }
    if (WantsWrite(mode)) {
      return e.readers == 0 && !e.writer;
    }
    return !e.writer;
  }

  // mu_ held. The strongest authority this entry currently has (its global
  // mode, or the mode it was granted under a covering ancestor).
  LockMode AuthorityLocked(const Entry& e) const {
    return e.global != LockMode::kFree ? e.global : e.covered_mode;
  }

  // Finds the nearest held ancestor whose hierarchical mode covers `mode`.
  // mu_ held. Returns 0 if none.
  LockId FindCoveringAncestorLocked(std::span<const LockId> ancestors,
                                    LockMode mode);

  // mu_ held. Records `child` as hierarchy-dependent on `parent`.
  void RegisterChildLocked(LockId parent, LockId child);

  // Drains local users of `id` and releases/downgrades its global lock,
  // escalating in-use locally-covered children to explicit global locks
  // first. Takes and releases mu_ internally.
  Status DrainAndReleaseGlobal(LockId id, bool downgrade_to_intent);

  void WorkerLoop();
  void HandleRevoke(LockId id, LockMode wanted);

  LockServiceClient* service_;
  Options options_;
  ReleaseHook release_hook_;

  mutable std::mutex mu_;
  std::unordered_map<LockId, Entry> entries_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  // Pending revocations with their enqueue timestamp, so dequeue can record
  // queue dwell (clerk.revoke.queue_us): time a revocation sat behind the
  // worker before the drain even started.
  struct QueuedRevoke {
    LockId id = 0;
    LockMode wanted = LockMode::kFree;
    uint64_t enqueue_ns = 0;
  };
  std::deque<QueuedRevoke> revoke_queue_;
  bool stopping_ = false;
  std::thread worker_;

  std::atomic<bool> lease_lost_{false};
  std::atomic<bool> renewal_stopped_{false};
  // Direct-path state (seq_cst Dekker pair: an op pins then loads the epoch;
  // a drain bumps the epoch then loads the pin count — at least one side
  // always observes the other).
  std::atomic<uint64_t> direct_epoch_{1};
  std::atomic<uint64_t> direct_pins_{0};
  // Clerk statistics live in the obs registry for the clerk's lifetime: a
  // local grant is a lock-cache hit, a global acquire a miss.
  obs::Counter global_acquires_{"clerk.acquire.global"};
  obs::Counter local_grants_{"clerk.grant.local"};
  obs::Counter revokes_handled_{"clerk.revoke.handled"};
  obs::Counter forced_releases_{"clerk.release.forced"};
  obs::Counter deescalations_{"clerk.deescalate.count"};
  obs::Counter direct_grants_{"clerk.direct.grant"};
  obs::Counter direct_fallbacks_{"clerk.direct.fallback"};
  obs::ScopedRegistration obs_registration_;
};

}  // namespace aerie

#endif  // AERIE_SRC_LOCK_CLERK_H_
