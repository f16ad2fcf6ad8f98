#include "src/lock/clerk.h"

#include <algorithm>
#include <chrono>

#include "src/common/check.h"
#include "src/common/clock.h"
#include "src/obs/trace.h"

namespace aerie {

namespace {

// Time a revocation sat in the clerk's queue before the worker picked it up
// (profiler plane: queue dwell is invisible to spans because no span is
// live on the enqueueing service thread).
void RecordRevokeQueueDwell(uint64_t enqueue_ns) {
  if (enqueue_ns == 0 || !obs::CountersOn()) {
    return;
  }
  static obs::LatencyHistogram& dwell =
      obs::Registry::Instance().GetHistogram("clerk.revoke.queue_us");
  dwell.Record((NowNanos() - enqueue_ns) / 1000);
}

}  // namespace

LockClerk::LockClerk(LockServiceClient* service)
    : LockClerk(service, Options{}) {}

LockClerk::LockClerk(LockServiceClient* service, Options options)
    : service_(service), options_(options) {
  obs_registration_.AddAll(global_acquires_, local_grants_, revokes_handled_,
                           forced_releases_, deescalations_, direct_grants_,
                           direct_fallbacks_);
  worker_ = std::thread([this] { WorkerLoop(); });
}

LockClerk::~LockClerk() {
  {
    std::lock_guard lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
}

void LockClerk::set_release_hook(ReleaseHook hook) {
  std::lock_guard lock(mu_);
  release_hook_ = std::move(hook);
}

void LockClerk::RegisterChildLocked(LockId parent, LockId child) {
  Entry& pe = entries_[parent];
  if (std::find(pe.local_children.begin(), pe.local_children.end(), child) ==
      pe.local_children.end()) {
    pe.local_children.push_back(child);
  }
}

LockId LockClerk::FindCoveringAncestorLocked(std::span<const LockId> ancestors,
                                             LockMode mode) {
  // Prefer the nearest (deepest) covering ancestor.
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    auto eit = entries_.find(*it);
    if (eit == entries_.end() || eit->second.draining) {
      continue;
    }
    if (HierCovers(AuthorityLocked(eit->second), mode)) {
      return *it;
    }
  }
  return 0;
}

Status LockClerk::Acquire(LockId id, LockMode mode,
                          std::span<const LockId> ancestors) {
  if (mode != LockMode::kShared && mode != LockMode::kExclusive &&
      mode != LockMode::kSharedHier && mode != LockMode::kExclusiveHier) {
    return Status(ErrorCode::kInvalidArgument,
                  "clerk acquires S/X/SH/XH modes only");
  }
  AERIE_SPAN("clerk", "acquire");
  const uint64_t deadline_ns =
      NowNanos() + options_.local_wait_timeout_ms * 1'000'000;

  std::unique_lock lk(mu_);
  Entry& e = entries_[id];
  e.waiting++;
  Status result = OkStatus();

  for (;;) {
    if (lease_lost_.load()) {
      result = Status(ErrorCode::kLockRevoked, "client lease expired");
      break;
    }
    if (!e.draining) {
      bool have_authority = LockModeCovers(AuthorityLocked(e), mode);

      if (!have_authority && e.global == LockMode::kFree) {
        // Try a hierarchical local grant under a held ancestor.
        const LockId cover = FindCoveringAncestorLocked(ancestors, mode);
        if (cover != 0) {
          if (e.covered_by == 0) {
            auto cit = entries_.find(cover);
            AERIE_CHECK(cit != entries_.end());
            cit->second.local_children.push_back(id);
          }
          e.covered_by = cover;
          e.covered_mode = LockModeStrengthen(e.covered_mode, mode);
          have_authority = true;
        }
      }

      if (have_authority) {
        if (LocalGrantable(e, mode)) {
          if (WantsWrite(mode)) {
            e.writer = true;
          } else {
            e.readers++;
          }
          e.last_used_ns = NowNanos();
          local_grants_.Add(1);
          break;
        }
        // Local contention: fall through to wait.
      } else {
        // Need a global acquire/upgrade. Take intent locks on the ancestors
        // first (IX for writes, IS for reads), then the lock itself. RPCs
        // run with mu_ released; e is pinned by e.waiting.
        const LockMode held = e.global;
        lk.unlock();
        const LockMode intent = WantsWrite(mode) ? LockMode::kIntentExclusive
                                                 : LockMode::kIntentShared;
        Status st = OkStatus();
        for (LockId a : ancestors) {
          bool need = false;
          {
            std::lock_guard g(mu_);
            auto ait = entries_.find(a);
            need = ait == entries_.end() ||
                   !LockModeCovers(AuthorityLocked(ait->second), intent);
          }
          if (need) {
            st = service_->Acquire(a, intent, /*wait=*/true);
            if (!st.ok()) {
              break;
            }
            std::lock_guard g(mu_);
            Entry& ae = entries_[a];
            ae.global = LockModeStrengthen(ae.global == LockMode::kFree
                                               ? intent
                                               : ae.global,
                                           intent);
            global_acquires_.Add(1);
          }
        }
        if (st.ok()) {
          st = service_->Acquire(id, mode, /*wait=*/true);
        }
        lk.lock();
        if (!st.ok()) {
          result = st;
          break;
        }
        global_acquires_.Add(1);
        e.global = LockModeStrengthen(
            held == LockMode::kFree ? mode : held, mode);
        // Record the hierarchy dependency chain: a lock acquired under an
        // ancestor intent lock must be drained before that ancestor can be
        // given up (otherwise another client's hierarchical lock on the
        // ancestor would silently cover our descendant).
        LockId prev = 0;
        for (LockId a : ancestors) {
          if (prev != 0) {
            RegisterChildLocked(prev, a);
          }
          prev = a;
        }
        if (prev != 0) {
          RegisterChildLocked(prev, id);
        }
        continue;  // retry the local grant with global authority
      }
    }

    if (NowNanos() >= deadline_ns) {
      result = Status(ErrorCode::kLockConflict, "local lock wait timed out");
      break;
    }
    {
      obs::ScopedWait blocked(obs::WaitKind::kLock);
      e.cv.wait_for(lk, std::chrono::microseconds(200));
    }
  }

  e.waiting--;
  return result;
}

void LockClerk::Release(LockId id) {
  std::lock_guard lk(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return;
  }
  Entry& e = it->second;
  if (e.writer) {
    e.writer = false;
  } else if (e.readers > 0) {
    e.readers--;
  }
  e.last_used_ns = NowNanos();
  e.cv.notify_all();
}

Result<uint64_t> LockClerk::DirectGrant(LockId id, LockMode mode) {
  std::lock_guard lk(mu_);
  if (lease_lost_.load()) {
    return Status(ErrorCode::kLockRevoked, "client lease expired");
  }
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status(ErrorCode::kNotFound, "no cached authority");
  }
  const Entry& e = it->second;
  if (!LockModeCovers(AuthorityLocked(e), mode)) {
    return Status(ErrorCode::kPermissionDenied,
                  "cached authority does not cover mode");
  }
  // The whole covering chain must be quiet: a drain that began *before* this
  // call already bumped the epoch, so the epoch we would return must not
  // outlive the authority that drain is about to take away.
  const Entry* cur = &e;
  for (int depth = 0; depth < 64; ++depth) {
    if (cur->draining) {
      return Status(ErrorCode::kUnavailable, "drain in flight");
    }
    if (cur->global != LockMode::kFree || cur->covered_by == 0) {
      break;
    }
    auto pit = entries_.find(cur->covered_by);
    if (pit == entries_.end()) {
      return Status(ErrorCode::kUnavailable, "covering ancestor vanished");
    }
    cur = &pit->second;
  }
  direct_grants_.Add(1);
  return direct_epoch_.load();
}

Status LockClerk::DrainAndReleaseGlobal(LockId id, bool downgrade_to_intent) {
  AERIE_SPAN("clerk", "drain_release");
  obs::TraceInstant("clerk.release.global", id);
  std::unique_lock lk(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return OkStatus();
  }
  Entry& e = it->second;
  if (e.global == LockMode::kFree) {
    // Nothing global to give up; clear any local cover state.
    return OkStatus();
  }
  while (e.draining) {
    obs::ScopedWait blocked(obs::WaitKind::kOther);
    e.cv.wait_for(lk, std::chrono::microseconds(100));
    if (entries_.find(id) == entries_.end()) {
      return OkStatus();
    }
  }
  if (e.global == LockMode::kFree) {
    return OkStatus();  // drained by the concurrent drainer
  }
  e.draining = true;
  // Invalidate the direct data path before anything else: from here on no
  // new epoch-validated memcpy may start against authority this drain is
  // about to give up (DirectGrant also refuses while draining is set).
  direct_epoch_.fetch_add(1);

  // Wait for local users of this lock to finish (paper: "prevents additional
  // threads from acquiring the local mutex and releases the global lock when
  // the local mutex is released"). The wait is bounded: a thread that never
  // releases would otherwise wedge revocation forever, and the service's
  // lease expiry would take the lock away regardless — so after the timeout
  // we proceed as if the lease had lapsed.
  const uint64_t drain_deadline =
      NowNanos() + options_.local_wait_timeout_ms * 1'000'000;
  while ((e.readers > 0 || e.writer) && NowNanos() < drain_deadline) {
    obs::ScopedWait blocked(obs::WaitKind::kOther);
    e.cv.wait_for(lk, std::chrono::microseconds(100));
  }
  if (e.readers > 0 || e.writer) {
    forced_releases_.Add(1);
  }

  // De-escalation (paper §5.3.4): locally-covered descendants still in use
  // get explicit global locks *before* we give up the covering lock. The
  // covered relation is transitive — a directory granted XH under the root
  // covers its own children — so the walk must reach every depth: an op
  // logged under an in-use grandchild cites this lock as its authority, and
  // the server's fallback check accepts only the object's *own* lock, so
  // the grandchild itself needs an explicit global lock. Intermediates
  // above an escalated descendant are escalated too, keeping the chain of
  // lock-service state that shields the subtree from other clients'
  // hierarchical grants.
  std::vector<std::pair<LockId, LockMode>> escalate;
  std::vector<LockId> keep_children;
  // Returns true if `cid` (covered via `parent`) or anything below it was
  // escalated; idle subtrees lose their cover so later acquires go global.
  std::function<bool(LockId, LockId)> walk = [&](LockId cid,
                                                 LockId parent) -> bool {
    auto cit = entries_.find(cid);
    if (cit == entries_.end() || cit->second.covered_by != parent) {
      return false;
    }
    Entry& ce = cit->second;
    bool need = ce.readers > 0 || ce.writer || ce.waiting > 0;
    for (LockId g : ce.local_children) {
      if (walk(g, cid)) {
        need = true;
      }
    }
    if (need) {
      escalate.emplace_back(cid, ce.covered_mode);
    } else {
      ce.covered_by = 0;
      ce.covered_mode = LockMode::kFree;
    }
    return need;
  };
  for (LockId c : e.local_children) {
    auto cit = entries_.find(c);
    if (cit == entries_.end() || cit->second.covered_by != id) {
      if (cit != entries_.end() && cit->second.global != LockMode::kFree) {
        keep_children.push_back(c);  // previously escalated child
      }
      continue;
    }
    if (walk(c, id)) {
      keep_children.push_back(c);
    }
  }
  const LockMode released_mode = e.global;
  const bool wants_write_cover = WantsWrite(released_mode);
  ReleaseHook hook = release_hook_;
  lk.unlock();

  // Direct-path quiescence: the epoch bump above stops new pins; wait for
  // in-flight userspace copies to retire before the lock can leave this
  // client. Pins are held only across a memcpy, so this is microseconds.
  while (direct_pins_.load() != 0) {
    std::this_thread::yield();
  }

  if (!escalate.empty()) {
    deescalations_.Add(escalate.size());
  }
  for (const auto& [child, child_mode] : escalate) {
    // Parent lock is still held, so these cannot conflict.
    Status st = service_->Acquire(child, child_mode, /*wait=*/true);
    if (st.ok()) {
      global_acquires_.Add(1);
    }
  }
  // Ship batched metadata before the lock becomes visible to others.
  if (hook) {
    hook(id, released_mode);
  }
  const bool downgrade = downgrade_to_intent || !escalate.empty() ||
                         [&] {
                           std::lock_guard g(mu_);
                           auto it2 = entries_.find(id);
                           return it2 != entries_.end() &&
                                  !keep_children.empty();
                         }();
  Status st;
  LockMode new_mode = LockMode::kFree;
  if (downgrade && !keep_children.empty()) {
    new_mode = wants_write_cover ? LockMode::kIntentExclusive
                                 : LockMode::kIntentShared;
    st = service_->Downgrade(id, new_mode);
  } else {
    st = service_->Release(id);
  }

  lk.lock();
  auto it3 = entries_.find(id);
  if (it3 != entries_.end()) {
    Entry& e2 = it3->second;
    for (const auto& [child, child_mode] : escalate) {
      auto cit = entries_.find(child);
      if (cit != entries_.end()) {
        cit->second.global =
            LockModeStrengthen(cit->second.global == LockMode::kFree
                                   ? child_mode
                                   : cit->second.global,
                               child_mode);
        cit->second.covered_by = 0;
        cit->second.covered_mode = LockMode::kFree;
      }
    }
    e2.local_children = std::move(keep_children);
    e2.global = new_mode;
    e2.draining = false;
    e2.cv.notify_all();
  }
  return st;
}

Status LockClerk::ReleaseGlobal(LockId id) {
  return DrainAndReleaseGlobal(id, /*downgrade_to_intent=*/false);
}

void LockClerk::ReleaseAllGlobals() {
  // Escalation during a drain can create new globals, so sweep to fixpoint.
  for (int round = 0; round < 8; ++round) {
    std::vector<LockId> ids;
    {
      std::lock_guard lk(mu_);
      for (const auto& [id, e] : entries_) {
        if (e.global != LockMode::kFree) {
          ids.push_back(id);
        }
      }
    }
    if (ids.empty()) {
      return;
    }
    for (LockId id : ids) {
      (void)DrainAndReleaseGlobal(id, /*downgrade_to_intent=*/false);
    }
  }
}

void LockClerk::ReleaseIdleGlobals(uint64_t idle_ns) {
  const uint64_t now = NowNanos();
  std::vector<LockId> ids;
  {
    std::lock_guard lk(mu_);
    for (const auto& [id, e] : entries_) {
      if (e.global != LockMode::kFree && e.readers == 0 && !e.writer &&
          e.waiting == 0 && e.local_children.empty() &&
          now - e.last_used_ns >= idle_ns) {
        ids.push_back(id);
      }
    }
  }
  for (LockId id : ids) {
    (void)DrainAndReleaseGlobal(id, /*downgrade_to_intent=*/false);
  }
}

void LockClerk::OnRevoke(LockId id, LockMode wanted) {
  // A revoke in flight forces direct ops onto the locked path immediately,
  // before the worker even dequeues it (the drain will bump again; the
  // counter only ever grows, so an early extra bump is harmless).
  direct_epoch_.fetch_add(1);
  {
    std::lock_guard lock(queue_mu_);
    for (const auto& q : revoke_queue_) {
      if (q.id == id) {
        return;  // already queued
      }
    }
    revoke_queue_.push_back(QueuedRevoke{id, wanted, NowNanos()});
  }
  queue_cv_.notify_all();
}

void LockClerk::OnLeaseExpired() {
  lease_lost_.store(true);
  direct_epoch_.fetch_add(1);
  {
    std::lock_guard lk(mu_);
    // The service already dropped our locks; all cached authority is void,
    // and unshipped metadata updates are implicitly discarded by the server.
    for (auto& [id, e] : entries_) {
      e.global = LockMode::kFree;
      e.covered_by = 0;
      e.covered_mode = LockMode::kFree;
      e.local_children.clear();
      e.cv.notify_all();
    }
  }
  // The service thread delivering the expiry is about to hand our locks to
  // another client: in-flight direct copies must retire first, exactly as in
  // a drain (this call is synchronous on the in-process transport, so the
  // conflicting grant cannot return before we quiesce).
  while (direct_pins_.load() != 0) {
    std::this_thread::yield();
  }
}

void LockClerk::HandleRevoke(LockId id, LockMode wanted) {
  (void)wanted;
  revokes_handled_.Add(1);
  obs::TraceInstant("clerk.revoke.handled", id);
  // If we hold only an intent-mode residue protecting escalated children,
  // those children must be drained first (hierarchy protocol: a child's
  // global lock requires the parent intent lock).
  std::vector<LockId> child_globals;
  {
    std::lock_guard lk(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.global == LockMode::kFree) {
      return;
    }
    if (it->second.global == LockMode::kIntentShared ||
        it->second.global == LockMode::kIntentExclusive) {
      for (LockId c : it->second.local_children) {
        auto cit = entries_.find(c);
        if (cit != entries_.end() && cit->second.global != LockMode::kFree) {
          child_globals.push_back(c);
        }
      }
    }
  }
  for (LockId c : child_globals) {
    (void)DrainAndReleaseGlobal(c, /*downgrade_to_intent=*/false);
  }
  (void)DrainAndReleaseGlobal(id, /*downgrade_to_intent=*/false);
}

void LockClerk::DrainRevocationsForTesting() {
  for (;;) {
    QueuedRevoke item;
    {
      std::lock_guard lock(queue_mu_);
      if (revoke_queue_.empty()) {
        return;
      }
      item = revoke_queue_.front();
      revoke_queue_.pop_front();
    }
    RecordRevokeQueueDwell(item.enqueue_ns);
    HandleRevoke(item.id, item.wanted);
  }
}

void LockClerk::WorkerLoop() {
  if (obs::SpansOn()) {
    obs::SetThreadTraceName("clerk.worker");
  }
  std::unique_lock lock(queue_mu_);
  uint64_t last_renew_ns = NowNanos();
  // queue_mu_ released around the RPC. Renewal must run even while the
  // revoke queue is busy: a long run of drains (each shipping a batch to the
  // TFS) previously starved renewal past the lease, and the service then
  // dropped every lock this clerk had cached (the ablation_name_cache
  // webproxy flake). Checked before each queued item, not only on idle.
  auto renew_if_due = [&] {
    if (lease_lost_.load() || renewal_stopped_.load()) {
      return;
    }
    const uint64_t now = NowNanos();
    if (now - last_renew_ns >= options_.renew_interval_ms * 1'000'000) {
      last_renew_ns = now;
      lock.unlock();
      (void)service_->Renew();
      lock.lock();
    }
  };
  while (!stopping_) {
    if (!revoke_queue_.empty()) {
      renew_if_due();
      const QueuedRevoke item = revoke_queue_.front();
      revoke_queue_.pop_front();
      lock.unlock();
      RecordRevokeQueueDwell(item.enqueue_ns);
      HandleRevoke(item.id, item.wanted);
      lock.lock();
      continue;
    }
    queue_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.renew_interval_ms));
    renew_if_due();
  }
}

LockId LockClerk::GlobalAuthorityOf(LockId id) const {
  std::lock_guard lk(mu_);
  LockId cur = id;
  for (int depth = 0; depth < 64; ++depth) {
    auto it = entries_.find(cur);
    if (it == entries_.end()) {
      return cur;
    }
    if (it->second.global != LockMode::kFree || it->second.covered_by == 0) {
      return cur;
    }
    cur = it->second.covered_by;
  }
  return cur;
}

LockMode LockClerk::GlobalMode(LockId id) const {
  std::lock_guard lk(mu_);
  auto it = entries_.find(id);
  return it == entries_.end() ? LockMode::kFree : it->second.global;
}

bool LockClerk::LocallyHeld(LockId id) const {
  std::lock_guard lk(mu_);
  auto it = entries_.find(id);
  return it != entries_.end() &&
         (it->second.readers > 0 || it->second.writer);
}

}  // namespace aerie
