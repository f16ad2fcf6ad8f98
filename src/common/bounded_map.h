// A hash map with a fixed entry bound that evicts one entry at a time.
//
// The client caches (PXFS name and snapshot caches, the FlatFS value cache)
// all use it. When an insert finds the map full, CLOCK (second chance) picks
// the victim. Every Find marks its entry referenced. The clock hand sweeps
// the slots, clears marks as it passes, and evicts the first unmarked entry.
// The new entry takes the victim's slot, just behind the hand, so it gets a
// full sweep to prove itself. A working set larger than the bound keeps its
// hot part. The two easy alternatives do not: clearing at the cap empties
// the cache, and evicting begin() of an unordered_map freezes it on its
// first contents (libstdc++ puts new nodes at the front).
//
// Thread safety: none of its own. Find only sets an atomic mark, so callers
// may run it concurrently under a shared lock. Every other member needs
// exclusive access.
#ifndef AERIE_SRC_COMMON_BOUNDED_MAP_H_
#define AERIE_SRC_COMMON_BOUNDED_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aerie {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class BoundedMap {
 public:
  explicit BoundedMap(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)) {}

  size_t size() const { return map_.size(); }

  // The value under `key`, marked referenced; null when absent.
  template <typename Q>
  V* Find(const Q& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : Mark(it->second);
  }
  template <typename Q>
  const V* Find(const Q& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : Mark(it->second);
  }

  // Inserts `key` -> V(args...) unless `key` is present, in which case the
  // existing entry stays as it is. Returns how many entries were evicted to
  // make room (0 or 1).
  template <typename... Args>
  size_t Emplace(K key, Args&&... args) {
    size_t pos = ring_.size();
    size_t evicted = 0;
    if (map_.size() >= capacity_) {
      if (map_.find(key) != map_.end()) {
        return 0;
      }
      pos = EvictOne();
      evicted = 1;
    }
    auto [it, inserted] =
        map_.try_emplace(std::move(key), pos, std::forward<Args>(args)...);
    if (!inserted) {
      return 0;
    }
    if (pos == ring_.size()) {
      ring_.push_back(&*it);
    } else {
      ring_[pos] = &*it;
      hand_ = pos + 1;
    }
    return evicted;
  }

  // Inserts or replaces. Returns how many entries were evicted (0 or 1).
  size_t Put(K key, V value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      return 0;
    }
    return Emplace(std::move(key), std::move(value));
  }

  template <typename Q>
  bool Erase(const Q& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    // The last slot fills the hole, so the ring stays dense.
    const size_t pos = it->second.pos;
    ring_[pos] = ring_.back();
    ring_[pos]->second.pos = pos;
    ring_.pop_back();
    map_.erase(it);
    return true;
  }

  void Clear() {
    map_.clear();
    ring_.clear();
    hand_ = 0;
  }

 private:
  struct Slot {
    template <typename... Args>
    explicit Slot(size_t p, Args&&... args)
        : value(std::forward<Args>(args)...), pos(p) {}
    V value;
    size_t pos;  // index in ring_
    mutable std::atomic<bool> referenced{false};
  };
  using Map = std::unordered_map<K, Slot, Hash, Eq>;

  static V* Mark(const Slot& slot) {
    if (!slot.referenced.load(std::memory_order_relaxed)) {
      slot.referenced.store(true, std::memory_order_relaxed);
    }
    return const_cast<V*>(&slot.value);
  }

  // Evicts the entry under the hand that is not marked (clearing marks on
  // the way) and returns its now-free slot. Ends within one sweep.
  size_t EvictOne() {
    for (;; ++hand_) {
      if (hand_ >= ring_.size()) {
        hand_ = 0;
      }
      typename Map::value_type* node = ring_[hand_];
      if (!node->second.referenced.exchange(false,
                                            std::memory_order_relaxed)) {
        map_.erase(map_.find(node->first));
        return hand_;
      }
    }
  }

  size_t capacity_;
  Map map_;
  // Map nodes in clock order. Node addresses survive rehashing.
  std::vector<typename Map::value_type*> ring_;
  size_t hand_ = 0;
};

}  // namespace aerie

#endif  // AERIE_SRC_COMMON_BOUNDED_MAP_H_
