#ifndef TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
#define TREEBENCH_CACHE_LRU_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/flat_index.h"

namespace treebench {

/// LRU residency tracker for one cache level. It tracks *which* pages are
/// resident and their dirty bit; page bytes live in the DiskManager (the
/// simulation charges time, it does not copy data).
///
/// Resident pages live in a flat slot array that grows up to the capacity,
/// threaded MRU-to-LRU by intrusive 32-bit prev/next links; a freed slot
/// is reused by the next insertion. The key index is the shared FlatIndex,
/// from page key to slot. Every walk follows the LRU links, never the
/// index, so the order in which a flush visits pages — and with it every
/// simulated number — depends on the access sequence alone: FlushDirty
/// walks least-recently-used first.
class LruPageCache {
 public:
  /// Result of an insertion: the page that had to be evicted, if any.
  struct Evicted {
    bool valid = false;
    uint64_t key = 0;
    bool dirty = false;
  };

  explicit LruPageCache(uint32_t capacity_pages);

  LruPageCache(const LruPageCache&) = delete;
  LruPageCache& operator=(const LruPageCache&) = delete;

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return static_cast<uint32_t>(index_.size()); }

  bool Contains(uint64_t key) const { return Find(key) != kNone; }

  /// If resident, promotes to MRU and returns true.
  bool Touch(uint64_t key) {
    // Consecutive accesses mostly hit the page already at the front.
    if (head_ != kNone && slots_[head_].key == key) return true;
    const uint32_t s = Find(key);
    if (s == kNone) return false;
    Unlink(s);
    PushFront(s);
    return true;
  }

  /// Inserts `key` as MRU (must not be resident). Returns the evicted entry
  /// if the cache was full. A capacity-0 cache evicts the inserted key
  /// immediately.
  Evicted Insert(uint64_t key, bool dirty = false);

  /// Marks a resident page dirty. No-op if not resident.
  void MarkDirty(uint64_t key) {
    const uint32_t s = Find(key);
    if (s != kNone) slots_[s].dirty = true;
  }

  /// Clears the dirty bit of a resident page; returns whether it was dirty.
  bool ClearDirty(uint64_t key) {
    const uint32_t s = Find(key);
    if (s == kNone || !slots_[s].dirty) return false;
    slots_[s].dirty = false;
    return true;
  }

  /// Removes `key` if resident; returns whether it was dirty.
  bool Erase(uint64_t key);

  /// Calls `fn(key)` for every dirty resident page, least recently used
  /// first, and clears dirty bits. `fn` must not change this cache.
  template <typename Fn>
  void FlushDirty(Fn&& fn) {
    for (uint32_t s = tail_; s != kNone; s = slots_[s].prev) {
      if (slots_[s].dirty) {
        fn(slots_[s].key);
        slots_[s].dirty = false;
      }
    }
  }

  /// Drops everything (server shutdown between cold runs).
  void Clear();

 private:
  static constexpr uint32_t kNone = FlatIndex::kNoId;

  struct Slot {
    uint64_t key;
    uint32_t prev;  // toward MRU; kNone at the head
    uint32_t next;  // toward LRU; kNone at the tail (or the next free slot)
    bool dirty;
  };

  /// The slot holding `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    return index_.Find(key, SlotKey{this});
  }

  // Slot `s`'s key, for the index to confirm a hash match.
  struct SlotKey {
    const LruPageCache* cache;
    uint64_t operator()(uint32_t s) const { return cache->slots_[s].key; }
  };

  void Unlink(uint32_t s) {
    const Slot& slot = slots_[s];
    (slot.prev == kNone ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNone ? tail_ : slots_[slot.next].prev) = slot.prev;
  }
  void PushFront(uint32_t s) {
    slots_[s].prev = kNone;
    slots_[s].next = head_;
    (head_ == kNone ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }

  uint32_t capacity_;
  uint32_t head_ = kNone;  // MRU
  uint32_t tail_ = kNone;  // LRU
  uint32_t free_ = kNone;  // erased slots, linked through `next`
  std::vector<Slot> slots_;
  FlatIndex index_;  // key -> slot
};

}  // namespace treebench

#endif  // TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
