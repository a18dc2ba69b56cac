#ifndef TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
#define TREEBENCH_CACHE_LRU_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace treebench {

/// LRU residency tracker for one cache level. It tracks *which* pages are
/// resident and their dirty bit; page bytes live in the DiskManager (the
/// simulation charges time, it does not copy data).
///
/// Resident pages live in a flat slot array that grows up to the capacity,
/// threaded MRU-to-LRU by intrusive 32-bit prev/next links; a freed slot
/// is reused by the next insertion. The key index is open addressing with
/// linear probing, built like HandleMap's: Fibonacci hash, power-of-two
/// capacity, load factor at most 1/2, backward-shift deletion. Every
/// walk follows the LRU links, never the index, so the order in which a
/// flush visits pages — and with it every simulated number — depends on
/// the access sequence alone: FlushDirty walks least-recently-used first.
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
  uint32_t size() const { return size_; }

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

  /// Index geometry, public so tests can choose keys that collide or wrap
  /// around the end of the index.
  size_t index_capacity() const { return index_.size(); }
  size_t HomeSlot(uint64_t key) const { return Hash(key) >> shift_; }

 private:
  static constexpr size_t kMinIndex = 16;
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Slot {
    uint64_t key;
    uint32_t prev;  // toward MRU; kNone at the head
    uint32_t next;  // toward LRU; kNone at the tail (or the next free slot)
    bool dirty;
  };
  struct Entry {
    uint32_t hash = 0;
    uint32_t slot = kNone;  // kNone marks an empty index entry
  };

  // Fibonacci hashing: the top bits of the product mix every key bit.
  static uint32_t Hash(uint64_t key) {
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// The slot holding `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    const uint32_t hash = Hash(key);
    for (size_t i = hash >> shift_;; i = (i + 1) & mask_) {
      const Entry& e = index_[i];
      if (e.slot == kNone) return kNone;
      if (e.hash == hash && slots_[e.slot].key == key) return e.slot;
    }
  }

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

  void ResetIndex(size_t capacity);
  void IndexInsert(uint64_t key, uint32_t s);
  /// Removes `key`'s index entry; the key must be resident. Returns its
  /// slot.
  uint32_t IndexErase(uint64_t key);

  uint32_t capacity_;
  uint32_t size_ = 0;
  uint32_t head_ = kNone;  // MRU
  uint32_t tail_ = kNone;  // LRU
  uint32_t free_ = kNone;  // erased slots, linked through `next`
  std::vector<Slot> slots_;
  std::vector<Entry> index_;
  size_t mask_ = 0;
  int shift_ = 32;
};

}  // namespace treebench

#endif  // TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
