#ifndef TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
#define TREEBENCH_CACHE_LRU_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

namespace treebench {

/// LRU residency tracker for one cache level. It tracks *which* pages are
/// resident and their dirty bit; page bytes live in the DiskManager (the
/// simulation charges time, it does not copy data). The map stays an
/// unordered_map because FlushDirty visits pages in its hash order, and that
/// order decides the server-cache inserts and evictions of a flush, so any
/// other map would change simulated results.
class LruPageCache {
 public:
  /// Result of an insertion: the page that had to be evicted, if any.
  struct Evicted {
    bool valid = false;
    uint64_t key = 0;
    bool dirty = false;
  };

  explicit LruPageCache(uint32_t capacity_pages)
      : capacity_(capacity_pages) {}

  LruPageCache(const LruPageCache&) = delete;
  LruPageCache& operator=(const LruPageCache&) = delete;

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return static_cast<uint32_t>(map_.size()); }

  bool Contains(uint64_t key) const { return map_.count(key) != 0; }

  /// If resident, promotes to MRU and returns true.
  bool Touch(uint64_t key) {
    // Consecutive accesses mostly hit the page already at the front.
    if (!lru_.empty() && lru_.front() == key) return true;
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return true;
  }

  /// Inserts `key` as MRU (must not be resident). Returns the evicted entry
  /// if the cache was full. A capacity-0 cache evicts the inserted key
  /// immediately.
  Evicted Insert(uint64_t key, bool dirty = false);

  /// Marks a resident page dirty. No-op if not resident.
  void MarkDirty(uint64_t key) {
    auto it = map_.find(key);
    if (it != map_.end()) it->second.dirty = true;
  }

  bool IsDirty(uint64_t key) const {
    auto it = map_.find(key);
    return it != map_.end() && it->second.dirty;
  }

  /// Clears the dirty bit of a resident page; returns whether it was dirty.
  bool ClearDirty(uint64_t key) {
    auto it = map_.find(key);
    if (it == map_.end() || !it->second.dirty) return false;
    it->second.dirty = false;
    return true;
  }

  /// Removes `key` if resident; returns whether it was dirty.
  bool Erase(uint64_t key);

  /// Calls `fn(key)` for every dirty resident page and clears dirty bits.
  template <typename Fn>
  void FlushDirty(Fn&& fn) {
    for (auto& [key, entry] : map_) {
      if (entry.dirty) {
        fn(key);
        entry.dirty = false;
      }
    }
  }

  /// Drops everything (server shutdown between cold runs).
  void Clear() {
    map_.clear();
    lru_.clear();
  }

 private:
  struct Entry {
    std::list<uint64_t>::iterator pos;
    bool dirty = false;
  };

  uint32_t capacity_;
  std::list<uint64_t> lru_;  // front = MRU
  std::unordered_map<uint64_t, Entry> map_;
};

}  // namespace treebench

#endif  // TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
