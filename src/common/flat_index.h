#ifndef TREEBENCH_COMMON_FLAT_INDEX_H_
#define TREEBENCH_COMMON_FLAT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace treebench {

/// An open-addressing index from 64-bit keys to 32-bit ids: the key lookup
/// behind HandleMap (handles by packed rid) and LruPageCache (cache slots by
/// page key). Linear probing over a power-of-two table kept at most half
/// full, with backward-shift deletion (no tombstones). Each 8-byte entry
/// holds the key's 32-bit hash, which fixes its home slot at every
/// capacity, and the id. The key itself stays with the owner: Find and
/// Erase confirm a hash match through `key_of(id)`, a functor the caller
/// passes and the compiler inlines.
///
/// Clear keeps the capacity. The capacity decides no simulated number, only
/// host time and memory, and both owners refill after a clear (the next
/// measured run, a cold restart) without regrowing.
class FlatIndex {
 public:
  /// Marks an empty entry; never a valid id.
  static constexpr uint32_t kNoId = ~uint32_t{0};

  FlatIndex() { Reset(kMinCapacity); }

  /// The id filed under `key`, or kNoId.
  template <typename KeyOf>
  uint32_t Find(uint64_t key, const KeyOf& key_of) const {
    const uint32_t hash = Hash(key);
    for (size_t i = hash >> shift_;; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.id == kNoId || (e.hash == hash && key_of(e.id) == key)) {
        return e.id;
      }
    }
  }

  /// Files `id` under `key`, which must be absent.
  void Insert(uint64_t key, uint32_t id) {
    if (2 * (size_ + 1) > entries_.size()) Grow();
    const uint32_t hash = Hash(key);
    size_t i = hash >> shift_;
    while (entries_[i].id != kNoId) i = (i + 1) & mask_;
    entries_[i] = Entry{hash, id};
    ++size_;
  }

  /// Removes `key`; returns its id, or kNoId if it was absent.
  template <typename KeyOf>
  uint32_t Erase(uint64_t key, const KeyOf& key_of) {
    const uint32_t hash = Hash(key);
    size_t hole = hash >> shift_;
    for (;; hole = (hole + 1) & mask_) {
      const Entry& e = entries_[hole];
      if (e.id == kNoId) return kNoId;
      if (e.hash == hash && key_of(e.id) == key) break;
    }
    const uint32_t id = entries_[hole].id;
    // Backward shift: an entry later in the run moves into the hole when the
    // hole lies on its probe path (between its home slot and where it sits),
    // so every remaining key stays reachable without tombstones.
    for (size_t j = (hole + 1) & mask_; entries_[j].id != kNoId;
         j = (j + 1) & mask_) {
      const size_t home = entries_[j].hash >> shift_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        entries_[hole] = entries_[j];
        hole = j;
      }
    }
    entries_[hole] = Entry{};
    --size_;
    return id;
  }

  /// Removes every entry; the capacity stays.
  void Clear() {
    std::fill(entries_.begin(), entries_.end(), Entry{});
    size_ = 0;
  }

  size_t size() const { return size_; }

  /// Geometry, public so tests can choose keys that collide or wrap around
  /// the end of the table.
  size_t capacity() const { return entries_.size(); }
  size_t HomeSlot(uint64_t key) const { return Hash(key) >> shift_; }

  /// Fibonacci hashing: the top bits of the product mix every key bit.
  static constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  static uint32_t Hash(uint64_t key) {
    return static_cast<uint32_t>((key * kMul) >> 32);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Entry {
    uint32_t hash = 0;
    uint32_t id = kNoId;
  };

  void Reset(size_t capacity) {
    // A 32-bit hash addresses at most 2^32 slots.
    TB_CHECK(capacity <= (size_t{1} << 32));
    entries_.assign(capacity, Entry{});
    mask_ = capacity - 1;
    shift_ = 32 - std::countr_zero(capacity);
  }
  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    Reset(old.size() * 2);
    for (const Entry& e : old) {
      if (e.id == kNoId) continue;
      size_t i = e.hash >> shift_;
      while (entries_[i].id != kNoId) i = (i + 1) & mask_;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  size_t mask_ = 0;
  int shift_ = 32;
  size_t size_ = 0;
};

}  // namespace treebench

#endif  // TREEBENCH_COMMON_FLAT_INDEX_H_
