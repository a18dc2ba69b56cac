#ifndef TREEBENCH_OBJECTS_HANDLE_TABLE_H_
#define TREEBENCH_OBJECTS_HANDLE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/storage/rid.h"

namespace treebench {

/// The in-memory representative of an object — O2's *Handle* (paper
/// Section 4). The real O2 handle is ~60 bytes of bookkeeping (flags,
/// index-list pointer, type pointer, version pointer, reference count, ...);
/// here the bookkeeping burden is *modeled*: every materialization /
/// re-reference / unreference charges the configured handle costs, and the
/// handle's modeled footprint counts against the simulated machine's RAM.
struct ObjectHandle {
  Rid rid;  // canonical Rid (forwards resolved)
  uint16_t class_id = 0;
  uint32_t refcount = 0;
};

/// Resident handles keyed by canonical packed rid; a handle's key is its
/// `rid`, which Insert sets and callers must not change. The index is open
/// addressing with linear probing: power-of-two capacity, load factor at
/// most 1/2, backward-shift deletion (no tombstones). Each 8-byte index
/// entry holds the key's 32-bit hash, which fixes its home slot at every
/// capacity, and the handle's id. The handles themselves live in fixed-size
/// chunks that never move, so an ObjectHandle* stays valid until its entry
/// is erased or the map is cleared, however often the index grows
/// meanwhile: the hash-join operators hold many handles while they
/// materialize more. Freed handles are threaded onto an intrusive free list
/// through their own storage.
class HandleMap {
 public:
  HandleMap() { Reset(kMinCapacity); }

  /// The handle resident under `key`, or nullptr.
  ObjectHandle* Find(uint64_t key) const {
    const uint32_t hash = Hash(key);
    for (size_t i = hash >> shift_;; i = (i + 1) & mask_) {
      const Entry& e = index_[i];
      if (e.id == kNoHandle) return nullptr;
      if (e.hash == hash) {
        ObjectHandle& h = Handle(e.id);
        if (h.rid.Packed() == key) return &h;
      }
    }
  }

  /// Adds a handle for `key`, which must not be resident: its `rid` is
  /// Rid::FromPacked(key) and every other field is value-initialized.
  ObjectHandle* Insert(uint64_t key);

  /// Frees the handle under `key`; returns false if none was resident.
  bool Erase(uint64_t key);

  size_t size() const { return size_; }

  /// Frees every handle and shrinks the index back to its minimum.
  void Clear();

  /// Index geometry, public so tests can choose keys that collide or wrap
  /// around the end of the index.
  size_t capacity() const { return index_.size(); }
  size_t HomeSlot(uint64_t key) const { return Hash(key) >> shift_; }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkHandles = uint32_t{1} << kChunkBits;
  static constexpr uint32_t kNoHandle = ~uint32_t{0};

  struct Entry {
    uint32_t hash = 0;
    uint32_t id = kNoHandle;  // kNoHandle marks an empty slot
  };
  union Slot {
    Slot() : next_free(kNoHandle) {}
    ObjectHandle handle;
    uint32_t next_free;
  };

  // Fibonacci hashing: the top bits of the product mix every key bit.
  static uint32_t Hash(uint64_t key) {
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }
  Slot& SlotAt(uint32_t id) const {
    return chunks_[id >> kChunkBits][id & (kChunkHandles - 1)];
  }
  ObjectHandle& Handle(uint32_t id) const { return SlotAt(id).handle; }

  void Reset(size_t capacity);
  void Grow();
  uint32_t Allocate();

  std::vector<Entry> index_;
  size_t mask_ = 0;
  int shift_ = 32;
  size_t size_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_ = kNoHandle;
};

/// One client process's handle space: resident handles keyed by canonical
/// packed rid, forwarding aliases, and the delayed-destruction zombie list
/// (FIFO; it may hold stale and duplicate keys, which collection skips).
/// The ObjectStore owns a default table; the multi-client workload scheduler
/// (src/workload) binds a per-ClientSession table so sessions do not see
/// each other's resident handles.
struct HandleTable {
  HandleMap handles;
  std::unordered_map<uint64_t, uint64_t> alias;
  std::deque<uint64_t> zombies;
};

}  // namespace treebench

#endif  // TREEBENCH_OBJECTS_HANDLE_TABLE_H_
