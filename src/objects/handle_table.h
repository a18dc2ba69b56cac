#ifndef TREEBENCH_OBJECTS_HANDLE_TABLE_H_
#define TREEBENCH_OBJECTS_HANDLE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/flat_index.h"
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
/// `rid`, which Insert sets and callers must not change. The key index is
/// the shared FlatIndex. The handles themselves live in fixed-size chunks
/// that never move, so an ObjectHandle* stays valid until its entry is
/// erased or the map is cleared, however often the index grows meanwhile:
/// the hash-join operators hold many handles while they materialize more.
/// Freed handles are threaded onto an intrusive free list through their own
/// storage.
class HandleMap {
 public:
  /// The handle resident under `key`, or nullptr.
  ObjectHandle* Find(uint64_t key) const {
    const uint32_t id = index_.Find(key, HandleKey{this});
    return id == kNoHandle ? nullptr : &Handle(id);
  }

  /// Adds a handle for `key`, which must not be resident: its `rid` is
  /// Rid::FromPacked(key) and every other field is value-initialized.
  ObjectHandle* Insert(uint64_t key);

  /// Frees the handle under `key`; returns false if none was resident.
  bool Erase(uint64_t key);

  size_t size() const { return index_.size(); }
  size_t capacity() const { return index_.capacity(); }

  /// Frees every handle; the index keeps its capacity (FlatIndex::Clear).
  void Clear();

 private:
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkHandles = uint32_t{1} << kChunkBits;
  static constexpr uint32_t kNoHandle = FlatIndex::kNoId;

  union Slot {
    Slot() : next_free(kNoHandle) {}
    ObjectHandle handle;
    uint32_t next_free;
  };

  Slot& SlotAt(uint32_t id) const {
    return chunks_[id >> kChunkBits][id & (kChunkHandles - 1)];
  }
  ObjectHandle& Handle(uint32_t id) const { return SlotAt(id).handle; }

  // Handle `id`'s key, for the index to confirm a hash match.
  struct HandleKey {
    const HandleMap* map;
    uint64_t operator()(uint32_t id) const {
      return map->Handle(id).rid.Packed();
    }
  };

  uint32_t Allocate();

  FlatIndex index_;
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
