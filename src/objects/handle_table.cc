#include "src/objects/handle_table.h"

#include <bit>
#include <new>
#include <utility>

#include "src/common/logging.h"

namespace treebench {

void HandleMap::Reset(size_t capacity) {
  // A 32-bit hash addresses at most 2^32 slots.
  TB_CHECK(capacity <= (size_t{1} << 32));
  index_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  shift_ = 32 - std::countr_zero(capacity);
}

void HandleMap::Grow() {
  std::vector<Entry> old = std::move(index_);
  Reset(old.size() * 2);
  for (const Entry& e : old) {
    if (e.id == kNoHandle) continue;
    size_t i = e.hash >> shift_;
    while (index_[i].id != kNoHandle) i = (i + 1) & mask_;
    index_[i] = e;
  }
}

uint32_t HandleMap::Allocate() {
  if (free_ == kNoHandle) {
    // Ids stay below kNoHandle.
    TB_CHECK(chunks_.size() < (size_t{1} << (32 - kChunkBits)) - 1);
    const uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkBits;
    auto chunk = std::make_unique<Slot[]>(kChunkHandles);
    for (uint32_t i = 0; i + 1 < kChunkHandles; ++i) {
      chunk[i].next_free = base + i + 1;
    }
    chunks_.push_back(std::move(chunk));
    free_ = base;
  }
  const uint32_t id = free_;
  free_ = SlotAt(id).next_free;
  return id;
}

ObjectHandle* HandleMap::Insert(uint64_t key) {
  if (2 * (size_ + 1) > index_.size()) Grow();
  const uint32_t hash = Hash(key);
  size_t i = hash >> shift_;
  for (; index_[i].id != kNoHandle; i = (i + 1) & mask_) {
    TB_DCHECK(index_[i].hash != hash || Handle(index_[i].id).rid.Packed() !=
                                            key);
  }
  const uint32_t id = Allocate();
  ObjectHandle* handle = new (&SlotAt(id).handle) ObjectHandle();
  handle->rid = Rid::FromPacked(key);
  index_[i] = Entry{hash, id};
  ++size_;
  return handle;
}

bool HandleMap::Erase(uint64_t key) {
  const uint32_t hash = Hash(key);
  size_t hole = hash >> shift_;
  for (;; hole = (hole + 1) & mask_) {
    const Entry& e = index_[hole];
    if (e.id == kNoHandle) return false;
    if (e.hash == hash && Handle(e.id).rid.Packed() == key) break;
  }
  SlotAt(index_[hole].id).next_free = free_;
  free_ = index_[hole].id;
  // Backward shift: an entry later in the run moves into the hole when the
  // hole lies on its probe path (between its home slot and where it sits),
  // so every remaining key stays reachable without tombstones.
  for (size_t j = (hole + 1) & mask_; index_[j].id != kNoHandle;
       j = (j + 1) & mask_) {
    const size_t home = index_[j].hash >> shift_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Entry{};
  --size_;
  return true;
}

void HandleMap::Clear() {
  Reset(kMinCapacity);
  chunks_.clear();
  free_ = kNoHandle;
  size_ = 0;
}

}  // namespace treebench
