#include "src/objects/handle_table.h"

#include <new>
#include <utility>

#include "src/common/logging.h"

namespace treebench {

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
  TB_DCHECK(Find(key) == nullptr);
  const uint32_t id = Allocate();
  ObjectHandle* handle = new (&SlotAt(id).handle) ObjectHandle();
  handle->rid = Rid::FromPacked(key);
  index_.Insert(key, id);
  return handle;
}

bool HandleMap::Erase(uint64_t key) {
  const uint32_t id = index_.Erase(key, HandleKey{this});
  if (id == kNoHandle) return false;
  SlotAt(id).next_free = free_;
  free_ = id;
  return true;
}

void HandleMap::Clear() {
  index_.Clear();
  chunks_.clear();
  free_ = kNoHandle;
}

}  // namespace treebench
