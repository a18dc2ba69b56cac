#include "src/cache/lru_page_cache.h"

#include "src/common/logging.h"

namespace treebench {

LruPageCache::LruPageCache(uint32_t capacity_pages)
    : capacity_(capacity_pages) {}

LruPageCache::Evicted LruPageCache::Insert(uint64_t key, bool dirty) {
  TB_DCHECK(!Contains(key));
  Evicted evicted;
  if (capacity_ == 0) {
    evicted.valid = true;
    evicted.key = key;
    evicted.dirty = dirty;
    return evicted;
  }
  uint32_t s;
  if (index_.size() >= capacity_) {
    // The LRU page's slot takes the new key.
    s = tail_;
    evicted.valid = true;
    evicted.key = slots_[s].key;
    evicted.dirty = slots_[s].dirty;
    index_.Erase(evicted.key, SlotKey{this});
    Unlink(s);
  } else if (free_ != kNone) {
    s = free_;
    free_ = slots_[s].next;
  } else {
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].key = key;
  slots_[s].dirty = dirty;
  PushFront(s);
  index_.Insert(key, s);
  return evicted;
}

bool LruPageCache::Erase(uint64_t key) {
  const uint32_t s = index_.Erase(key, SlotKey{this});
  if (s == kNone) return false;
  Unlink(s);
  slots_[s].next = free_;
  free_ = s;
  return slots_[s].dirty;
}

void LruPageCache::Clear() {
  slots_.clear();
  index_.Clear();
  head_ = tail_ = free_ = kNone;
}

}  // namespace treebench
