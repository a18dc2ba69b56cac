#include "src/cache/lru_page_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/logging.h"

namespace treebench {

LruPageCache::LruPageCache(uint32_t capacity_pages)
    : capacity_(capacity_pages) {
  ResetIndex(kMinIndex);
}

void LruPageCache::ResetIndex(size_t capacity) {
  index_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  shift_ = 32 - std::countr_zero(capacity);
}

void LruPageCache::IndexInsert(uint64_t key, uint32_t s) {
  if (2 * (size_t{size_} + 1) > index_.size()) {
    std::vector<Entry> old = std::move(index_);
    ResetIndex(old.size() * 2);
    for (const Entry& e : old) {
      if (e.slot == kNone) continue;
      size_t i = e.hash >> shift_;
      while (index_[i].slot != kNone) i = (i + 1) & mask_;
      index_[i] = e;
    }
  }
  const uint32_t hash = Hash(key);
  size_t i = hash >> shift_;
  while (index_[i].slot != kNone) i = (i + 1) & mask_;
  index_[i] = Entry{hash, s};
}

uint32_t LruPageCache::IndexErase(uint64_t key) {
  const uint32_t hash = Hash(key);
  size_t hole = hash >> shift_;
  for (;; hole = (hole + 1) & mask_) {
    const Entry& e = index_[hole];
    if (e.slot == kNone) return kNone;
    if (e.hash == hash && slots_[e.slot].key == key) break;
  }
  const uint32_t s = index_[hole].slot;
  // Backward shift: an entry later in the run moves into the hole when the
  // hole lies on its probe path (between its home slot and where it sits),
  // so every remaining key stays reachable without tombstones.
  for (size_t j = (hole + 1) & mask_; index_[j].slot != kNone;
       j = (j + 1) & mask_) {
    const size_t home = index_[j].hash >> shift_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Entry{};
  return s;
}

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
  if (size_ >= capacity_) {
    // The LRU page's slot takes the new key.
    s = tail_;
    evicted.valid = true;
    evicted.key = slots_[s].key;
    evicted.dirty = slots_[s].dirty;
    IndexErase(evicted.key);
    Unlink(s);
    --size_;
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
  IndexInsert(key, s);
  ++size_;
  return evicted;
}

bool LruPageCache::Erase(uint64_t key) {
  const uint32_t s = IndexErase(key);
  if (s == kNone) return false;
  Unlink(s);
  slots_[s].next = free_;
  free_ = s;
  --size_;
  return slots_[s].dirty;
}

void LruPageCache::Clear() {
  slots_.clear();
  std::fill(index_.begin(), index_.end(), Entry{});
  size_ = 0;
  head_ = tail_ = free_ = kNone;
}

}  // namespace treebench
