#ifndef TREEBENCH_TESTS_FLAT_INDEX_KEYS_H_
#define TREEBENCH_TESTS_FLAT_INDEX_KEYS_H_

#include <cstdint>

#include "src/common/flat_index.h"

namespace treebench {

/// A key whose FlatIndex hash (the top half of key * kMul) is `hash`: with
/// inv the inverse of kMul mod 2^64, key * kMul == (hash << 32) | low, so
/// keys that differ only in `low` share one hash and one home slot at every
/// capacity. A hash of all ones homes a key at the last slot.
inline uint64_t KeyWithHash(uint32_t hash, uint32_t low) {
  constexpr uint64_t kMul = FlatIndex::kMul;
  uint64_t inv = kMul;
  for (int i = 0; i < 6; ++i) inv *= 2 - kMul * inv;  // Newton's iteration
  return ((uint64_t{hash} << 32) | low) * inv;
}

}  // namespace treebench

#endif  // TREEBENCH_TESTS_FLAT_INDEX_KEYS_H_
