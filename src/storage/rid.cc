#include "src/storage/rid.h"

#include <cstddef>
#include <cstdio>

namespace treebench {

std::string Rid::ToString() const {
  if (!valid()) return "@nil";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "@%u.%u.%u", file_id, page_id, slot);
  return buf;
}

int SortPackedRids(std::vector<uint64_t>* keys) {
  const size_t n = keys->size();
  if (n < 2) return 0;
  uint64_t all_or = 0;
  uint64_t all_and = ~uint64_t{0};
  for (uint64_t k : *keys) {
    all_or |= k;
    all_and &= k;
  }
  // A bit varies iff some key sets it and some key clears it.
  const uint64_t varying = all_or & ~all_and;
  std::vector<uint64_t> scratch;
  int passes = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    if (scratch.empty()) scratch.resize(n);
    size_t start[257] = {};
    for (uint64_t k : *keys) ++start[((k >> shift) & 0xFF) + 1];
    for (int b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (uint64_t k : *keys) scratch[start[(k >> shift) & 0xFF]++] = k;
    keys->swap(scratch);
    ++passes;
  }
  return passes;
}

}  // namespace treebench
