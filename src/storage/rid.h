#ifndef TREEBENCH_STORAGE_RID_H_
#define TREEBENCH_STORAGE_RID_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/byte_io.h"

namespace treebench {

/// A Record identifier: the *physical* address of a record, O2-style
/// (paper Section 4.1: "Rids correspond to physical addresses on disks").
/// Serialized form is 8 bytes — the paper's accounting uses "8 per address
/// or object identifier".
struct Rid {
  uint16_t file_id = 0xFFFF;
  uint32_t page_id = 0;
  uint16_t slot = 0;

  constexpr Rid() = default;
  constexpr Rid(uint16_t f, uint32_t p, uint16_t s)
      : file_id(f), page_id(p), slot(s) {}

  bool valid() const { return file_id != 0xFFFF; }

  friend auto operator<=>(const Rid&, const Rid&) = default;

  /// 8-byte on-disk encoding.
  void EncodeTo(uint8_t* dst) const {
    PutU16(dst, file_id);
    PutU32(dst + 2, page_id);
    PutU16(dst + 6, slot);
  }
  static Rid DecodeFrom(const uint8_t* src) {
    return Rid(GetU16(src), GetU32(src + 2), GetU16(src + 6));
  }
  static constexpr int kEncodedSize = 8;

  /// Packs into one integer that orders Rids by physical position — the key
  /// the sorted index fetch collects and orders with SortPackedRids before
  /// its fetch pass (paper Section 4.2). Packing is lossless, so distinct
  /// Rids have distinct keys.
  uint64_t Packed() const {
    return (static_cast<uint64_t>(file_id) << 48) |
           (static_cast<uint64_t>(page_id) << 16) | slot;
  }
  /// Inverse of Packed().
  static constexpr Rid FromPacked(uint64_t packed) {
    return Rid(static_cast<uint16_t>(packed >> 48),
               static_cast<uint32_t>((packed >> 16) & 0xFFFFFFFFull),
               static_cast<uint16_t>(packed & 0xFFFF));
  }

  std::string ToString() const;
};

/// Sorts packed Rids (Rid::Packed) ascending, in time linear in their
/// number: an LSD radix sort that makes one stable counting pass per byte
/// that varies across `keys` (an OR/AND mask finds those bytes), through
/// one scratch buffer of keys->size() keys. Returns the number of passes,
/// 0 when every key is equal. One file with 1,617 pages and slots below 64
/// (Derby scale 20) takes three.
int SortPackedRids(std::vector<uint64_t>* keys);

/// The canonical invalid Rid ("nil" reference).
inline constexpr Rid kNilRid{};

/// A page's key in every per-page table (cache residency, undo images,
/// heat, placement): (file_id << 32) | page_id. Consecutive keys are
/// physically consecutive pages of one file, so the readahead planner
/// (src/cache/readahead.h) detects sequential runs on raw keys.
constexpr uint64_t PageKey(uint16_t file_id, uint32_t page_id) {
  return (static_cast<uint64_t>(file_id) << 32) | page_id;
}
constexpr uint16_t PageKeyFile(uint64_t key) {
  return static_cast<uint16_t>(key >> 32);
}
constexpr uint32_t PageKeyPage(uint64_t key) {
  return static_cast<uint32_t>(key);
}

}  // namespace treebench

#endif  // TREEBENCH_STORAGE_RID_H_
