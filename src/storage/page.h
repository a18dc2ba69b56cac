#ifndef TREEBENCH_STORAGE_PAGE_H_
#define TREEBENCH_STORAGE_PAGE_H_

#include <cstdint>
#include <span>

#include "src/common/status.h"

namespace treebench {

/// Pages are 4 KiB, as in O2 (paper Section 2).
inline constexpr uint32_t kPageSize = 4096;

/// Every page — slotted or raw-layout (B+-tree nodes, Rid pages, set-chain
/// pages) — reserves its last 4 bytes for a CRC32 over bytes
/// [0, kPageChecksumOffset). The checksum is stamped whenever a page is
/// written to disk and verified whenever the server cache fills from disk,
/// so silent corruption surfaces as StatusCode::kCorruption instead of
/// wrong query results. While a page sits dirty in cache the trailer is
/// stale; only disk images are guaranteed coherent.
inline constexpr uint32_t kPageChecksumOffset = kPageSize - 4;

/// CRC-32 over `len` bytes: reflected polynomial 0xEDB88320, initial value
/// and final xor 0xFFFFFFFF (Crc32("123456789") == 0xCBF43926). On x86-64
/// CPUs with PCLMULQDQ and SSE4.1 (checked once, on first call) the
/// 16-byte-multiple bulk of any input of 64 bytes or more goes through a
/// carry-less-multiply folding kernel: four 128-bit lanes per 64-byte
/// block, then 16 bytes per step, then a Barrett reduction to 32 bits.
/// The rest — the tail under 16 bytes, short inputs, and every input on
/// other CPUs — goes through the slicing-by-16 table loop of
/// Crc32Portable. Both paths are bit-identical to the classic byte-wise
/// table loop, which tests/page_test.cc keeps as its reference. A
/// 4092-byte page (4080 bytes folded, 12 by table) costs about 0.28 us of
/// host time, against about 2 us slicing-by-16 and 13-15 us byte-wise
/// (BM_Crc32 and BM_Crc32Portable in bench_micro_engine, 2.0 GHz Xeon).
uint32_t Crc32(const uint8_t* data, uint32_t len);

/// The same CRC-32 through the slicing-by-16 table loop alone (one
/// constexpr 16x256 table, four little-endian 32-bit loads per 16-byte
/// step, byte-wise tail). Crc32 runs the same loop for its tail and as its
/// fallback; this entry point lets tests and benchmarks run it on any CPU.
uint32_t Crc32Portable(const uint8_t* data, uint32_t len);

/// Computes the checksum a coherent page image would carry.
uint32_t PageChecksum(const uint8_t* page);

/// Writes the checksum into the page trailer.
void StampPageChecksum(uint8_t* page);

/// True if the trailer matches the page contents.
bool VerifyPageChecksum(const uint8_t* page);

/// A classic slotted page, viewed over a 4 KiB buffer owned by the
/// DiskManager.
///
/// Layout:
///   [0..2)   u16 slot count
///   [2..4)   u16 free pointer (offset of first unused data byte)
///   [4..fp)  record data, growing upward
///   [dir..4096) slot directory growing downward: per slot
///              {u16 offset, u16 length}; offset 0xFFFF marks a deleted slot.
///
/// Records never span pages; larger values are chunked by higher layers
/// (collections over 4 KiB go to a separate file, as O2 does).
class Page {
 public:
  static constexpr uint16_t kDeletedOffset = 0xFFFF;
  static constexpr uint32_t kHeaderSize = 4;
  static constexpr uint32_t kSlotEntrySize = 4;
  /// Largest record payload a fresh page can host. The slot directory is
  /// anchored at kPageChecksumOffset so the checksum trailer stays intact.
  static constexpr uint32_t kMaxRecordSize =
      kPageChecksumOffset - kHeaderSize - kSlotEntrySize;

  /// Wraps (does not own) a 4 KiB buffer. The buffer must outlive the Page.
  explicit Page(uint8_t* data) : data_(data) {}

  /// Zeroes the header of a freshly allocated page.
  void Init();

  uint16_t slot_count() const;
  /// Contiguous free bytes available for a new record (slot entry included).
  uint32_t FreeSpace() const;

  /// True if a record of `len` payload bytes fits.
  bool Fits(uint32_t len) const { return FreeSpace() >= len + kSlotEntrySize; }

  /// Appends a record, returns its slot number.
  Result<uint16_t> Insert(std::span<const uint8_t> record);

  /// Returns the payload of `slot`, or NotFound for deleted/invalid slots.
  Result<std::span<const uint8_t>> Get(uint16_t slot) const;

  /// Mutable access to the payload of `slot` (for in-place field updates).
  Result<std::span<uint8_t>> GetMutable(uint16_t slot);

  /// In-place update; fails with ResourceExhausted if the new payload is
  /// longer than the old one (the caller must then relocate the record —
  /// this is exactly the "grow the object header" trap of Section 3.2).
  Status Update(uint16_t slot, std::span<const uint8_t> record);

  /// Tombstones a slot. The space is not compacted.
  Status Delete(uint16_t slot);

  /// True if `slot` holds a live record.
  bool IsLive(uint16_t slot) const;

  const uint8_t* raw() const { return data_; }

 private:
  uint16_t SlotOffset(uint16_t slot) const;
  uint16_t SlotLength(uint16_t slot) const;
  uint32_t DirStart() const;

  uint8_t* data_;
};

}  // namespace treebench

#endif  // TREEBENCH_STORAGE_PAGE_H_
