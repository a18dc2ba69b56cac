#include "src/storage/page.h"

#include <cstring>

#include "src/common/byte_io.h"
#include "src/common/logging.h"

namespace treebench {

namespace {

// Slicing-by-16 tables: t[0] is the classic byte-wise table; t[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so sixteen lookups
// fold a 16-byte block in one step.
struct Crc32Tables {
  uint32_t t[16][256];
  constexpr Crc32Tables() : t() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int s = 1; s < 16; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

constexpr Crc32Tables kCrc32;

}  // namespace

uint32_t Crc32(const uint8_t* data, uint32_t len) {
  const auto& t = kCrc32.t;
  uint32_t crc = 0xFFFFFFFFu;
  // Little-endian word loads (byte_io.h): the low byte of `w0` is data[0].
  for (; len >= 16; len -= 16, data += 16) {
    uint32_t w0 = GetU32(data) ^ crc;
    uint32_t w1 = GetU32(data + 4);
    uint32_t w2 = GetU32(data + 8);
    uint32_t w3 = GetU32(data + 12);
    crc = t[15][w0 & 0xFF] ^ t[14][(w0 >> 8) & 0xFF] ^
          t[13][(w0 >> 16) & 0xFF] ^ t[12][w0 >> 24] ^
          t[11][w1 & 0xFF] ^ t[10][(w1 >> 8) & 0xFF] ^
          t[9][(w1 >> 16) & 0xFF] ^ t[8][w1 >> 24] ^
          t[7][w2 & 0xFF] ^ t[6][(w2 >> 8) & 0xFF] ^
          t[5][(w2 >> 16) & 0xFF] ^ t[4][w2 >> 24] ^
          t[3][w3 & 0xFF] ^ t[2][(w3 >> 8) & 0xFF] ^
          t[1][(w3 >> 16) & 0xFF] ^ t[0][w3 >> 24];
  }
  for (; len > 0; --len, ++data) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t PageChecksum(const uint8_t* page) {
  return Crc32(page, kPageChecksumOffset);
}

void StampPageChecksum(uint8_t* page) {
  PutU32(page + kPageChecksumOffset, PageChecksum(page));
}

bool VerifyPageChecksum(const uint8_t* page) {
  return GetU32(page + kPageChecksumOffset) == PageChecksum(page);
}

void Page::Init() {
  PutU16(data_, 0);                // slot count
  PutU16(data_ + 2, kHeaderSize);  // free pointer
}

uint16_t Page::slot_count() const { return GetU16(data_); }

uint32_t Page::DirStart() const {
  return kPageChecksumOffset -
         kSlotEntrySize * static_cast<uint32_t>(slot_count());
}

uint32_t Page::FreeSpace() const {
  uint32_t free_ptr = GetU16(data_ + 2);
  uint32_t dir_start = DirStart();
  return dir_start > free_ptr ? dir_start - free_ptr : 0;
}

uint16_t Page::SlotOffset(uint16_t slot) const {
  return GetU16(data_ + kPageChecksumOffset - kSlotEntrySize * (slot + 1));
}

uint16_t Page::SlotLength(uint16_t slot) const {
  return GetU16(data_ + kPageChecksumOffset - kSlotEntrySize * (slot + 1) + 2);
}

bool Page::IsLive(uint16_t slot) const {
  return slot < slot_count() && SlotOffset(slot) != kDeletedOffset;
}

Result<uint16_t> Page::Insert(std::span<const uint8_t> record) {
  TB_CHECK(record.size() <= kMaxRecordSize);
  uint32_t len = static_cast<uint32_t>(record.size());
  if (!Fits(len)) {
    return Status::ResourceExhausted("page full");
  }
  uint16_t slot = slot_count();
  uint16_t offset = GetU16(data_ + 2);
  std::memcpy(data_ + offset, record.data(), len);
  // Slot directory entry.
  uint8_t* entry = data_ + kPageChecksumOffset - kSlotEntrySize * (slot + 1);
  PutU16(entry, offset);
  PutU16(entry + 2, static_cast<uint16_t>(len));
  // Header.
  PutU16(data_, static_cast<uint16_t>(slot + 1));
  PutU16(data_ + 2, static_cast<uint16_t>(offset + len));
  return slot;
}

Result<std::span<const uint8_t>> Page::Get(uint16_t slot) const {
  if (!IsLive(slot)) {
    return Status::NotFound("no such slot");
  }
  return std::span<const uint8_t>(data_ + SlotOffset(slot), SlotLength(slot));
}

Result<std::span<uint8_t>> Page::GetMutable(uint16_t slot) {
  if (!IsLive(slot)) {
    return Status::NotFound("no such slot");
  }
  return std::span<uint8_t>(data_ + SlotOffset(slot), SlotLength(slot));
}

Status Page::Update(uint16_t slot, std::span<const uint8_t> record) {
  if (!IsLive(slot)) {
    return Status::NotFound("no such slot");
  }
  uint16_t old_len = SlotLength(slot);
  if (record.size() > old_len) {
    return Status::ResourceExhausted("record grew; relocation required");
  }
  std::memcpy(data_ + SlotOffset(slot), record.data(), record.size());
  PutU16(data_ + kPageChecksumOffset - kSlotEntrySize * (slot + 1) + 2,
         static_cast<uint16_t>(record.size()));
  return Status::OK();
}

Status Page::Delete(uint16_t slot) {
  if (!IsLive(slot)) {
    return Status::NotFound("no such slot");
  }
  uint8_t* entry = data_ + kPageChecksumOffset - kSlotEntrySize * (slot + 1);
  PutU16(entry, kDeletedOffset);
  PutU16(entry + 2, 0);
  return Status::OK();
}

}  // namespace treebench
