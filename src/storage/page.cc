#include "src/storage/page.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Advances the running (pre-inverted) CRC state over `len` bytes.
uint32_t Crc32Update(uint32_t crc, const uint8_t* data, uint32_t len) {
  const auto& t = kCrc32.t;
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
  return crc;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// paper's bit-reflected constants for 0xEDB88320: k1/k2 fold a 128-bit lane
// 512 bits ahead, k3/k4 fold it 128 bits ahead, k5 folds 64 bits to 32, and
// P' and mu drive the Barrett reduction to the 32-bit remainder.
constexpr uint64_t kFold512[2] = {0x154442BD4, 0x1C6E41596};  // k1, k2
constexpr uint64_t kFold128[2] = {0x1751997D0, 0x0CCAA009E};  // k3, k4
constexpr uint64_t kFold64 = 0x163CD6124;                     // k5
constexpr uint64_t kBarrett[2] = {0x1DB710641, 0x1F7011641};  // P', mu

#define TREEBENCH_CLMUL __attribute__((target("pclmul,sse4.1")))

TREEBENCH_CLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries lane `x` forward over the distance `k` encodes and adds `next`.
TREEBENCH_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Same contract as Crc32Update, for len >= 64 and a multiple of 16.
TREEBENCH_CLMUL uint32_t Crc32UpdateClmul(uint32_t crc, const uint8_t* data,
                                          uint32_t len) {
  const __m128i fold512 = _mm_set_epi64x(kFold512[1], kFold512[0]);
  const __m128i fold128 = _mm_set_epi64x(kFold128[1], kFold128[0]);
  // Four lanes over the first 64 bytes; the state enters the first lane.
  __m128i x0 = _mm_xor_si128(Load128(data), _mm_cvtsi32_si128(crc));
  __m128i x1 = Load128(data + 16);
  __m128i x2 = Load128(data + 32);
  __m128i x3 = Load128(data + 48);
  for (data += 64, len -= 64; len >= 64; data += 64, len -= 64) {
    x0 = Fold(x0, fold512, Load128(data));
    x1 = Fold(x1, fold512, Load128(data + 16));
    x2 = Fold(x2, fold512, Load128(data + 32));
    x3 = Fold(x3, fold512, Load128(data + 48));
  }
  // Four lanes into one, then 16 bytes at a time.
  x0 = Fold(x0, fold128, x1);
  x0 = Fold(x0, fold128, x2);
  x0 = Fold(x0, fold128, x3);
  for (; len >= 16; data += 16, len -= 16) {
    x0 = Fold(x0, fold128, Load128(data));
  }
  // 128 -> 64 bits: the low half times k4, plus the high half.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, fold128, 0x10),
                     _mm_srli_si128(x0, 8));
  // 64 -> 32 bits (as a 64-bit value): the low word times k5, plus the rest.
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                           _mm_cvtsi64_si128(kFold64), 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett: q = floor(x / P) via mu, remainder = x - q * P in the high word.
  const __m128i barrett = _mm_set_epi64x(kBarrett[1], kBarrett[0]);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef TREEBENCH_CLMUL

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32Portable(const uint8_t* data, uint32_t len) {
  return Crc32Update(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const uint8_t* data, uint32_t len) {
  uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  static const bool clmul = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  if (clmul && len >= 64) {
    const uint32_t bulk = len & ~15u;
    crc = Crc32UpdateClmul(crc, data, bulk);
    data += bulk;
    len -= bulk;
  }
#endif
  return Crc32Update(crc, data, len) ^ 0xFFFFFFFFu;
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
