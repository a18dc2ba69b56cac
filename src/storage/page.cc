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
  // Slicing-by-4: a page's 12-byte tail takes three steps.
  for (; len >= 4; len -= 4, data += 4) {
    uint32_t w = GetU32(data) ^ crc;
    crc = t[3][w & 0xFF] ^ t[2][(w >> 8) & 0xFF] ^ t[1][(w >> 16) & 0xFF] ^
          t[0][w >> 24];
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
// P' and mu drive the Barrett reduction to the 32-bit remainder. The
// 512-bit kernel also folds 2048 bits ahead: x^(2048+32) and x^(2048-32)
// mod P, reflected and shifted like k1/k2.
constexpr uint64_t kFold2048[2] = {0x11542778A, 0x1322D1430};
constexpr uint64_t kFold512[2] = {0x154442BD4, 0x1C6E41596};  // k1, k2
constexpr uint64_t kFold128[2] = {0x1751997D0, 0x0CCAA009E};  // k3, k4
constexpr uint64_t kFold64 = 0x163CD6124;                     // k5
constexpr uint64_t kBarrett[2] = {0x1DB710641, 0x1F7011641};  // P', mu

#define TREEBENCH_CLMUL __attribute__((target("pclmul,sse4.1")))
#define TREEBENCH_VPCLMUL \
  __attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1")))

TREEBENCH_CLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries lane `x` forward over the distance `k` encodes and adds `next`.
TREEBENCH_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Finishes a fold whose four 128-bit lanes hold the state after the bytes
// before `data`: the 4-lane loop over the remaining 64-byte blocks, four
// lanes into one, 16 bytes at a time, then the reduction to 32 bits. `len`
// is a multiple of 16. Always inlined, so the 512-bit kernel runs it
// VEX-encoded: legacy-SSE code after 512-bit code, before the compiler's
// closing vzeroupper, pays a state transition of some hundred nanoseconds
// per call.
TREEBENCH_CLMUL __attribute__((always_inline)) inline uint32_t FoldLanes(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3, const uint8_t* data,
    uint32_t len) {
  const __m128i fold512 = _mm_set_epi64x(kFold512[1], kFold512[0]);
  const __m128i fold128 = _mm_set_epi64x(kFold128[1], kFold128[0]);
  for (; len >= 64; data += 64, len -= 64) {
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

// Same contract as Crc32Update, for len >= 64 and a multiple of 16.
TREEBENCH_CLMUL uint32_t Crc32UpdateClmul(uint32_t crc, const uint8_t* data,
                                          uint32_t len) {
  // Four lanes over the first 64 bytes; the state enters the first lane.
  return FoldLanes(_mm_xor_si128(Load128(data), _mm_cvtsi32_si128(crc)),
                   Load128(data + 16), Load128(data + 32), Load128(data + 48),
                   data + 64, len - 64);
}

TREEBENCH_VPCLMUL inline __m512i Load512(const uint8_t* p) {
  return _mm512_loadu_si512(p);
}

// Fold over four 128-bit lanes at once: each lane of `x` is carried over
// the distance `k` encodes (the same constants in every lane) and added to
// the matching lane of `next`.
TREEBENCH_VPCLMUL inline __m512i Fold512(__m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next,
                                   0x96);  // a ^ b ^ c
}

// Same contract as Crc32Update, for len >= 256 and a multiple of 16. Four
// 512-bit registers hold sixteen 128-bit lanes over each 256-byte block.
// Folding them into one register leaves exactly the four lanes the 128-bit
// loop would hold after the same bytes, and FoldLanes goes on from there.
TREEBENCH_VPCLMUL uint32_t Crc32UpdateVpclmul(uint32_t crc,
                                              const uint8_t* data,
                                              uint32_t len) {
  const __m512i fold2048 = _mm512_set4_epi64(kFold2048[1], kFold2048[0],
                                             kFold2048[1], kFold2048[0]);
  const __m512i fold512 = _mm512_set4_epi64(kFold512[1], kFold512[0],
                                            kFold512[1], kFold512[0]);
  __m512i z0 = _mm512_xor_si512(
      Load512(data), _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc)));
  __m512i z1 = Load512(data + 64);
  __m512i z2 = Load512(data + 128);
  __m512i z3 = Load512(data + 192);
  for (data += 256, len -= 256; len >= 256; data += 256, len -= 256) {
    z0 = Fold512(z0, fold2048, Load512(data));
    z1 = Fold512(z1, fold2048, Load512(data + 64));
    z2 = Fold512(z2, fold2048, Load512(data + 128));
    z3 = Fold512(z3, fold2048, Load512(data + 192));
  }
  z1 = Fold512(z0, fold512, z1);
  z2 = Fold512(z1, fold512, z2);
  z3 = Fold512(z2, fold512, z3);
  // A store rather than _mm512_extracti32x4_epi32, whose GCC 12 header
  // trips -Wuninitialized.
  alignas(64) __m128i x[4];
  _mm512_store_si512(x, z3);
  return FoldLanes(x[0], x[1], x[2], x[3], data, len);
}

#undef TREEBENCH_VPCLMUL
#undef TREEBENCH_CLMUL

// The widest bulk path this CPU runs, checked once.
Crc32Path DetectCrc32Path() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("sse4.1")) {
    return Crc32Path::kTable;
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("vpclmulqdq")) {
    return Crc32Path::kClmul512;
  }
  return Crc32Path::kClmul128;
}

#else

Crc32Path DetectCrc32Path() { return Crc32Path::kTable; }

#endif  // defined(__x86_64__)

// Crc32 with its bulk through `path`'s kernel and the rest by table.
uint32_t Crc32On(Crc32Path path, const uint8_t* data, uint32_t len) {
  uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (path != Crc32Path::kTable && len >= 64) {
    const uint32_t bulk = len & ~15u;
    crc = path == Crc32Path::kClmul512 && bulk >= 256
              ? Crc32UpdateVpclmul(crc, data, bulk)
              : Crc32UpdateClmul(crc, data, bulk);
    data += bulk;
    len -= bulk;
  }
#endif
  return Crc32Update(crc, data, len) ^ 0xFFFFFFFFu;
}

}  // namespace

uint32_t Crc32Portable(const uint8_t* data, uint32_t len) {
  return Crc32Update(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

Crc32Path Crc32BulkPath() {
  static const Crc32Path path = DetectCrc32Path();
  return path;
}

uint32_t Crc32(const uint8_t* data, uint32_t len) {
  return Crc32On(Crc32BulkPath(), data, len);
}

uint32_t Crc32Via(Crc32Path path, const uint8_t* data, uint32_t len) {
  TB_CHECK(path <= Crc32BulkPath());
  return Crc32On(path, data, len);
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
