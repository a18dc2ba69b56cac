#ifndef TREEBENCH_COMMON_BYTE_IO_H_
#define TREEBENCH_COMMON_BYTE_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>

namespace treebench {

// Fixed-width encoding into raw byte buffers in the host's native byte
// order (memcpy). Used by the slotted-page and object serialization layers.
// All functions assume the caller has validated bounds.
//
// The on-disk format is therefore native little-endian, and Crc32
// (src/storage/page.cc) reads its input as little-endian 32-bit words. A
// big-endian host would write different page images and trailers, so it is
// refused at compile time.
static_assert(std::endian::native == std::endian::little,
              "treebench's on-disk format is native little-endian");

inline void PutU16(uint8_t* dst, uint16_t v) { std::memcpy(dst, &v, 2); }
inline void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
inline void PutI32(uint8_t* dst, int32_t v) { std::memcpy(dst, &v, 4); }
inline void PutI64(uint8_t* dst, int64_t v) { std::memcpy(dst, &v, 8); }

inline uint16_t GetU16(const uint8_t* src) {
  uint16_t v;
  std::memcpy(&v, src, 2);
  return v;
}
inline uint32_t GetU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}
inline int32_t GetI32(const uint8_t* src) {
  int32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline int64_t GetI64(const uint8_t* src) {
  int64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

}  // namespace treebench

#endif  // TREEBENCH_COMMON_BYTE_IO_H_
