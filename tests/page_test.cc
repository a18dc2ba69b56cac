#include "src/storage/page.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/random.h"

namespace treebench {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string ToStr(std::span<const uint8_t> s) {
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

class PageTest : public ::testing::Test {
 protected:
  PageTest() : page_(buf_) { page_.Init(); }
  uint8_t buf_[kPageSize] = {};
  Page page_;
};

TEST_F(PageTest, FreshPageIsEmpty) {
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.FreeSpace(), kPageChecksumOffset - Page::kHeaderSize);
}

TEST_F(PageTest, InsertAndGet) {
  auto rec = Bytes("hello world");
  auto slot = page_.Insert(rec);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 0);
  auto got = page_.Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToStr(*got), "hello world");
}

TEST_F(PageTest, MultipleRecordsGetDistinctSlots) {
  for (int i = 0; i < 10; ++i) {
    auto slot = page_.Insert(Bytes("rec" + std::to_string(i)));
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ToStr(*page_.Get(static_cast<uint16_t>(i))),
              "rec" + std::to_string(i));
  }
}

TEST_F(PageTest, GetInvalidSlotIsNotFound) {
  EXPECT_TRUE(page_.Get(0).status().IsNotFound());
  page_.Insert(Bytes("x")).value();
  EXPECT_TRUE(page_.Get(1).status().IsNotFound());
}

TEST_F(PageTest, DeleteTombstones) {
  page_.Insert(Bytes("a")).value();
  page_.Insert(Bytes("b")).value();
  ASSERT_TRUE(page_.Delete(0).ok());
  EXPECT_FALSE(page_.IsLive(0));
  EXPECT_TRUE(page_.Get(0).status().IsNotFound());
  EXPECT_EQ(ToStr(*page_.Get(1)), "b");  // other slots unaffected
  EXPECT_TRUE(page_.Delete(0).IsNotFound());  // double delete
}

TEST_F(PageTest, UpdateInPlaceSameSize) {
  page_.Insert(Bytes("abcd")).value();
  ASSERT_TRUE(page_.Update(0, Bytes("wxyz")).ok());
  EXPECT_EQ(ToStr(*page_.Get(0)), "wxyz");
}

TEST_F(PageTest, UpdateShrinks) {
  page_.Insert(Bytes("abcdef")).value();
  ASSERT_TRUE(page_.Update(0, Bytes("xy")).ok());
  EXPECT_EQ(ToStr(*page_.Get(0)), "xy");
}

TEST_F(PageTest, UpdateGrowthIsRejected) {
  page_.Insert(Bytes("ab")).value();
  Status s = page_.Update(0, Bytes("abcdef"));
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(ToStr(*page_.Get(0)), "ab");  // unchanged
}

TEST_F(PageTest, FillsUntilExhausted) {
  std::vector<uint8_t> rec(100, 0xAB);
  int inserted = 0;
  while (true) {
    auto slot = page_.Insert(rec);
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 100-byte payload + 4-byte slot entry: expect ~39 records in 4092 bytes.
  EXPECT_GT(inserted, 35);
  EXPECT_LT(inserted, 41);
  // All inserted records still readable.
  for (int i = 0; i < inserted; ++i) {
    ASSERT_TRUE(page_.Get(static_cast<uint16_t>(i)).ok());
  }
}

TEST_F(PageTest, MaxRecordFitsExactly) {
  std::vector<uint8_t> rec(Page::kMaxRecordSize, 0x7);
  auto slot = page_.Insert(rec);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_.FreeSpace(), 0u);
  EXPECT_EQ(page_.Get(0)->size(), Page::kMaxRecordSize);
}

TEST_F(PageTest, FreeSpaceAccounting) {
  uint32_t before = page_.FreeSpace();
  page_.Insert(Bytes("0123456789")).value();
  EXPECT_EQ(page_.FreeSpace(), before - 10 - Page::kSlotEntrySize);
}

// The classic byte-at-a-time CRC-32 table loop. Crc32 must match it bit for
// bit: every stamped trailer and golden file was computed with it.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(Lrand48* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Next() >> 8);
  return bytes;
}

// Crc32 folds the 16-byte-multiple bulk of inputs of 64 bytes or more with
// the widest carry-less-multiply kernel the CPU has and hands the rest to
// the table loop; Crc32Via runs each narrower bulk path, and Crc32Portable
// is the table loop alone. Every case runs every path this CPU has.
uint32_t Crc32Table(const uint8_t* data, uint32_t len) {
  return Crc32Via(Crc32Path::kTable, data, len);
}
uint32_t Crc32Clmul128(const uint8_t* data, uint32_t len) {
  return Crc32Via(Crc32Path::kClmul128, data, len);
}
uint32_t Crc32Clmul512(const uint8_t* data, uint32_t len) {
  return Crc32Via(Crc32Path::kClmul512, data, len);
}

struct Crc32Kernel {
  const char* name;
  uint32_t (*fn)(const uint8_t*, uint32_t);
};
const std::vector<Crc32Kernel> kKernels = [] {
  std::vector<Crc32Kernel> kernels = {{"Crc32", &Crc32},
                                      {"Crc32Portable", &Crc32Portable},
                                      {"kTable", &Crc32Table}};
  if (Crc32BulkPath() >= Crc32Path::kClmul128) {
    kernels.push_back({"kClmul128", &Crc32Clmul128});
  }
  if (Crc32BulkPath() >= Crc32Path::kClmul512) {
    kernels.push_back({"kClmul512", &Crc32Clmul512});
  }
  return kernels;
}();

// CI logs show which bulk path ran: the 512-bit one only on CPUs with
// AVX-512F and VPCLMULQDQ.
TEST(Crc32Test, ReportsTheBulkPathCrc32Takes) {
  const char* names[] = {"kTable (slicing-by-16)",
                         "kClmul128 (PCLMULQDQ, 4 x 128-bit lanes)",
                         "kClmul512 (AVX-512F + VPCLMULQDQ, 4 x 512-bit)"};
  const Crc32Path path = Crc32BulkPath();
  std::printf("Crc32 bulk path on this CPU: %s\n",
              names[static_cast<int>(path)]);
  RecordProperty("crc32_bulk_path", names[static_cast<int>(path)]);
  EXPECT_EQ(kKernels.size(), 3u + static_cast<size_t>(path));
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  const uint8_t unused = 0;
  for (const Crc32Kernel& kernel : kKernels) {
    SCOPED_TRACE(kernel.name);
    EXPECT_EQ(kernel.fn(reinterpret_cast<const uint8_t*>(check.data()),
                        static_cast<uint32_t>(check.size())),
              0xCBF43926u);
    EXPECT_EQ(kernel.fn(&unused, 0), 0u);
  }
}

// Each case gets a buffer that ends at the input's last byte, so a read past
// `len` trips AddressSanitizer. Offsets 0..15 shift the word, 128-bit and
// 512-bit loads through every alignment; lengths up to 1,100 cover the
// table-only sizes, the first 64-byte fold block, the 16-byte single folds
// after it, several 64-byte folds, one and two 256-byte blocks of the
// 512-bit kernel with every 64-byte and 16-byte remainder after them, and
// every tail length after each.
TEST(Crc32Test, MatchesReferenceAtEveryShortLengthAndOffset) {
  constexpr uint32_t kMaxLen = 1100;
  Lrand48 rng(12);
  const std::vector<uint8_t> bytes = RandomBytes(&rng, kMaxLen + 16);
  for (uint32_t offset = 0; offset < 16; ++offset) {
    for (uint32_t len = 0; len <= kMaxLen; ++len) {
      const std::vector<uint8_t> buf(bytes.begin(),
                                     bytes.begin() + offset + len);
      const uint32_t want = ReferenceCrc32(buf.data() + offset, len);
      for (const Crc32Kernel& kernel : kKernels) {
        EXPECT_EQ(kernel.fn(buf.data() + offset, len), want)
            << kernel.name << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnRandomPages) {
  Lrand48 rng(42);
  for (int i = 0; i < 1000; ++i) {
    const std::vector<uint8_t> page = RandomBytes(&rng, kPageSize);
    const uint32_t want = ReferenceCrc32(page.data(), kPageChecksumOffset);
    ASSERT_EQ(PageChecksum(page.data()), want) << "page " << i;
    for (const Crc32Kernel& kernel : kKernels) {
      ASSERT_EQ(kernel.fn(page.data(), kPageChecksumOffset), want)
          << kernel.name << " page " << i;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnAllZeroAndAllOnesPages) {
  for (const uint8_t fill : {uint8_t{0x00}, uint8_t{0xFF}}) {
    const std::vector<uint8_t> page(kPageSize, fill);
    const uint32_t want = ReferenceCrc32(page.data(), kPageChecksumOffset);
    for (const Crc32Kernel& kernel : kKernels) {
      EXPECT_EQ(kernel.fn(page.data(), kPageChecksumOffset), want)
          << kernel.name << " fill " << int{fill};
    }
  }
}

TEST(Crc32Test, VerifyRejectsASingleFlippedBit) {
  Lrand48 rng(7);
  std::vector<uint8_t> page = RandomBytes(&rng, kPageSize);
  StampPageChecksum(page.data());
  ASSERT_TRUE(VerifyPageChecksum(page.data()));
  const uint32_t stamped = GetU32(page.data() + kPageChecksumOffset);
  // One flip per byte, trailer included, cycling through the bit positions.
  for (uint32_t i = 0; i < kPageSize; ++i) {
    const uint8_t mask = static_cast<uint8_t>(1u << (i % 8));
    page[i] ^= mask;
    EXPECT_FALSE(VerifyPageChecksum(page.data())) << "byte " << i;
    if (i < kPageChecksumOffset) {
      EXPECT_NE(Crc32Portable(page.data(), kPageChecksumOffset), stamped)
          << "byte " << i;
    }
    page[i] ^= mask;
  }
  EXPECT_TRUE(VerifyPageChecksum(page.data()));
}

}  // namespace
}  // namespace treebench
