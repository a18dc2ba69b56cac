#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "src/common/artifact.h"
#include "src/common/byte_io.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/cost/metrics.h"

namespace treebench {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing widget");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, CodePredicates) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  Status ok;
  EXPECT_FALSE(ok.IsOutOfRange());
  EXPECT_FALSE(ok.IsCorruption());
  EXPECT_FALSE(ok.IsUnavailable());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_EQ(Status::Unavailable("server timed out").ToString(),
            "Unavailable: server timed out");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("past the end");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  int h = 0;
  TB_ASSIGN_OR_RETURN(h, Half(x));
  TB_ASSIGN_OR_RETURN(h, Half(h));
  return h;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = Quarter(6);  // 6/2 = 3, odd
  EXPECT_FALSE(bad.ok());
}

TEST(Lrand48Test, DeterministicAcrossInstances) {
  Lrand48 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Lrand48Test, MatchesLibcLrand48FirstDraws) {
  // Reference values from glibc: srand48(0); lrand48() x3.
  Lrand48 r(0);
  EXPECT_EQ(r.Next(), 366850414u);
  EXPECT_EQ(r.Next(), 1610402240u);
  EXPECT_EQ(r.Next(), 206956554u);
}

TEST(Lrand48Test, UniformInRange) {
  Lrand48 r(42);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Lrand48Test, UniformCoversAllBuckets) {
  Lrand48 r(42);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Lrand48Test, UniformRangeInclusive) {
  Lrand48 r(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Lrand48Test, ShufflePreservesElements) {
  Lrand48 r(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Lrand48Test, NextStringIsLowercaseAscii) {
  Lrand48 r(9);
  std::string s = r.NextString(16);
  EXPECT_EQ(s.size(), 16u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(ZipfSamplerTest, DeterministicForSameParameters) {
  ZipfSampler a(1000, 0.8, 42);
  ZipfSampler b(1000, 0.8, 42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(ZipfSamplerTest, SeedChangesTheSequence) {
  ZipfSampler a(1000, 0.8, 42);
  ZipfSampler b(1000, 0.8, 43);
  int diffs = 0;
  for (int i = 0; i < 100; ++i) diffs += a.Next() != b.Next();
  EXPECT_GT(diffs, 0);
}

TEST(ZipfSamplerTest, RanksStayInDomain) {
  for (double theta : {0.0, 0.5, 0.99}) {
    ZipfSampler z(37, theta, 7);
    for (int i = 0; i < 2000; ++i) EXPECT_LT(z.Next(), 37u) << theta;
  }
}

TEST(ZipfSamplerTest, HeadIsHeavyUnderSkew) {
  // With theta = 0.9 over 1000 ranks, the head must dominate: rank 0 alone
  // draws a substantial share and the top decile the majority, while the
  // theoretical uniform share of the top decile is only 10%.
  ZipfSampler z(1000, 0.9, 123);
  const int kDraws = 20000;
  int rank0 = 0, top_decile = 0;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t r = z.Next();
    rank0 += r == 0;
    top_decile += r < 100;
  }
  EXPECT_GT(rank0, kDraws / 20);           // > 5% on one rank out of 1000
  EXPECT_GT(top_decile, kDraws / 2);       // majority in the top 10%
}

TEST(ZipfSamplerTest, ThetaZeroIsUniform) {
  ZipfSampler z(10, 0.0, 99);
  const int kDraws = 20000;
  int counts[10] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[z.Next()];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 20);  // every bucket well-populated
    EXPECT_LT(c, kDraws / 5);   // none dominates
  }
}

TEST(ByteIoTest, RoundTrips) {
  uint8_t buf[8];
  PutU16(buf, 0xBEEF);
  EXPECT_EQ(GetU16(buf), 0xBEEF);
  PutU32(buf, 0xDEADBEEFu);
  EXPECT_EQ(GetU32(buf), 0xDEADBEEFu);
  PutU64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(GetU64(buf), 0x0123456789ABCDEFull);
  PutI32(buf, -123456);
  EXPECT_EQ(GetI32(buf), -123456);
  PutI64(buf, -9876543210LL);
  EXPECT_EQ(GetI64(buf), -9876543210LL);
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(4096), "4.0 KiB");
  EXPECT_EQ(HumanBytes(32ull << 20), "32.0 MiB");
}

TEST(StringUtilTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(802.154), "802.15");
  EXPECT_EQ(FormatSeconds(1.0, 1), "1.0");
}

TEST(StringUtilTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(3000000), "3,000,000");
}

TEST(ArtifactTest, JsonEscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain name_1"), "plain name_1");
  EXPECT_EQ(JsonEscape(R"(a"b\c)"), R"(a\"b\\c)");
  EXPECT_EQ(JsonEscape("l1\nl2\tx\r"), R"(l1\nl2\u0009x\u000d)");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2)), R"(\u0001\u001f)");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), R"(\u0000)");
  // UTF-8 and DEL pass through unchanged.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9\x7f"), "caf\xc3\xa9\x7f");
}

TEST(ArtifactTest, CsvQuoteDoublesEmbeddedQuotes) {
  EXPECT_EQ(CsvQuote(""), R"("")");
  EXPECT_EQ(CsvQuote("a, b"), R"("a, b")");
  EXPECT_EQ(CsvQuote(R"(select "x")"), R"("select ""x""")");
  EXPECT_EQ(CsvQuote(R"(")"), R"("""")");
}

TEST(ArtifactTest, NumberAndIntegerTokens) {
  EXPECT_EQ(FormatNumber(0), "0");
  EXPECT_EQ(FormatNumber(1.5), "1.5");
  EXPECT_EQ(FormatNumber(1.0 / 3), "0.333333333");
  EXPECT_EQ(FormatNumber(123456789012.0), "1.23456789e+11");
  EXPECT_EQ(FormatNumber(-2.5e-7), "-2.5e-07");
  EXPECT_EQ(FormatFixed(2.5, 3), "2.500");
  EXPECT_EQ(FormatFixed(1.0 / 3, 4), "0.3333");
  // No length cap: 71 integer digits, the point and two decimals.
  EXPECT_EQ(FormatFixed(1e70, 2).size(), 74u);
  EXPECT_EQ(FormatUint(0), "0");
  EXPECT_EQ(FormatUint(18446744073709551615ull), "18446744073709551615");
}

TEST(ArtifactTest, WriteFileAndReadFileRoundTripAndReportFailures) {
  const std::string path = testing::TempDir() + "artifact_test.txt";
  const std::string content("{\"k\": 1}\n\0tail", 14);
  ASSERT_TRUE(WriteFile(path, content).ok());
  Result<std::string> back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, content);
  std::remove(path.c_str());

  const std::string missing = testing::TempDir() + "no/such/dir/x.json";
  const Status open_failed = WriteFile(missing, "{}\n");
  EXPECT_EQ(open_failed.code(), StatusCode::kInternal);
  EXPECT_EQ(open_failed.message(), "cannot write " + missing);
  // Opens fine; the bytes fail when they reach the device.
  EXPECT_EQ(WriteFile("/dev/full", "{}\n").message(),
            "cannot write /dev/full");
  EXPECT_EQ(ReadFile(missing).status().message(), "cannot read " + missing);
}

TEST(MetricsTest, JsonMembersOmitZeroCountersInTableOrder) {
  Metrics m;
  EXPECT_EQ(MetricsJsonMembers(m, JsonSpacing::kSpaced), "");
  m.rpc_count = 7;
  m.disk_reads = 3;
  m.recluster_io_ns = 12345678901234ull;
  EXPECT_EQ(MetricsJsonMembers(m, JsonSpacing::kSpaced),
            R"("disk_reads": 3, "rpc_count": 7, )"
            R"("recluster_io_ns": 12345678901234)");
  EXPECT_EQ(MetricsJsonMembers(m, JsonSpacing::kCompact),
            R"("disk_reads":3,"rpc_count":7,"recluster_io_ns":12345678901234)");
}

TEST(MetricsTest, FieldTableCoversTheWholeStruct) {
  const auto& table = MetricsFieldTable();
  // One entry per uint64_t; the static_assert in metrics.cc keeps the count
  // in sync when fields are added.
  EXPECT_EQ(table.size() * sizeof(uint64_t), sizeof(Metrics));
  std::set<std::string> names;
  std::set<const uint64_t*> members;
  Metrics probe;
  for (const auto& f : table) {
    names.insert(f.name);
    members.insert(&(probe.*(f.member)));
  }
  EXPECT_EQ(names.size(), table.size());    // no duplicate names
  EXPECT_EQ(members.size(), table.size());  // no duplicate members
}

TEST(MetricsTest, DiffSubtractsEveryField) {
  const auto& table = MetricsFieldTable();
  Metrics before, after;
  uint64_t v = 1;
  for (const auto& f : table) {
    before.*(f.member) = v;
    after.*(f.member) = 3 * v;
    v += 7;
  }
  Metrics delta = after.Diff(before);
  Metrics delta2 = after - before;  // operator- is Diff
  v = 1;
  for (const auto& f : table) {
    EXPECT_EQ(delta.*(f.member), 2 * v) << f.name;
    EXPECT_EQ(delta2.*(f.member), 2 * v) << f.name;
    v += 7;
  }
}

TEST(MetricsTest, PlusEqualsAccumulatesAndDiffInverts) {
  const auto& table = MetricsFieldTable();
  Metrics acc, inc;
  uint64_t v = 5;
  for (const auto& f : table) {
    inc.*(f.member) = v;
    v += 3;
  }
  acc += inc;
  acc += inc;
  v = 5;
  for (const auto& f : table) {
    EXPECT_EQ(acc.*(f.member), 2 * v) << f.name;
    v += 3;
  }
  Metrics back = acc.Diff(inc);
  v = 5;
  for (const auto& f : table) {
    EXPECT_EQ(back.*(f.member), v) << f.name;
    v += 3;
  }
}

}  // namespace
}  // namespace treebench
