#include "src/stats/stat_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace treebench {
namespace {

StatRecord MakeRecord(const std::string& algo, double seconds,
                      double sel_pat, double sel_prov,
                      const std::string& cluster = "class") {
  StatRecord r;
  r.database = "derby-2kx1000";
  r.cluster = cluster;
  r.algo = algo;
  r.query_text = "select ...";
  r.selectivity_patients_pct = sel_pat;
  r.selectivity_providers_pct = sel_prov;
  r.elapsed_seconds = seconds;
  return r;
}

TEST(StatStoreTest, AddAssignsIds) {
  StatStore store;
  int a = store.Add(MakeRecord("NL", 100, 10, 10));
  int b = store.Add(MakeRecord("PHJ", 90, 10, 10));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StatStoreTest, SelectFilters) {
  StatStore store;
  store.Add(MakeRecord("NL", 100, 10, 10));
  store.Add(MakeRecord("PHJ", 90, 10, 10));
  store.Add(MakeRecord("NL", 1500, 90, 90));
  auto nls = store.Select(
      [](const StatRecord& r) { return r.algo == "NL"; });
  EXPECT_EQ(nls.size(), 2u);
  auto fast = store.Select(
      [](const StatRecord& r) { return r.elapsed_seconds < 95; });
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0]->algo, "PHJ");
}

TEST(StatStoreTest, WinnersPickFastestPerGroup) {
  StatStore store;
  store.Add(MakeRecord("NL", 100, 10, 10));
  store.Add(MakeRecord("PHJ", 90, 10, 10));
  store.Add(MakeRecord("CHJ", 95, 10, 10));
  store.Add(MakeRecord("NL", 1500, 90, 90));
  store.Add(MakeRecord("PHJ", 1900, 90, 90));
  auto winners = store.WinnersByGroup();
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0]->algo, "PHJ");  // (10,10)
  EXPECT_EQ(winners[1]->algo, "NL");   // (90,90)
}

TEST(StatStoreTest, FillFromMetrics) {
  Metrics m;
  m.client_cache_misses = 500;
  m.client_cache_hits = 1500;
  m.disk_reads = 400;
  m.rpc_count = 500;
  m.rpc_bytes = 500 * 4096;
  m.swap_ios = 7;
  StatRecord r;
  r.FillFrom(m, 12.5);
  EXPECT_EQ(r.cc_page_faults, 500u);
  EXPECT_EQ(r.d2sc_read_pages, 400u);
  EXPECT_EQ(r.rpcs_number, 500u);
  EXPECT_DOUBLE_EQ(r.elapsed_seconds, 12.5);
  EXPECT_DOUBLE_EQ(r.cc_miss_rate_pct, 25.0);
  EXPECT_EQ(r.swap_ios, 7u);
}

TEST(StatStoreTest, CsvExportRoundTrips) {
  StatStore store;
  store.Add(MakeRecord("NL", 100.25, 10, 10));
  store.Add(MakeRecord("PHJ", 90.5, 10, 90));
  std::string path = ::testing::TempDir() + "/stats.csv";
  ASSERT_TRUE(store.ExportCsv(path).ok());
  std::ifstream in(path);
  std::string header, row1, row2, extra;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row1)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row2)));
  EXPECT_FALSE(static_cast<bool>(std::getline(in, extra)));
  EXPECT_EQ(header, StatRecord::CsvHeader());
  EXPECT_NE(row1.find("NL"), std::string::npos);
  EXPECT_NE(row1.find("100.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StatStoreTest, WorkloadFieldsDefaultToSingleClient) {
  StatRecord r = MakeRecord("NL", 100, 10, 10);
  EXPECT_EQ(r.num_clients, 1u);
  EXPECT_DOUBLE_EQ(r.throughput_qps, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_p95_s, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_p99_s, 0.0);
}

TEST(StatStoreTest, WorkloadFieldsRoundTripThroughCsv) {
  StatRecord r = MakeRecord("workload", 42.5, 2, 10);
  r.num_clients = 16;
  r.throughput_qps = 12.5;
  r.latency_p50_s = 0.25;
  r.latency_p95_s = 1.5;
  r.latency_p99_s = 3.125;
  StatStore store;
  store.Add(r);

  const std::string header = StatRecord::CsvHeader();
  EXPECT_NE(header.find("num_clients"), std::string::npos);
  EXPECT_NE(header.find("throughput_qps"), std::string::npos);
  EXPECT_NE(header.find("latency_p50_s"), std::string::npos);
  EXPECT_NE(header.find("latency_p95_s"), std::string::npos);
  EXPECT_NE(header.find("latency_p99_s"), std::string::npos);
  // Column counts must agree between header and rows.
  auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(store.records()[0].ToCsvRow()));

  std::string path = ::testing::TempDir() + "/workload_stats.csv";
  ASSERT_TRUE(store.ExportCsv(path).ok());
  std::ifstream in(path);
  std::string got_header, row;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, got_header)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row)));
  EXPECT_EQ(got_header, header);
  EXPECT_NE(row.find(",16,12.500,0.2500,1.5000,3.1250"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StatStoreTest, CsvRowKeepsEveryColumnOfALongQuery) {
  StatRecord r = MakeRecord("NL", 12.5, 2, 10);
  r.query_text = std::string(1100, 'q');
  r.num_clients = 16;
  r.latency_p99_s = 3.125;
  const std::string row = r.ToCsvRow();
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 24);
  EXPECT_NE(row.find(",\"" + r.query_text + "\",1,"), std::string::npos);
  EXPECT_TRUE(row.ends_with(",16,0.000,0.0000,0.0000,3.1250")) << row;
}

TEST(StatStoreTest, CsvRowQuotesTheQueryPerRfc4180) {
  StatRecord r = MakeRecord("NL", 12.5, 2, 10);
  r.query_text = "select \"x\"";
  EXPECT_NE(r.ToCsvRow().find(",\"select \"\"x\"\"\",1,"),
            std::string::npos)
      << r.ToCsvRow();
}

TEST(StatStoreTest, GnuplotExportPivots) {
  StatStore store;
  store.Add(MakeRecord("NL", 100, 10, 10));
  store.Add(MakeRecord("PHJ", 90, 10, 10));
  store.Add(MakeRecord("NL", 1500, 90, 10));
  store.Add(MakeRecord("PHJ", 925, 90, 10));
  std::string path = ::testing::TempDir() + "/plot.dat";
  ASSERT_TRUE(store
                  .ExportGnuplot(path, [](const StatRecord& r) {
                    return r.selectivity_providers_pct == 10;
                  })
                  .ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string content = ss.str();
  EXPECT_NE(content.find("# sel_patients_pct NL PHJ"), std::string::npos);
  EXPECT_NE(content.find("10 100.00 90.00"), std::string::npos);
  EXPECT_NE(content.find("90 1500.00 925.00"), std::string::npos);
  std::remove(path.c_str());
}

// User text in a record (the query) reaches the JSON export escaped.
TEST(StatStoreTest, JsonExportEscapesStrings) {
  StatStore store;
  StatRecord r = MakeRecord("NL", 1.5, 10, 10);
  r.query_text = "select \"a\\b\"\n\tx";
  store.Add(r);
  const std::string json = store.ToJson();
  EXPECT_NE(json.find(R"("query": "select \"a\\b\"\n\u0009x")"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"elapsed_seconds\": 1.5, "), std::string::npos);
}

// /dev/full opens fine and fails when the bytes reach it: every export
// must report that instead of claiming success.
TEST(StatStoreTest, ExportsReportAFailedWrite) {
  StatStore store;
  store.Add(MakeRecord("NL", 100, 10, 10));
  const Status csv = store.ExportCsv("/dev/full");
  EXPECT_FALSE(csv.ok());
  EXPECT_EQ(csv.message(), "cannot write /dev/full");
  EXPECT_FALSE(store.ExportJson("/dev/full").ok());
  EXPECT_FALSE(
      store.ExportGnuplot("/dev/full", [](const StatRecord&) { return true; })
          .ok());
}

}  // namespace
}  // namespace treebench
