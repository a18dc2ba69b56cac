// bench/common's shared command line and artifact writer: ParseArgs owns
// every flag that more than one bench reads, so each flag behaves the same
// on every bench.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "gtest/gtest.h"

namespace treebench::bench {
namespace {

/// Calls f(argc, argv) on a mutable argv {"bench", args...}.
template <typename F>
auto WithArgv(std::vector<std::string> args, F f) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return f(static_cast<int>(argv.size()), argv.data());
}

BenchOptions Parse(std::vector<std::string> args) {
  return WithArgv(std::move(args), ParseArgs);
}

uint32_t Uint(std::vector<std::string> args, const char* prefix) {
  return WithArgv(std::move(args), [prefix](int argc, char** argv) {
    return UintFlag(argc, argv, prefix);
  });
}

TEST(BenchArgsTest, DefaultsArePaperScaleWithNoArtifacts) {
  BenchOptions o = Parse({});
  EXPECT_EQ(o.scale, 1u);
  EXPECT_FALSE(o.scale_given);
  EXPECT_FALSE(o.smoke);
  EXPECT_TRUE(o.summary_json.empty());
  EXPECT_TRUE(o.json_path.empty());
  EXPECT_TRUE(o.telemetry_dir.empty());
  EXPECT_TRUE(o.query_log_dir.empty());
}

TEST(BenchArgsTest, ArtifactFlagsSetTheirPaths) {
  BenchOptions o = Parse({"--summary-json=s.json", "--json=r.json",
                          "--telemetry-dir=tel", "--query-log-dir=ql",
                          "--stats-json=st.json", "--csv=c.csv"});
  EXPECT_EQ(o.summary_json, "s.json");
  EXPECT_EQ(o.json_path, "r.json");
  EXPECT_EQ(o.telemetry_dir, "tel");
  EXPECT_EQ(o.query_log_dir, "ql");
  EXPECT_EQ(o.stats_json_path, "st.json");
  EXPECT_EQ(o.csv_path, "c.csv");
}

// Exactly "--scale=0" is smoke mode; every value below 1, including garbage,
// clamps to 1; any --scale= flag counts as given.
TEST(BenchArgsTest, ScaleSmokeModeAndClamping) {
  struct Case {
    const char* arg;
    uint32_t scale;
    bool smoke;
  };
  const Case cases[] = {
      {"--scale=0", 1, true},    {"--scale=00", 1, false},
      {"--scale=1", 1, false},   {"--scale=8", 8, false},
      {"--scale=abc", 1, false}, {"--scale=-3", 1, false},
      {"--scale=", 1, false},
  };
  for (const Case& c : cases) {
    BenchOptions o = Parse({c.arg});
    EXPECT_EQ(o.scale, c.scale) << c.arg;
    EXPECT_EQ(o.smoke, c.smoke) << c.arg;
    EXPECT_TRUE(o.scale_given) << c.arg;
  }
}

TEST(BenchArgsTest, UnknownFlagsAreIgnored) {
  BenchOptions o = Parse({"--clients=4", "--bogus", "positional",
                          "--benchmark_filter=BM_Crc32", "--scale=2"});
  EXPECT_EQ(o.scale, 2u);
  EXPECT_TRUE(o.summary_json.empty());
  EXPECT_TRUE(o.json_path.empty());
}

TEST(BenchArgsTest, UintFlagReadsTheLastOccurrence) {
  const std::vector<std::string> args = {"--clients=4", "--queries=3",
                                         "--clients=9", "--servers=x"};
  EXPECT_EQ(Uint(args, "--clients="), 9u);
  EXPECT_EQ(Uint(args, "--queries="), 3u);
  EXPECT_EQ(Uint(args, "--servers="), 0u);
  EXPECT_EQ(Uint(args, "--jobs="), 0u);

  // Only a plain decimal in [1, 2^32-1] counts; anything else is absent.
  EXPECT_EQ(Uint({"--clients=-1"}, "--clients="), 0u);
  EXPECT_EQ(Uint({"--clients=4294967296"}, "--clients="), 0u);
  EXPECT_EQ(Uint({"--clients=12abc"}, "--clients="), 0u);
  EXPECT_EQ(Uint({"--clients="}, "--clients="), 0u);
  EXPECT_EQ(Uint({"--clients=0"}, "--clients="), 0u);
  EXPECT_EQ(Uint({"--clients=4294967295"}, "--clients="), 4294967295u);
  EXPECT_EQ(Uint({"--clients=7", "--clients=-1"}, "--clients="), 7u);
}

// The last --jobs=N with 1 <= N <= 1023 wins; anything else falls through
// to TREEBENCH_JOBS, then to the hardware thread count.
TEST(BenchArgsTest, JobsFlagResolvesThroughCellRunner) {
  const uint32_t fallback = CellRunner::ResolveJobs(0);
  EXPECT_EQ(Parse({}).jobs, fallback);
  EXPECT_EQ(Parse({"--jobs=4"}).jobs, 4u);
  EXPECT_EQ(Parse({"--jobs=0"}).jobs, fallback);
  EXPECT_EQ(Parse({"--jobs=abc"}).jobs, fallback);
  EXPECT_EQ(Parse({"--jobs=5000"}).jobs, fallback);
  EXPECT_EQ(Parse({"--jobs=1023"}).jobs, 1023u);
  EXPECT_EQ(Parse({"--jobs=4", "--jobs=2"}).jobs, 2u);
  EXPECT_EQ(Parse({"--jobs=4", "--jobs=0"}).jobs, 4u);

  const char* env = std::getenv("TREEBENCH_JOBS");
  const std::string saved = env != nullptr ? env : "";
  ASSERT_EQ(setenv("TREEBENCH_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(Parse({"--jobs=0"}).jobs, 3u);
  EXPECT_EQ(Parse({"--jobs=4"}).jobs, 4u);
  if (env != nullptr) {
    setenv("TREEBENCH_JOBS", saved.c_str(), 1);
  } else {
    unsetenv("TREEBENCH_JOBS");
  }
}

Result<int> Failed() { return Status::Internal("boom"); }

TEST(OrDieTest, PassesTheValueThrough) {
  EXPECT_EQ(OrDie(Result<int>(7), "seven"), 7);
}

TEST(OrDieDeathTest, ExitsOneWithFatalOnTheMainThread) {
  EXPECT_EXIT(OrDie(Failed(), "step"), testing::ExitedWithCode(1),
              "FATAL: step: Internal: boom");
}

TEST(OrDieTest, ThrowsInsideACell) {
  FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  FILE* prev = SetThreadOut(capture);
  EXPECT_THROW(OrDie(Failed(), "step"), std::runtime_error);
  SetThreadOut(prev);
  std::fclose(capture);
}

// A missing directory fails at open; /dev/full opens and fails when the
// bytes reach it.
TEST(ExportStatsDeathTest, AFailedExportExitsOneWithFatal) {
  const std::string missing_dir = testing::TempDir() + "no/such/dir/";
  for (const std::string& dir : {missing_dir, std::string()}) {
    BenchOptions csv;
    csv.csv_path = dir.empty() ? "/dev/full" : dir + "stats.csv";
    EXPECT_EXIT(ExportStats(StatStore(), csv), testing::ExitedWithCode(1),
                "FATAL: csv export: Internal: cannot write " + csv.csv_path);
    BenchOptions json;
    json.stats_json_path = dir.empty() ? "/dev/full" : dir + "stats.json";
    EXPECT_EXIT(ExportStats(StatStore(), json), testing::ExitedWithCode(1),
                "FATAL: stats json export: Internal: cannot write " +
                    json.stats_json_path);
  }
}

// The perf record is written at exit: a failed write still turns the exit
// status nonzero.
TEST(PerfJsonDeathTest, AFailedWriteAtExitExitsOne) {
  EXPECT_EXIT(
      {
        Parse({"--perf-json=/dev/full"});
        std::exit(0);
      },
      testing::ExitedWithCode(1), "cannot write /dev/full");
}

/// SameReport's stdout line, captured through SetThreadOut.
std::string SameReportLine(const WorkloadReport& a, const WorkloadReport& b,
                           bool* same) {
  char* buf = nullptr;
  size_t len = 0;
  FILE* capture = open_memstream(&buf, &len);
  FILE* prev = SetThreadOut(capture);
  *same = SameReport("gate", a, b);
  SetThreadOut(prev);
  std::fclose(capture);
  std::string line(buf, len);
  std::free(buf);
  return line;
}

TEST(SameReportTest, PrintsPassOrFail) {
  WorkloadReport a;
  WorkloadReport b;
  bool same = false;
  EXPECT_EQ(SameReportLine(a, b, &same), "gate: PASS\n");
  EXPECT_TRUE(same);
  b.total_queries = 1;
  EXPECT_EQ(SameReportLine(a, b, &same), "gate: FAIL\n");
  EXPECT_FALSE(same);
}

TEST(WriteTextFileTest, WritesContentAndReportsFailure) {
  const std::string path = testing::TempDir() + "bench_common_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "{\"k\": 1}\n"));
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "{\"k\": 1}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile(testing::TempDir() + "no/such/dir/x.json", ""));
  // Opens fine, fails when the buffered bytes are flushed at close.
  EXPECT_FALSE(WriteTextFile("/dev/full", "{}\n"));
}

}  // namespace
}  // namespace treebench::bench
