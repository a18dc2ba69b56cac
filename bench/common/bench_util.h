#ifndef TREEBENCH_BENCH_COMMON_BENCH_UTIL_H_
#define TREEBENCH_BENCH_COMMON_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/harness/cell_runner.h"
#include "src/stats/stat_store.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {

/// Command-line options shared by all paper-reproduction benches.
struct BenchOptions {
  /// Divides paper-scale cardinalities (and the modeled RAM/caches) by this
  /// factor. 1 = paper scale.
  uint32_t scale = 1;
  /// Optional CSV output path ("" = stdout tables only).
  std::string csv_path;
  /// Optional JSON output path for the bench's StatStore records ("" = no
  /// JSON). run_benches.sh points every bench at bench_json/<name>.json and
  /// consolidates them into BENCH_results.json.
  std::string stats_json_path;
  /// Optional path for the EXPLAIN ANALYZE JSON trace of the bench's runs
  /// ("" = no trace export). Benches that support it document what they
  /// write; CI uploads fig09's as an artifact.
  std::string trace_json_path;
  /// Optional path for the bench's host-side performance record ("" = no
  /// export): `{"wall_seconds": ..., "peak_rss_kb": ...}` plus — for benches
  /// driven through BenchCells — `"jobs"`, `"cells"`, `"pool_occupancy"`,
  /// and a per-cell wall-clock map; written at process exit (atexit — no
  /// per-bench plumbing needed). run_benches.sh points every bench at
  /// bench_json/<name>_perf.json, so the consolidated BENCH_results.json
  /// carries the wall-clock/RSS trajectory that gates the parallel harness
  /// (ROADMAP item 5a, docs/parallel_harness.md).
  std::string perf_json_path;
  bool verbose = false;
  /// True for an exact --scale=0: smoke mode. `scale` is still clamped to
  /// 1; the extension benches that define a smoke config switch to
  /// kSmokeScale (and their smaller sweeps) themselves.
  bool smoke = false;
  /// True when any --scale= flag was given, so benches whose default is
  /// not paper scale can tell "--scale=1" from no flag at all.
  bool scale_given = false;
  /// Optional path for a flat {"key": number} run summary — the format
  /// bench/check_regression diffs against bench/baselines/*.json.
  std::string summary_json;
  /// Optional path for a deterministic JSON array of the bench's
  /// WorkloadReports.
  std::string json_path;
  /// Optional directories for per-run workload telemetry and query logs.
  std::string telemetry_dir;
  std::string query_log_dir;
  /// Worker count for the bench's cell pool: the last --jobs=N with
  /// 1 <= N <= 1023, else TREEBENCH_JOBS, else the hardware thread count
  /// (CellRunner::ResolveJobs).
  uint32_t jobs = 1;
};

/// The database scale of every extension bench's --scale=0 smoke config.
inline constexpr uint32_t kSmokeScale = 64;

/// Parses --scale=N, --jobs=N, --csv=PATH, --stats-json=PATH,
/// --trace-json=PATH, --perf-json=PATH, --summary-json=PATH, --json=PATH,
/// --telemetry-dir=DIR, --query-log-dir=DIR, --verbose; ignores unknown
/// flags (so google-benchmark style flags pass through if ever mixed).
/// --scale values below 1 (and garbage) clamp to 1. --perf-json also starts
/// the wall-clock timer and registers the exit-time writer.
BenchOptions ParseArgs(int argc, char** argv);

/// The value of the last `prefix`N flag (e.g. prefix "--clients=") whose N
/// is a plain decimal in [1, 2^32-1]; 0 when there is none. Anything else
/// ("-1", "12abc", "4294967296", an empty value) reads as absent, as
/// --jobs garbage does. For the flags only one bench understands.
uint32_t UintFlag(int argc, char** argv, const char* prefix);

/// Writes `content` to `path`. When the file cannot be opened, written or
/// closed, prints "cannot write PATH" to stderr and returns false.
bool WriteTextFile(const std::string& path, const std::string& content);

/// Prints a ruled table: header row then rows; columns auto-sized.
void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

/// Formats "x1.23" style ratios as the paper's tables do.
std::string Ratio(double value, double best);

/// The numbers a failed gate compared, "(A s vs B s, +G %)": G is how much
/// `a_s` exceeds `b_s`, e.g. the expected run's seconds over the winner's.
std::string Versus(double a_s, double b_s);

/// A gated bench's last step: flushes stdout, prints each gate failure (one
/// "FAIL ..." line per missed check) to stderr, and returns the bench's exit
/// status, 1 when any check missed.
int ReportGates(const std::vector<std::string>& failures);

/// The one failure path of a bench: on the main thread prints
/// "FATAL: <what>: <status>" to stderr and exits 1; inside a cell body
/// (Out() is the cell's capture) throws instead, because exiting from a
/// worker thread is unsafe — the cell runner rethrows the error on the main
/// thread after the pool drains.
[[noreturn]] void Die(const std::string& what, const Status& status);

/// The value of `result`, or Die(what, status) when it holds an error.
template <typename T>
T OrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

/// The identity gate over two workload reports: prints "<label>: PASS" or
/// "<label>: FAIL" to Out() and, on FAIL, the first differing byte of the
/// two report JSONs to stderr. Returns true when the reports are identical.
bool SameReport(const std::string& label, const WorkloadReport& a,
                const WorkloadReport& b);

/// Builds a Derby database for a bench, printing progress to bench::Out()
/// (virtual-time figures only, so the message is byte-stable across hosts
/// and --jobs values). Seconds reported by subsequent runs are multiplied
/// by `opts.scale` for comparison against paper-scale numbers (the machine
/// is scaled with the data, so costs scale ~linearly). A failed build goes
/// through Die().
std::unique_ptr<DerbyDb> BuildDerbyOrDie(uint64_t providers,
                                         uint32_t avg_children,
                                         ClusteringStrategy clustering,
                                         const BenchOptions& opts);

/// Records the pool shape of a finished CellRunner (jobs, per-cell
/// wall-clock, occupancy) for the exit-time *_perf.json writer. Called by
/// BenchCells::RunAll(); main thread only.
void RecordHarnessPerf(const CellRunner& runner);

/// One finished workload run, handed from a bench cell to the merge step.
struct WorkloadRun {
  WorkloadReport report;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
};

/// Runs `spec` on `derby` into `out` (the report plus the database's cache
/// sizes). A failed run goes through OrDie(…, what).
void RunWorkloadInto(DerbyDb* derby, const WorkloadSpec& spec,
                     const std::string& what, WorkloadRun* out,
                     WorkloadTelemetry* telemetry = nullptr);

/// The StatRecord fields every workload bench fills alike: client count,
/// throughput, latency percentiles, completed queries, cache sizes and the
/// Metrics totals over the measured span.
StatRecord WorkloadStatRecord(const WorkloadRun& run);

/// Dumps the stat store as CSV to opts.csv_path and as JSON to
/// opts.stats_json_path, each when set. A failed export goes through Die().
void ExportStats(const StatStore& stats, const BenchOptions& opts);

}  // namespace treebench::bench

#endif  // TREEBENCH_BENCH_COMMON_BENCH_UTIL_H_
