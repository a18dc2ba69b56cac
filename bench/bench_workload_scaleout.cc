// Multi-client scale-out: runs the workload simulator (src/workload) over
// the 2,000 x ~1,000 Derby database for client counts 1, 2, 4, ... 64 on
// the class-clustered and composition-clustered organizations, and reports
// throughput, latency percentiles, queueing delay at the shared server, and
// fairness. Before each sweep it proves the 1-client degenerate case: a
// one-query workload must reproduce the plain single-client query path's
// Metrics counter-for-counter with zero rpc_queue_wait_ns (a hard check —
// the bench fails otherwise).
//
// Expected shape: throughput grows sublinearly with clients (the single
// simulated server saturates and rpc_queue_wait_ns grows), while the shared
// server cache gives skewed (Zipf) workloads fewer disk reads per client
// than N independent cold runs would pay.
//
// The sweep is enumerated as hermetic bench cells — one (clustering x
// client-count) unit, each building its own database — executed on the
// cell-runner pool (docs/parallel_harness.md) and merged in submission
// order, so output and artifacts are byte-identical at any --jobs value.
//
// Extra flags (beyond the common --scale/--csv and the harness's --jobs=N):
//   --clients=N          cap/select the swept client counts (runs {1, N})
//   --queries=N          measured queries per client (default 8; smoke 3)
//   --json=PATH          deterministic JSON array of every WorkloadReport
//   --telemetry-dir=DIR  per swept run, write the virtual-time telemetry:
//                        <cluster>_c<N>.timeseries.{csv,jsonl}, a Perfetto
//                        trace <cluster>_c<N>.chrome.json (open it at
//                        ui.perfetto.dev), and flamegraph folded stacks
//                        <cluster>_c<N>.folded
//   --summary-json=PATH  flat {"key": number} summary of every swept run —
//                        the format bench/check_regression diffs against
//                        bench/baselines/*.json
//   --query-log-dir=DIR  per swept run, enable the query flight recorder
//                        (docs/observability.md) and write
//                        <cluster>_c<N>.querylog.{jsonl,csv} (one record per
//                        completed query: counter delta, causal wait
//                        breakdown, shards touched) plus the tail-latency
//                        attribution report <cluster>_c<N>.tail.txt
//   --scale=0            smoke mode: tiny database (scale 64), counts {1, 4
//                        or --clients}, 3 queries/client — the CI config.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/cost/trace.h"
#include "src/query/executor.h"
#include "src/query/oql/parser.h"
#include "src/telemetry/regression.h"
#include "src/telemetry/trace_export.h"
#include "src/workload/client_session.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

WorkloadSpec SweepSpec(uint32_t clients, uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.6;          // head-heavy: shared server cache pays off
  spec.tree_query_fraction = 0.2;
  spec.selection_pct = 2;
  spec.tree_child_sel_pct = 10;
  spec.tree_parent_sel_pct = 10;
  spec.think_time_ns = 0;         // closed loop, maximum contention
  spec.cold_start = true;
  spec.seed = 42;
  return spec;
}

/// Proves the degenerate case: a 1-client 1-query workload produces exactly
/// the Metrics of the plain single-client path (BeginMeasuredRun +
/// RunBoundPlan) on the same query, with zero queueing. Returns false (and
/// prints the first differing counter) on mismatch.
bool CheckOneClientExact(DerbyDb& derby) {
  WorkloadSpec spec = SweepSpec(/*clients=*/1, /*queries=*/1);
  spec.cold_per_query = true;  // the paper's per-query cold methodology

  // The session's first generated query, replayed deterministically.
  std::string oql;
  {
    ClientSession probe(0, spec, derby);
    oql = probe.NextQuery().oql;
  }

  const WorkloadReport report = OrDie(RunWorkload(&derby, spec), "workload");

  // Reference: the pre-existing single-client path on the identical query.
  Database* db = derby.db.get();
  auto ast = oql::Parse(oql);
  if (!ast.ok()) return false;
  auto bound = Bind(db, *ast);
  if (!bound.ok()) return false;
  auto plan = ChoosePlan(db, *bound, spec.strategy);
  if (!plan.ok()) return false;
  if (!db->BeginMeasuredRun().ok()) return false;
  auto run = RunBoundPlan(db, *bound, *plan, /*cold=*/false);
  if (!run.ok()) return false;

  bool exact = true;
  for (const MetricsField& f : MetricsFieldTable()) {
    const uint64_t got = report.totals.*(f.member);
    const uint64_t want = run->metrics.*(f.member);
    if (got != want) {
      std::fprintf(stderr, "1-client mismatch: %s workload=%llu single=%llu\n",
                   f.name, (unsigned long long)got,
                   (unsigned long long)want);
      exact = false;
    }
  }
  if (report.totals.rpc_queue_wait_ns != 0) {
    std::fprintf(stderr, "1-client run queued (%llu ns) — must be 0\n",
                 (unsigned long long)report.totals.rpc_queue_wait_ns);
    exact = false;
  }
  std::fprintf(Out(), "1-client exactness check: %s (query: %s)\n",
               exact ? "PASS" : "FAIL", oql.c_str());
  return exact;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.smoke) opts.scale = kSmokeScale;
  const uint32_t flag_clients = UintFlag(argc, argv, "--clients=");
  const uint32_t flag_queries = UintFlag(argc, argv, "--queries=");
  const uint32_t queries = flag_queries > 0 ? flag_queries
                           : opts.smoke     ? 3
                                            : 8;

  std::vector<uint32_t> counts;
  if (flag_clients > 0) {
    counts = {1, flag_clients};
  } else if (opts.smoke) {
    counts = {1, 4};
  } else {
    counts = {1, 2, 4, 8, 16, 32, 64};
  }

  const std::vector<ClusteringStrategy> clusterings = {
      ClusteringStrategy::kClassClustered, ClusteringStrategy::kComposition};

  // Cell enumeration: per clustering, one 1-client exactness gate cell plus
  // one sweep cell per client count. Every cell builds its own database
  // (the sweeps run cold_start, so a fresh build reproduces the shared-
  // database counters exactly).
  BenchCells cells(opts.jobs);
  // One out-slot per (clustering x client-count) sweep cell. Each slot is
  // written by exactly one cell; the main thread reads them only after the
  // pool drains, and skips the slot of a cell that failed.
  std::vector<std::vector<WorkloadRun>> sweeps(clusterings.size());
  for (auto& per_cluster : sweeps) per_cluster.resize(counts.size());
  std::vector<std::vector<size_t>> sweep_cells(
      clusterings.size(), std::vector<size_t>(counts.size()));

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const ClusteringStrategy clustering = clusterings[ci];
    const std::string cluster_label = std::string(ClusteringName(clustering));
    cells.Add("gate_" + cluster_label, [&, clustering] {
      auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
      return CheckOneClientExact(*derby) ? 0 : 1;
    });
    for (size_t ni = 0; ni < counts.size(); ++ni) {
      const uint32_t n = counts[ni];
      const std::string run_label = cluster_label + "_c" + std::to_string(n);
      sweep_cells[ci][ni] = cells.Add(run_label, [&, ci, ni, n, clustering,
                                                  run_label] {
        auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
        WorkloadRun& out = sweeps[ci][ni];
        const bool want_telemetry = !opts.telemetry_dir.empty();
        WorkloadTelemetry tel;
        // Folded stacks come from the span tree, so a trace session wraps
        // the run when telemetry is requested (neither changes any counter).
        std::unique_ptr<TraceSession> trace_session;
        if (want_telemetry) {
          trace_session = std::make_unique<TraceSession>(&derby->db->sim());
        }
        WorkloadSpec sweep_spec = SweepSpec(n, queries);
        // The flight recorder is a pure observer: counters and latencies
        // are identical with and without it (test-enforced), so enabling it
        // for the artifact export does not perturb the sweep.
        if (!opts.query_log_dir.empty()) sweep_spec.query_log = true;
        RunWorkloadInto(derby.get(), sweep_spec,
                        "workload (" + std::to_string(n) + " clients)", &out,
                        want_telemetry ? &tel : nullptr);
        const WorkloadReport& report = out.report;
        bool files_ok = true;
        if (want_telemetry) {
          const std::string base = opts.telemetry_dir + "/" + run_label;
          files_ok =
              WriteTextFile(base + ".timeseries.csv", tel.series.ToCsv()) &&
              files_ok;
          files_ok = WriteTextFile(base + ".timeseries.jsonl",
                                     tel.series.ToJsonl()) &&
                     files_ok;
          files_ok = WriteTextFile(base + ".chrome.json",
                                     tel.ChromeTraceJson()) &&
                     files_ok;
          std::unique_ptr<TraceNode> span_root = trace_session->Take();
          files_ok =
              WriteTextFile(base + ".folded",
                              span_root != nullptr
                                  ? telemetry::TraceToFoldedStacks(*span_root)
                                  : std::string()) &&
              files_ok;
          std::fprintf(Out(),
                       "telemetry: %s.{timeseries.csv,timeseries.jsonl,"
                       "chrome.json,folded} (%zu samples, %zu slices)\n",
                       base.c_str(), tel.series.num_samples(),
                       tel.query_slices.size());
        }
        if (!opts.query_log_dir.empty()) {
          const std::string base = opts.query_log_dir + "/" + run_label;
          files_ok = WriteTextFile(base + ".querylog.jsonl",
                                     report.query_log.ToJsonl()) &&
                     files_ok;
          files_ok = WriteTextFile(base + ".querylog.csv",
                                     report.query_log.ToCsv()) &&
                     files_ok;
          files_ok =
              WriteTextFile(base + ".tail.txt", report.tail.ToString()) &&
              files_ok;
          std::fprintf(Out(),
                       "query log: %s.{querylog.jsonl,querylog.csv,tail.txt} "
                       "(%zu records)\n",
                       base.c_str(), report.query_log.records().size());
        }
        return files_ok ? 0 : 1;
      });
    }
  }
  const bool cells_ok = cells.RunAll();

  // Merge on the main thread, in enumeration order: tables, summary keys,
  // stat records, and the report JSON array come out exactly as the
  // sequential program produced them.
  StatStore stats;
  telemetry::FlatRun summary;
  std::string json = "[\n";
  bool first_json = true;

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const std::string cluster_label =
        std::string(ClusteringName(clusterings[ci]));

    std::vector<std::vector<std::string>> rows;
    double qps1 = 0;
    for (size_t ni = 0; ni < counts.size(); ++ni) {
      const uint32_t n = counts[ni];
      if (!cells.Passed(sweep_cells[ci][ni])) continue;
      const WorkloadRun& out = sweeps[ci][ni];
      const WorkloadReport& report = out.report;
      const std::string run_label = cluster_label + "_c" + std::to_string(n);
      if (!opts.summary_json.empty()) {
        const Metrics& t = report.totals;
        summary.Set(run_label + "_total_queries",
                    static_cast<double>(report.total_queries));
        summary.Set(run_label + "_disk_reads",
                    static_cast<double>(t.disk_reads));
        summary.Set(run_label + "_rpc_count",
                    static_cast<double>(t.rpc_count));
        summary.Set(run_label + "_handle_gets",
                    static_cast<double>(t.handle_gets));
        summary.Set(run_label + "_client_cache_evictions",
                    static_cast<double>(t.client_cache_evictions));
        summary.Set(run_label + "_server_cache_evictions",
                    static_cast<double>(t.server_cache_evictions));
        summary.Set(run_label + "_span_seconds", report.span_seconds);
        summary.Set(run_label + "_throughput_qps", report.throughput_qps);
        summary.Set(run_label + "_p50_s",
                    report.latencies.Quantile(0.50) / 1e9);
        summary.Set(run_label + "_p95_s",
                    report.latencies.Quantile(0.95) / 1e9);
        summary.Set(run_label + "_p99_s",
                    report.latencies.Quantile(0.99) / 1e9);
        summary.Set(run_label + "_queue_wait_s",
                    static_cast<double>(t.rpc_queue_wait_ns) / 1e9);
      }
      if (n == 1) qps1 = report.throughput_qps;
      const double speedup = qps1 > 0 ? report.throughput_qps / qps1 : 0;
      rows.push_back(
          {WithThousands(n), FormatSeconds(report.throughput_qps, 3),
           FormatSeconds(speedup, 2),
           FormatSeconds(report.latencies.Quantile(0.50) / 1e9),
           FormatSeconds(report.latencies.Quantile(0.95) / 1e9),
           FormatSeconds(report.latencies.Quantile(0.99) / 1e9),
           FormatSeconds(
               static_cast<double>(report.totals.rpc_queue_wait_ns) / 1e9),
           FormatSeconds(report.server_utilization, 3),
           FormatSeconds(report.fairness_ratio, 3),
           WithThousands(report.totals.disk_reads)});

      StatRecord rec = WorkloadStatRecord(out);
      rec.database = "derby-2e3x1e3";
      rec.cluster = cluster_label;
      rec.algo = "workload";
      rec.query_text = "mixed selection/tree workload (zipf 0.6)";
      stats.Add(rec);

      if (!first_json) json += ",\n";
      json += report.ToJson();
      first_json = false;
    }
    PrintTable(
        cluster_label + " — scale-out (simulated, " +
            std::to_string(queries) + " queries/client)",
        {"clients", "qps", "speedup", "p50(s)", "p95(s)", "p99(s)",
         "queue wait(s)", "server util", "fairness", "disk reads"},
        rows);
  }
  json += "]\n";

  std::printf(
      "\nexpected: sublinear speedup (single server saturates; queue wait "
      "grows with clients) while zipf sharing keeps per-client disk reads "
      "below N independent cold runs\n");

  if (!opts.json_path.empty()) {
    if (!WriteTextFile(opts.json_path, json)) return 1;
    std::printf("wrote workload reports to %s\n", opts.json_path.c_str());
  }
  if (!opts.summary_json.empty()) {
    if (!WriteTextFile(opts.summary_json, summary.ToJson())) return 1;
    std::printf("wrote run summary to %s\n", opts.summary_json.c_str());
  }
  ExportStats(stats, opts);
  return cells_ok ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
