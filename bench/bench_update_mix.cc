// Update-transaction mix: sweeps WorkloadSpec::update_ratio over the Derby
// database for the class- and composition-clustered organizations and 1..N
// clients, reporting throughput, latency, lock waiting, undo/redo volume
// and write amplification (docs/transaction_model.md).
//
// Before each sweep it enforces the HARD update_ratio=0 bit-identity gate:
// the ratio-0 workload report must be byte-for-byte identical with and
// without an (idle) TxnManager installed as the cache's page-lock hook. A
// single differing byte — one counter, one latency digit — fails the bench.
//
// Every (clustering x ratio x clients) sweep point is a hermetic bench cell
// with its own freshly built database (committed updates rewrite
// Patients.random_integer in place, so sharing a database would make each
// run's counters depend on which runs came before it — hermetic cells make
// every point independently reproducible AND free to execute on the --jobs
// pool; docs/parallel_harness.md).
//
// Expected shape: throughput degrades as update_ratio grows (updates pay
// extent/index scans plus logging), lock_wait_ns appears only with >= 2
// clients, and undo_bytes stays proportional to the distinct pages each
// transaction dirties while redo_bytes tracks the update count.
//
// Extra flags (beyond the common --scale/--csv/--stats-json and --jobs=N):
//   --clients=N          sweep {1, N} instead of the default counts
//   --queries=N          measured queries per client (default 8; smoke 3)
//   --summary-json=PATH  flat {"key": number} summary of every swept run —
//                        the format bench/check_regression diffs against
//                        bench/baselines/update_mix_smoke.json
//   --scale=0            smoke mode: tiny database (scale 64), 3
//                        queries/client — the CI config.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/telemetry/regression.h"
#include "src/txn/txn_manager.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

WorkloadSpec MixSpec(uint32_t clients, uint32_t queries, double ratio) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.6;  // readers and writers collide on the hot windows
  spec.tree_query_fraction = 0.2;
  spec.update_ratio = ratio;
  spec.selection_pct = 2;
  spec.tree_child_sel_pct = 10;
  spec.tree_parent_sel_pct = 10;
  spec.think_time_ns = 0;
  spec.cold_start = true;
  spec.seed = 42;
  return spec;
}

/// The hard gate: a ratio-0 workload must produce a byte-identical report
/// whether or not an idle TxnManager sits in the page-access path. Builds
/// its own fresh databases so committed updates from other cells cannot
/// leak in.
bool CheckRatioZeroBitIdentity(ClusteringStrategy clustering,
                               const BenchOptions& opts, uint32_t clients,
                               uint32_t queries) {
  WorkloadSpec spec = MixSpec(clients, queries, /*ratio=*/0);

  auto plain_db = BuildDerbyOrDie(2000, 1000, clustering, opts);
  auto plain = OrDie(RunWorkload(plain_db.get(), spec), "ratio-0 run");

  auto hooked_db = BuildDerbyOrDie(2000, 1000, clustering, opts);
  TxnManager idle(hooked_db->db.get());
  TwoLevelCache::LockHookScope idle_hook(&hooked_db->db->cache(), &idle);
  auto hooked = OrDie(RunWorkload(hooked_db.get(), spec), "hooked ratio-0 run");

  return SameReport("ratio-0 bit-identity gate (" +
                        std::string(ClusteringName(clustering)) + ", " +
                        std::to_string(clients) + " clients)",
                    plain, hooked);
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
    counts = {1, 4, 16};
  }
  const std::vector<double> ratios = {0, 0.25, 0.5};

  const std::vector<ClusteringStrategy> clusterings = {
      ClusteringStrategy::kClassClustered, ClusteringStrategy::kComposition};

  BenchCells cells(opts.jobs);
  std::vector<std::vector<WorkloadRun>> sweeps(clusterings.size());
  for (auto& per_cluster : sweeps) {
    per_cluster.resize(ratios.size() * counts.size());
  }

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const ClusteringStrategy clustering = clusterings[ci];
    const std::string cluster_label = std::string(ClusteringName(clustering));
    cells.Add("gate_" + cluster_label, [&, clustering] {
      return CheckRatioZeroBitIdentity(clustering, opts, counts.back(),
                                       queries)
                 ? 0
                 : 1;
    });
    for (size_t ri = 0; ri < ratios.size(); ++ri) {
      for (size_t ni = 0; ni < counts.size(); ++ni) {
        const double ratio = ratios[ri];
        const uint32_t n = counts[ni];
        const size_t slot = ri * counts.size() + ni;
        const std::string run_label =
            cluster_label + "_r" + std::to_string(int(ratio * 100)) + "_c" +
            std::to_string(n);
        cells.Add(run_label, [&, ci, slot, ratio, n, clustering] {
          auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
          WorkloadRun& out = sweeps[ci][slot];
          char what[64];
          std::snprintf(what, sizeof(what), "workload (ratio %.2f, %u clients)",
                        ratio, n);
          RunWorkloadInto(derby.get(), MixSpec(n, queries, ratio), what,
                          &out);
          return 0;
        });
      }
    }
  }
  if (!cells.RunAll()) return 1;

  StatStore stats;
  telemetry::FlatRun summary;

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const std::string cluster_label =
        std::string(ClusteringName(clusterings[ci]));

    std::vector<std::vector<std::string>> rows;
    for (size_t ri = 0; ri < ratios.size(); ++ri) {
      for (size_t ni = 0; ni < counts.size(); ++ni) {
        const double ratio = ratios[ri];
        const uint32_t n = counts[ni];
        const WorkloadRun& out = sweeps[ci][ri * counts.size() + ni];
        const WorkloadReport& report = out.report;
        const Metrics& t = report.totals;
        const std::string run_label =
            cluster_label + "_r" + std::to_string(int(ratio * 100)) + "_c" +
            std::to_string(n);

        if (!opts.summary_json.empty()) {
          summary.Set(run_label + "_total_queries",
                      static_cast<double>(report.total_queries));
          summary.Set(run_label + "_failed_queries",
                      static_cast<double>(report.failed_queries));
          summary.Set(run_label + "_disk_reads",
                      static_cast<double>(t.disk_reads));
          summary.Set(run_label + "_disk_writes",
                      static_cast<double>(t.disk_writes));
          summary.Set(run_label + "_rpc_count",
                      static_cast<double>(t.rpc_count));
          summary.Set(run_label + "_txn_commits",
                      static_cast<double>(t.txn_commits));
          summary.Set(run_label + "_txn_aborts",
                      static_cast<double>(t.txn_aborts));
          summary.Set(run_label + "_deadlocks",
                      static_cast<double>(t.deadlocks));
          summary.Set(run_label + "_lock_waits",
                      static_cast<double>(t.lock_waits));
          summary.Set(run_label + "_logical_updates",
                      static_cast<double>(t.logical_updates));
          summary.Set(run_label + "_undo_bytes",
                      static_cast<double>(t.undo_bytes));
          summary.Set(run_label + "_redo_bytes",
                      static_cast<double>(t.redo_bytes));
          summary.Set(run_label + "_dirty_writebacks",
                      static_cast<double>(t.dirty_page_writebacks));
          summary.Set(run_label + "_throughput_qps", report.throughput_qps);
          summary.Set(run_label + "_p50_s",
                      report.latencies.Quantile(0.50) / 1e9);
          summary.Set(run_label + "_p95_s",
                      report.latencies.Quantile(0.95) / 1e9);
          summary.Set(run_label + "_lock_wait_s",
                      static_cast<double>(t.lock_wait_ns) / 1e9);
        }

        // Write amplification: pages shipped back to the server per logical
        // attribute update (0 when the run had no updates).
        const double wamp =
            t.logical_updates > 0
                ? static_cast<double>(t.dirty_page_writebacks) /
                      static_cast<double>(t.logical_updates)
                : 0;
        rows.push_back(
            {FormatSeconds(ratio, 2), WithThousands(n),
             FormatSeconds(report.throughput_qps, 3),
             FormatSeconds(report.latencies.Quantile(0.50) / 1e9),
             FormatSeconds(report.latencies.Quantile(0.95) / 1e9),
             WithThousands(t.txn_commits), WithThousands(t.txn_aborts),
             FormatSeconds(static_cast<double>(t.lock_wait_ns) / 1e9),
             WithThousands(t.undo_bytes), WithThousands(t.redo_bytes),
             FormatSeconds(wamp, 2)});

        StatRecord rec = WorkloadStatRecord(out);
        rec.database = "derby-2e3x1e3";
        rec.cluster = cluster_label;
        rec.algo = "update_mix";
        rec.query_text =
            "mixed selection/tree/update workload (zipf 0.6, ratio " +
            std::to_string(ratio) + ")";
        stats.Add(rec);
      }
    }
    PrintTable(cluster_label + " — update mix (simulated, " +
                   std::to_string(queries) + " queries/client)",
               {"ratio", "clients", "qps", "p50(s)", "p95(s)", "commits",
                "aborts", "lock wait(s)", "undo B", "redo B", "w-amp"},
               rows);
  }

  std::printf(
      "\nexpected: throughput falls as update_ratio grows; lock waiting "
      "appears only with >= 2 clients; undo tracks dirtied pages, redo "
      "tracks update count\n");

  if (!opts.summary_json.empty()) {
    if (!WriteTextFile(opts.summary_json, summary.ToJson())) return 1;
    std::printf("wrote run summary to %s\n", opts.summary_json.c_str());
  }
  ExportStats(stats, opts);
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
