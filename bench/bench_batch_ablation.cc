// Vectored-fetch ablation (docs/fetch_batching.md): sweeps the group-RPC
// batch size (CostModel::max_fetch_batch_pages) over batch sizes 1, 4, 16,
// 64 for the class-clustered, composition-clustered and randomized
// organizations, running (a) a cold 10% selection scan over Patients and
// (b) the cold canonical NL tree query (10%/10%). Reports RPC counts
// (group RPCs count once), disk reads, readahead efficiency, and simulated
// seconds per cell.
//
// Expected shape: batching never changes results; RPC counts drop roughly
// by the batch size on clustered layouts (sequential runs span whole
// windows) and somewhat less on randomized ones (rid-sorted batches still
// group a full window per RPC). B=1 must reproduce the pre-batching engine
// exactly. Disk reads stay identical whenever the touched pages fit the
// client cache (asserted in tests/fetch_batch_test.cc); at smoke scale the
// caches are tiny, so the reordered access pattern may shift LRU evictions.
//
// Hard internal check (exit 1 on failure): on the composition-clustered
// cold NL tree query, B=16 must cut RPCs by at least 3x vs B=1.
//
// Each (clustering x batch) pair is a hermetic bench cell with its own
// database build (both probe queries run cold, so the counters match the
// old shared-database sweep exactly); cells run on the --jobs pool and the
// cross-cell checks (result-set identity vs B=1, the 3x RPC gate) happen
// at merge time in submission order (docs/parallel_harness.md).
//
// Extra flags beyond the common --scale/--csv/--stats-json and --jobs=N:
//   --summary-json=PATH  flat {"key": number} summary — the format
//                        bench/check_regression diffs against
//                        bench/baselines/batch_ablation.json
//   --scale=0            smoke mode: tiny database (scale 64) — the CI
//                        config; the 3x check still holds there.
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/query/selection.h"
#include "src/query/tree_query.h"
#include "src/telemetry/regression.h"

namespace treebench::bench {
namespace {

/// Out-slot of one (clustering x batch) cell.
struct BatchOut {
  QueryRunStats scan;
  QueryRunStats nl;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
};

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.smoke) opts.scale = kSmokeScale;

  const std::vector<ClusteringStrategy> clusterings = {
      ClusteringStrategy::kClassClustered, ClusteringStrategy::kComposition,
      ClusteringStrategy::kRandomized};
  const std::vector<uint32_t> batches = {1, 4, 16, 64};

  BenchCells cells(opts.jobs);
  std::vector<std::vector<BatchOut>> outs(clusterings.size());
  for (auto& per_cluster : outs) per_cluster.resize(batches.size());

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const ClusteringStrategy clustering = clusterings[ci];
    const std::string cluster_label = std::string(ClusteringName(clustering));
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      const uint32_t batch = batches[bi];
      cells.Add(cluster_label + "_b" + std::to_string(batch),
                [&, ci, bi, batch, clustering, cluster_label] {
        auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
        Database* db = derby->db.get();

        SelectionSpec sel;
        sel.collection = "Patients";
        sel.key_attr = derby->meta.c_mrn;
        sel.hi = derby->MrnCutoff(10);
        sel.proj_attr = derby->meta.c_age;
        sel.mode = SelectionMode::kScan;
        sel.cold = true;
        TreeQuerySpec tree = DerbyTreeQuery(*derby, 10, 10);
        tree.cold = true;

        db->sim().set_max_fetch_batch_pages(batch);
        BatchOut& out = outs[ci][bi];
        const std::string where =
            " (" + cluster_label + ", B=" + std::to_string(batch) + ")";
        out.scan = OrDie(RunSelection(db, sel), "scan" + where);
        out.nl = OrDie(RunTreeQuery(db, tree, TreeJoinAlgo::kNL), "NL" + where);
        out.server_cache_bytes = db->cache().config().server_bytes;
        out.client_cache_bytes = db->cache().config().client_bytes;
        return 0;
      });
    }
  }
  if (!cells.RunAll()) return 1;

  StatStore stats;
  telemetry::FlatRun summary;
  bool speedup_ok = true;

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const ClusteringStrategy clustering = clusterings[ci];
    const std::string cluster_label = std::string(ClusteringName(clustering));

    std::vector<std::vector<std::string>> rows;
    const BatchOut& b1 = outs[ci][0];
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      const uint32_t batch = batches[bi];
      const BatchOut& cell = outs[ci][bi];
      if (batch != 1 && (cell.scan.result_count != b1.scan.result_count ||
                         cell.nl.result_count != b1.nl.result_count)) {
        // The one invariant that holds at ANY cache size: batching
        // regroups wire trips, it never changes what a query returns.
        // (Counter-exact equivalence — identical disk reads, monotonically
        // fewer RPCs — additionally needs the touched pages to fit the
        // client cache; tests/fetch_batch_test.cc asserts it there.)
        std::fprintf(stderr, "FATAL: %s B=%u changed the result set\n",
                     cluster_label.c_str(), batch);
        return 1;
      }

      const double scan_s = cell.scan.seconds * opts.scale;
      const double nl_s = cell.nl.seconds * opts.scale;
      const Metrics& sm = cell.scan.metrics;
      const Metrics& nm = cell.nl.metrics;
      rows.push_back(
          {std::to_string(batch), WithThousands(sm.rpc_count),
           WithThousands(sm.disk_reads), FormatSeconds(scan_s),
           WithThousands(nm.rpc_count), WithThousands(nm.disk_reads),
           FormatSeconds(nl_s),
           WithThousands(nm.readahead_hits),
           WithThousands(nm.readahead_wasted)});

      const std::string key =
          cluster_label + "_b" + std::to_string(batch);
      if (!opts.summary_json.empty()) {
        summary.Set(key + "_scan_rpcs", static_cast<double>(sm.rpc_count));
        summary.Set(key + "_scan_disk_reads",
                    static_cast<double>(sm.disk_reads));
        summary.Set(key + "_scan_seconds", scan_s);
        summary.Set(key + "_nl_rpcs", static_cast<double>(nm.rpc_count));
        summary.Set(key + "_nl_disk_reads",
                    static_cast<double>(nm.disk_reads));
        summary.Set(key + "_nl_seconds", nl_s);
        summary.Set(key + "_nl_batched_rpcs",
                    static_cast<double>(nm.batched_rpcs));
        summary.Set(key + "_nl_readahead_hits",
                    static_cast<double>(nm.readahead_hits));
        summary.Set(key + "_nl_readahead_wasted",
                    static_cast<double>(nm.readahead_wasted));
      }

      for (bool is_tree : {false, true}) {
        const QueryRunStats& run = is_tree ? cell.nl : cell.scan;
        StatRecord rec;
        rec.database = "derby-2e3x1e3";
        rec.cluster = cluster_label;
        rec.algo = is_tree ? "NL" : "scan";
        rec.query_text = is_tree
                             ? "tree 10/10, batch=" + std::to_string(batch)
                             : "selection 10% scan, batch=" +
                                   std::to_string(batch);
        rec.result_count = run.result_count;
        rec.cold = true;
        rec.server_cache_bytes = cell.server_cache_bytes;
        rec.client_cache_bytes = cell.client_cache_bytes;
        rec.FillFrom(run.metrics, run.seconds * opts.scale);
        stats.Add(rec);
      }

      if (clustering == ClusteringStrategy::kComposition && batch == 16) {
        const double ratio =
            static_cast<double>(b1.nl.metrics.rpc_count) /
            static_cast<double>(std::max<uint64_t>(1, nm.rpc_count));
        std::printf(
            "composition NL RPC reduction at B=16: %.2fx (%llu -> %llu)\n",
            ratio, (unsigned long long)b1.nl.metrics.rpc_count,
            (unsigned long long)nm.rpc_count);
        if (ratio < 3.0) {
          std::fprintf(stderr,
                       "FATAL: expected >= 3x fewer RPCs at B=16 on the "
                       "composition-clustered NL query, got %.2fx\n",
                       ratio);
          speedup_ok = false;
        }
      }
    }
    PrintTable(cluster_label + " — vectored fetch ablation (cold runs)",
               {"batch", "scan rpcs", "scan disk rd", "scan(s)", "nl rpcs",
                "nl disk rd", "nl(s)", "ra hits", "ra wasted"},
               rows);
  }

  std::printf(
      "\nexpected: identical results at every batch size; RPCs shrink ~Bx "
      "on clustered layouts, less on randomized (where oversized windows "
      "can even thrash a tiny client cache — visible above at scale 0)\n");

  if (!opts.summary_json.empty()) {
    if (!WriteTextFile(opts.summary_json, summary.ToJson())) return 1;
    std::printf("wrote run summary to %s\n", opts.summary_json.c_str());
  }
  ExportStats(stats, opts);
  return speedup_ok ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
