// Ablation: client/server cache split (paper Section 3.2: "with 128MB of
// RAM, one client and no log, a good configuration is 4MB for the server
// cache and 32MB for the client... by giving more memory to the client,
// you reduce both IOs and RPCs"). Sweeps the client cache size on the
// canonical query and reports time, I/Os and RPCs.
#include "common/bench_util.h"
#include "src/common/string_util.h"
#include "src/query/tree_query.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);

  std::vector<std::vector<std::string>> rows;
  for (uint64_t client_mb : {4, 8, 16, 32, 64}) {
    DerbyConfig cfg;
    cfg.providers = 2000;
    cfg.avg_children = 1000;
    cfg.clustering = ClusteringStrategy::kClassClustered;
    cfg.scale = opts.scale;
    cfg.db.cache.client_bytes = client_mb << 20;
    auto derby = OrDie(BuildDerby(cfg), "derby build");

    // NL at (90,10): the random-navigation workload whose fault rate the
    // client cache directly controls.
    TreeQuerySpec spec = DerbyTreeQuery(*derby, 90, 10);
    auto nl = OrDie(RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kNL),
                    "NL 90/10");
    // NOJOIN at (90,90): sequential + parent lookups.
    TreeQuerySpec spec2 = DerbyTreeQuery(*derby, 90, 90);
    auto nj =
        OrDie(RunTreeQuery(derby->db.get(), spec2, TreeJoinAlgo::kNOJOIN),
              "NOJOIN 90/90");

    rows.push_back({std::to_string(client_mb) + " MB",
                    FormatSeconds(nl.seconds * opts.scale),
                    WithThousands(nl.metrics.disk_reads),
                    WithThousands(nl.metrics.rpc_count),
                    FormatSeconds(nj.seconds * opts.scale),
                    WithThousands(nj.metrics.rpc_count)});
  }
  PrintTable(
      "client-cache sweep — 2e3x2e6 class cluster (server cache fixed 4MB)",
      {"client cache", "NL 90/10 (s)", "NL I/Os", "NL RPCs",
       "NOJOIN 90/90 (s)", "NOJOIN RPCs"},
      rows);
  std::printf(
      "\nexpected: a larger client cache monotonically cuts I/Os and RPCs"
      " (paper\nSection 3.2's cache advice); the paper's 32 MB choice sits"
      " at the knee.\n");
  ExportStats(StatStore(), opts);  // no records yet: an empty export
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
