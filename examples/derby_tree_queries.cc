// The paper's headline experiment, as a runnable example: generate the
// Derby medical database (Providers 1-N Patients) and evaluate
//
//   select tuple(n: p.name, a: pa.age)
//   from p in Providers, pa in p.clients
//   where pa.mrn < k1 and p.upin < k2
//
// with all four strategies — parent-to-child navigation (NL),
// child-to-parent navigation (NOJOIN), hash-parents (PHJ) and
// hash-children (CHJ) — on a cold cache, printing simulated seconds and
// I/O counters. Run with a smaller --scale for paper-sized databases.
//
//   ./build/examples/derby_tree_queries [scale]    (default scale 100)
#include <cstdio>
#include <cstdlib>

#include "src/benchdb/derby.h"
#include "src/query/tree_query.h"

using namespace treebench;

int main(int argc, char** argv) {
  uint32_t scale = argc > 1 ? static_cast<uint32_t>(atoi(argv[1])) : 100;

  DerbyConfig cfg;
  cfg.providers = 2000;
  cfg.avg_children = 1000;
  cfg.clustering = ClusteringStrategy::kClassClustered;
  cfg.scale = scale;
  auto derby = BuildDerby(cfg).value();
  std::printf(
      "derby database: %llu providers x %llu patients, %s clustering "
      "(scale 1/%u)\nsimulated load took %.0f s\n\n",
      static_cast<unsigned long long>(derby->meta.num_providers),
      static_cast<unsigned long long>(derby->meta.num_patients),
      std::string(ClusteringName(cfg.clustering)).c_str(), scale,
      derby->load_seconds);

  for (auto [sel_pat, sel_prov] :
       {std::pair{10.0, 10.0}, std::pair{90.0, 90.0}}) {
    std::printf("-- selectivity: %.0f%% of patients, %.0f%% of providers\n",
                sel_pat, sel_prov);
    TreeQuerySpec spec = DerbyTreeQuery(*derby, sel_pat, sel_prov);
    for (TreeJoinAlgo algo : {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN,
                              TreeJoinAlgo::kPHJ, TreeJoinAlgo::kCHJ}) {
      QueryRunStats run = RunTreeQuery(derby->db.get(), spec, algo).value();
      std::printf(
          "  %-6s  %9.2f s   %8llu tuples   %7llu page reads   "
          "%7llu handle gets   %llu swap I/Os\n",
          std::string(AlgoName(algo)).c_str(), run.seconds * scale,
          static_cast<unsigned long long>(run.result_count),
          static_cast<unsigned long long>(run.metrics.disk_reads),
          static_cast<unsigned long long>(run.metrics.handle_gets),
          static_cast<unsigned long long>(run.metrics.swap_ios));
    }
  }
  std::printf(
      "\n(seconds are simulated on the paper's 1995-class platform and "
      "scaled to paper size;\nsee bench/tree_grid.cc for the full "
      "reproduction grids)\n");
  return 0;
}
