// Reproduces paper Figure 12: class clustering at the large scale
// (1,000,000 providers x ~3,000,000 patients, fanout 3). Paper
// expectation: NOJOIN collapses (random parent fetches over a collection
// far bigger than the cache) except at (90,90), where the hash joins'
// tables outgrow memory and start swapping — there NOJOIN wins.
#include "common/bench_util.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto derby = BuildDerbyOrDie(1000000, 3,
                               ClusteringStrategy::kClassClustered, opts);
  // Figure 12, columns NL, NOJOIN, PHJ, CHJ.
  PaperGrid paper{{{4566.06, 3550.62, 365.72, 402.38},
                   {41119.29, 3777.10, 5723.28, 1286.18},
                   {4738.09, 31318.05, 2676.37, 9457.91},
                   {43850.03, 34708.13, 44188.33, 58963.71}}};
  StatStore stats;
  RunTreeQueryGrid(*derby, "fig12 class-cluster 1e6x3e6", paper, opts,
                   &stats);
  ExportStats(stats, opts);
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
