// Reproduces paper Figure 11: the canonical tree query under *class
// clustering* (one file per class) on the 2,000-provider x ~2,000,000-
// patient database, for all four algorithms at the (10,90)% selectivity
// grid. Paper expectation: hash joins win, NOJOIN stays within ~1.5x,
// NL is dreadful except when few providers are selected.
#include "common/bench_util.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto derby = BuildDerbyOrDie(2000, 1000,
                               ClusteringStrategy::kClassClustered, opts);
  // Figure 11, columns NL, NOJOIN, PHJ, CHJ.
  PaperGrid paper{{{1418.56, 125.90, 89.83, 101.05},
                   {12331.96, 191.51, 154.57, 154.09},
                   {1509.19, 1266.31, 925.07, 1320.69},
                   {13423.38, 2315.62, 1913.80, 1956.35}}};
  StatStore stats;
  RunTreeQueryGrid(*derby, "fig11 class-cluster 2e3x2e6", paper, opts,
                   &stats);
  ExportStats(stats, opts);
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
