// Reproduces paper Figure 13: *composition clustering* (children placed
// right after their parent) on the 2,000 x ~2,000,000 database. Paper
// expectation: navigation (NL) is by far the best almost everywhere.
#include "common/bench_util.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto derby =
      BuildDerbyOrDie(2000, 1000, ClusteringStrategy::kComposition, opts);
  // Figure 13, columns NL, NOJOIN, PHJ, CHJ.
  PaperGrid paper{{{92.78, 961.88, 980.42, 971.84},
                   {923.84, 1090.98, 1042.16, 1078.47},
                   {155.17, 1303.90, 1164.97, 1221.29},
                   {1665.51, 2006.76, 1898.97, 1993.88}}};
  StatStore stats;
  RunTreeQueryGrid(*derby, "fig13 composition 2e3x2e6", paper, opts,
                   &stats);
  ExportStats(stats, opts);
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
