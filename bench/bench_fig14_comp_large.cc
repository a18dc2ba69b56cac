// Reproduces paper Figure 14: composition clustering at the large scale
// (1,000,000 x ~3,000,000). Paper expectation: NL wins three of four
// cells; NOJOIN takes (10,90).
#include "common/bench_util.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto derby =
      BuildDerbyOrDie(1000000, 3, ClusteringStrategy::kComposition, opts);
  // Figure 14, columns NL, NOJOIN, PHJ, CHJ.
  PaperGrid paper{{{165.97, 1465.20, 1566.68, 1634.72},
                   {1749.50, 1572.40, 8090.45, 3181.43},
                   {280.53, 1988.82, 1932.78, 4993.11},
                   {2709.16, 3332.08, 10251.00, 10761.14}}};
  StatStore stats;
  RunTreeQueryGrid(*derby, "fig14 composition 1e6x3e6", paper, opts,
                   &stats);
  ExportStats(stats, opts);
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
